/**
 * @file
 * Heartbeat-based failure detection for the cluster control plane.
 *
 * The data plane already has implicit failure detection — a DSA
 * client notices a dead server through retransmit exhaustion — but
 * that only fires when an I/O happens to be in flight to the dead
 * node, and only at the client that issued it. The control plane
 * needs an explicit, shared answer to "is node i up?", on a clock of
 * its own, so failover can be *proactive* (fail the leg, stop
 * sending I/O into a black hole) instead of waiting for every client
 * to time out independently.
 *
 * The monitor probes every peer on a fixed interval; a peer is
 * declared down after kMissThreshold consecutive unanswered probes
 * (one missed heartbeat is jitter, three is a crash — the standard
 * phi-accrual-lite compromise), and up again on the first answered
 * probe. A peer whose boot epoch changed between two answered probes
 * *bounced*: it crashed and restarted faster than the detector's
 * resolution, so its volatile state is gone even though it looks
 * healthy. A bounce is reported as one down/up cycle so the
 * reconcile loop re-walks the leg through failover and resync rather
 * than trusting a server that silently lost its staging buffers.
 *
 * Determinism: each probe round samples all peers in index order
 * inside the event queue's final band, so a crash landing on the
 * same tick as a probe resolves identically under tie shuffle.
 */

#ifndef V3SIM_CLUSTER_HEARTBEAT_HH
#define V3SIM_CLUSTER_HEARTBEAT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::cluster
{

/** One monitored peer, described by callbacks so the monitor depends
 *  on nothing above the sim layer. */
struct HeartbeatPeer
{
    std::string name;
    /** Would the peer answer a probe right now? */
    std::function<bool()> alive;
    /** Monotone restart counter (storage::V3Server::bootEpoch);
     *  leave empty when the peer cannot bounce. */
    std::function<uint64_t()> boot_epoch;
};

/** Periodic prober with consecutive-miss down detection. */
class HeartbeatMonitor
{
  public:
    /** Probe period. Detection latency is roughly
     *  kInterval * kMissThreshold + 2 * kRpcDelay. */
    static constexpr sim::Tick kInterval = sim::msecs(2);

    /** One-way probe RPC delay. */
    static constexpr sim::Tick kRpcDelay = sim::usecs(40);

    /** Consecutive missed probes before a peer is declared down. */
    static constexpr int kMissThreshold = 3;

    /** Registers the "hb.*" counters. */
    HeartbeatMonitor(sim::Simulation &sim,
                     std::vector<HeartbeatPeer> peers);

    HeartbeatMonitor(const HeartbeatMonitor &) = delete;
    HeartbeatMonitor &operator=(const HeartbeatMonitor &) = delete;

    /** Spawns the probe loop. Lazy and idempotent, like
     *  MetaService::start(). */
    void start();

    /** Stops the probe loop at its next wakeup. */
    void stop() { running_ = false; }

    /** Current verdict for peer @p index. */
    bool isDown(size_t index) const { return peers_[index].down; }

    size_t peerCount() const { return peers_.size(); }

    /** @name Statistics @{ */
    uint64_t probeCount() const { return probes_.value(); }
    uint64_t downEventCount() const { return down_events_.value(); }
    uint64_t upEventCount() const { return up_events_.value(); }
    /** @} */

  private:
    struct PeerState
    {
        HeartbeatPeer peer;
        int misses = 0;
        bool down = false;
        /** Boot epoch seen on the last answered probe. */
        uint64_t last_epoch = 0;
        bool epoch_valid = false;
    };

    sim::Task<> probeLoop();

    sim::Simulation &sim_;
    std::vector<PeerState> peers_;
    bool started_ = false;
    bool running_ = false;

    sim::CounterHandle probes_;
    sim::CounterHandle down_events_;
    sim::CounterHandle up_events_;
};

} // namespace v3sim::cluster

#endif // V3SIM_CLUSTER_HEARTBEAT_HH
