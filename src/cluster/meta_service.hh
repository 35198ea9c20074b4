/**
 * @file
 * The placement-metadata service: a small replicated log with a
 * lease-holding primary.
 *
 * The paper's V3 cluster is statically configured; turning it into a
 * volume *service* needs one authoritative, fault-tolerant answer to
 * "which nodes hold which extent right now". This is that answer in
 * miniature: three metadata replicas (co-located with the first
 * three storage nodes — vi::CompositeFaultTarget makes them share
 * the node's failure domain), one of which holds a time-bounded
 * lease as primary. Placement changes are proposed through the
 * primary and commit when a majority of replicas has appended the
 * record; each commit bumps the map epoch. fetch() serves the
 * committed map (again requiring a majority, so a minority fragment
 * can never serve a stale view as authoritative).
 *
 * Lease safety: a primary may act until its lease expires; an
 * election can only install a successor *after* that expiry tick, so
 * two primaries never overlap. (The simulator has one global clock;
 * the real-world version of this argument needs bounded clock skew
 * folded into the lease duration.) Losing the primary therefore
 * costs availability of *metadata writes* for at most
 * kLeaseDuration, never consistency; data-plane I/O keeps flowing on
 * the last fetched map the whole time.
 *
 * Determinism (DESIGN.md §8): every decision that could race with
 * same-tick crash/restart events — lease renewal, expiry, election,
 * commit quorum counts — is taken in the event queue's final band,
 * and the election winner is the minimum live replica id (a content
 * key), so runs are byte-identical under event-tie shuffle.
 */

#ifndef V3SIM_CLUSTER_META_SERVICE_HH
#define V3SIM_CLUSTER_META_SERVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/placement.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "vi/fault_targets.hh"

namespace v3sim::cluster
{

/**
 * One metadata replica: a durable log of placement records plus a
 * crashed flag. crash() stops it acking (and, if primary, lets the
 * lease lapse); the log itself is persistent, like the V3 servers'
 * disks, so a restarted replica rejoins with its history intact.
 */
class MetaReplica : public vi::NodeFaultTarget
{
  public:
    explicit MetaReplica(int id) : id_(id) {}

    void crash() override { crashed_ = true; }
    void restart() override { crashed_ = false; }

    int id() const { return id_; }
    bool crashed() const { return crashed_; }
    const std::vector<PlacementRecord> &log() const { return log_; }
    void append(const PlacementRecord &record)
    {
        log_.push_back(record);
    }

  private:
    int id_;
    bool crashed_ = false;
    std::vector<PlacementRecord> log_;
};

/** The replicated placement-metadata service. */
class MetaService
{
  public:
    /** Metadata replica count (majority = kReplicas/2 + 1). */
    static constexpr int kReplicas = 3;

    /** One-way metadata RPC delay (client->primary,
     *  primary->replica). */
    static constexpr sim::Tick kRpcDelay = sim::usecs(40);

    /** Primary lease renewal period. */
    static constexpr sim::Tick kLeaseInterval = sim::msecs(5);

    /** Lease validity; an election waits out the old lease, so this
     *  bounds metadata-write unavailability after a primary crash. */
    static constexpr sim::Tick kLeaseDuration = sim::msecs(15);

    /** Registers the "meta.*" counters. @p genesis is the initial
     *  map, committed as epoch 1, record 0 of every replica's log;
     *  replica 0 holds the genesis lease. */
    MetaService(sim::Simulation &sim, PlacementMap genesis);

    MetaService(const MetaService &) = delete;
    MetaService &operator=(const MetaService &) = delete;

    /** Spawns the lease/election loop. Lazy and idempotent — called
     *  on first use, never at construction, so connect-time
     *  Simulation::run() drains still terminate. */
    void start();

    /** Stops the lease loop at its next wakeup. */
    void stop() { running_ = false; }

    /**
     * Proposes "shard/node is now in @p state" through the current
     * primary. Commits (true) once a majority of replicas appended
     * the record; fails (false) without a live leased primary or
     * without quorum. A commit bumps the epoch.
     */
    sim::Task<bool> propose(int shard, int node, ReplicaState state);

    /** Fetches the committed map into @p out (a majority must
     *  answer); models the metadata-read round trip. */
    sim::Task<bool> fetch(PlacementMap &out);

    /** Current primary replica id, or -1 while leaderless. */
    int primary() const { return primary_; }

    /** Committed epoch (instantaneous; oracles and tests). */
    uint64_t committedEpoch() const { return map_.epoch; }

    /** Committed map (instantaneous; oracles and tests). */
    const PlacementMap &committed() const { return map_; }

    MetaReplica &replica(int id) { return *replicas_[id]; }
    int replicaCount() const
    {
        return static_cast<int>(replicas_.size());
    }

    /** @name Statistics @{ */
    uint64_t electionCount() const { return elections_.value(); }
    uint64_t commitCount() const { return commits_.value(); }
    uint64_t rejectCount() const { return rejects_.value(); }
    uint64_t fetchCount() const { return fetches_.value(); }
    /** @} */

  private:
    sim::Task<> leaseLoop();
    /**
     * Resumes in this tick's final band, after the lease loop's pass
     * when one is due on this tick. Both wait for the final band, and
     * final events run in the order they were queued — an order
     * tie-shuffle permutes — so without this a proposal's leader
     * check could see the state before or after a same-tick election
     * (DESIGN.md §8.3).
     */
    sim::Task<> afterLeasePass();
    size_t majority() const { return replicas_.size() / 2 + 1; }
    size_t liveCount() const;

    sim::Simulation &sim_;
    std::vector<std::unique_ptr<MetaReplica>> replicas_;

    /** Committed state (what a majority of logs agrees on). */
    PlacementMap map_;

    int primary_ = 0;
    sim::Tick lease_until_ = 0;
    /** Tick of the lease loop's next final-band pass; -1 once that
     *  pass has run. */
    sim::Tick lease_pass_at_ = -1;
    bool started_ = false;
    bool running_ = false;

    sim::CounterHandle elections_;
    sim::CounterHandle commits_;
    sim::CounterHandle rejects_;
    sim::CounterHandle fetches_;
};

} // namespace v3sim::cluster

#endif // V3SIM_CLUSTER_META_SERVICE_HH
