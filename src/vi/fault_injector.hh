/**
 * @file
 * Structured fault injection for the VI fabric and storage media.
 *
 * DSA exists because VI gives no reliability guarantees (section
 * 2.2: "most existing VI implementations do not provide strong
 * reliability guarantees"), so exercising loss and failure paths is
 * first-class in this reproduction. The injector composes the common
 * patterns over the fabric's drop/corrupt filters, the NIC's
 * connection-break hook, and the disks' media-fault hooks, in
 * escalating order of severity:
 *
 *  - dropNext(n): lose the next n packets (optionally one direction);
 *  - lossRate(p): Bernoulli loss until cleared;
 *  - blackout(from, until): total loss inside a time window;
 *  - corruptNext(n) / corruptRate(p): the first two patterns, but
 *    the packet is delivered with a damaged payload instead of
 *    dropped — exercising the end-to-end digest machinery instead of
 *    retransmission timers;
 *  - corruptRdmaNext(nic, n): damage the next n inbound RDMA
 *    fragments at a specific NIC's DMA engine (past the link CRC);
 *  - injectLatentError / setTornWriteRate: silent media corruption
 *    on a disk (vi::MediaFaultTarget), detected only by
 *    verify-on-read and the scrubber;
 *  - scheduleBreak(t, nic, ep): silent connection kill at time t;
 *  - scheduleNodeCrash/Restart/Outage(t, node): whole-node failure —
 *    the node drops its volatile state and leaves the fabric, then
 *    (optionally) comes back cold. Targets implement NodeFaultTarget
 *    so the injector stays independent of the storage layer.
 *
 * All active rules apply simultaneously (a packet is dropped if any
 * drop rule says so; a surviving packet is corrupted if any corrupt
 * rule says so). Statistics go into the simulation's MetricRegistry
 * under a unique "fault" prefix (dropped, corrupted, breaks,
 * latent_errors, node_crashes, node_restarts) so experiments can
 * snapshot what was injected alongside what the system did about it.
 */

#ifndef V3SIM_VI_FAULT_INJECTOR_HH
#define V3SIM_VI_FAULT_INJECTOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "vi/fault_targets.hh"
#include "vi/vi_nic.hh"

namespace v3sim::vi
{

/** Composable fault patterns over one fabric. */
class FaultInjector
{
  public:
    /**
     * Installs itself as the fabric's drop and corrupt filters. Only
     * one injector per fabric; it replaces any existing filters.
     */
    FaultInjector(sim::Simulation &sim, net::Fabric &fabric);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    ~FaultInjector();

    /**
     * Drops the next @p count packets. When @p towards is set, only
     * packets destined for that port count (and are dropped).
     */
    void dropNext(int count,
                  std::optional<net::PortId> towards = std::nullopt);

    /** Random loss with probability @p p until cleared (0 clears). */
    void setLossRate(double p);

    /** Drops everything in [from, until) of simulated time. */
    void blackout(sim::Tick from, sim::Tick until);

    /**
     * Damages the payload of the next @p count delivered packets.
     * When @p towards is set, only packets destined for that port
     * count. Corruption never drops: the packet arrives, the link
     * CRC "passed", and only end-to-end digests can tell.
     */
    void corruptNext(int count,
                     std::optional<net::PortId> towards = std::nullopt);

    /** Random per-packet corruption with probability @p p until
     *  cleared (0 clears). Independent of the loss process. */
    void setCorruptRate(double p);

    /** Damages the next @p count inbound RDMA fragments at @p nic's
     *  DMA engine (see ViNic::corruptNextRdma). */
    void corruptRdmaNext(ViNic &nic, int count);

    /** Silently corrupts [offset, offset+len) on @p media and counts
     *  it under fault.latent_errors. */
    void injectLatentError(MediaFaultTarget &media, uint64_t offset,
                           uint64_t len);

    /** Makes each write on @p media tear with probability @p p. */
    void setTornWriteRate(MediaFaultTarget &media, double p);

    /** Schedules a silent connection break at absolute time @p when. */
    void scheduleBreak(sim::Tick when, ViNic &nic, EndpointId ep);

    /** Schedules @p node.crash() at absolute time @p when. */
    void scheduleNodeCrash(sim::Tick when, NodeFaultTarget &node);

    /** Schedules @p node.restart() at absolute time @p when. */
    void scheduleNodeRestart(sim::Tick when, NodeFaultTarget &node);

    /**
     * Convenience: crash at @p from, restart at @p until — the
     * scripted availability window the bench and tests use.
     */
    void scheduleNodeOutage(sim::Tick from, sim::Tick until,
                            NodeFaultTarget &node);

    /** Randomized crash/restart campaign (see startChaos). */
    struct ChaosConfig
    {
        /** Campaign window in absolute simulated time. */
        sim::Tick begin = 0;
        sim::Tick end = 0;
        /** Mean healthy gap between outages (exponential). */
        sim::Tick mean_gap = sim::msecs(100);
        /** Outage length, uniform in [min_down, max_down]. */
        sim::Tick min_down = sim::msecs(20);
        sim::Tick max_down = sim::msecs(100);
    };

    /**
     * Runs a seeded random crash/restart campaign over @p victims
     * inside [config.begin, config.end): exponential healthy gaps,
     * a uniformly chosen victim per outage, a uniform down time.
     * Outages are strictly sequential — one node down at a time —
     * so every replica set with its legs on distinct nodes keeps a
     * survivor throughout (data loss in the campaign is a bug in
     * the system under test, never in the schedule). The campaign
     * RNG forks lazily on the first call, preserving the injector's
     * rule that fault-free runs are bit-identical to builds without
     * it. The task ends itself at config.end; crashes and restarts
     * land in the usual node_crashes/node_restarts counters.
     */
    void startChaos(const ChaosConfig &config,
                    std::vector<NodeFaultTarget *> victims);

    /** Outages the chaos campaigns have completed. */
    uint64_t chaosOutageCount() const { return chaos_outages_.value(); }

    /** Cancels every scheduled-but-not-yet-fired break/crash/restart. */
    void cancelScheduled();

    /**
     * Removes every active drop and corrupt rule and cancels pending
     * scheduled faults (breaks, crashes, restarts). After clear() the
     * injector is fully inert.
     */
    void clear();

    /** Packets dropped by this injector. */
    uint64_t droppedCount() const { return dropped_.value(); }

    /** Packets corrupted by this injector's wire rules. */
    uint64_t corruptedCount() const { return corrupted_.value(); }

    /** Latent sector errors injected. */
    uint64_t latentErrorCount() const { return latent_errors_.value(); }

    /** Connection breaks executed. */
    uint64_t breakCount() const { return breaks_.value(); }

    /** Node crashes executed. */
    uint64_t nodeCrashCount() const { return node_crashes_.value(); }

    /** Node restarts executed. */
    uint64_t nodeRestartCount() const { return node_restarts_.value(); }

  private:
    bool shouldDrop(const net::Packet &packet);
    bool shouldCorrupt(const net::Packet &packet);

    /** Remembers a scheduled fault so clear() can cancel it. */
    void track(sim::EventQueue::Handle handle);

    sim::Simulation &sim_;
    net::Fabric &fabric_;
    /** Forked lazily on the first setLossRate: an idle injector must
     *  not consume an RNG stream, or merely constructing one would
     *  perturb every fault-free scenario's randomness. */
    std::optional<sim::Rng> rng_;
    /** Same lazy-fork rule, separate stream: the corruption process
     *  must not perturb the loss process (and vice versa), so runs
     *  that only differ in one rate stay comparable. */
    std::optional<sim::Rng> corrupt_rng_;
    /** And a third independent stream for chaos campaigns. */
    std::optional<sim::Rng> chaos_rng_;

    /** Chaos campaign body (one coroutine per startChaos call). */
    sim::Task<> chaosTask(ChaosConfig config,
                          std::vector<NodeFaultTarget *> victims);

    int drop_next_ = 0;
    std::optional<net::PortId> drop_towards_;
    double loss_rate_ = 0.0;
    sim::Tick blackout_from_ = 0;
    sim::Tick blackout_until_ = 0;

    int corrupt_next_ = 0;
    std::optional<net::PortId> corrupt_towards_;
    double corrupt_rate_ = 0.0;

    /** Handles of scheduled break/crash/restart events; fired ones
     *  are pruned opportunistically on the next track(). */
    std::vector<sim::EventQueue::Handle> scheduled_;

    // Prefix member must precede the metric references (init order).
    std::string metric_prefix_;
    sim::CounterHandle dropped_;
    sim::CounterHandle corrupted_;
    sim::CounterHandle latent_errors_;
    sim::CounterHandle breaks_;
    sim::CounterHandle node_crashes_;
    sim::CounterHandle node_restarts_;
    sim::CounterHandle chaos_outages_;
};

} // namespace v3sim::vi

#endif // V3SIM_VI_FAULT_INJECTOR_HH
