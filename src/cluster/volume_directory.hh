/**
 * @file
 * Client-side volume directory: epoch-checked routing plus the
 * control loop that turns failure detection into placement changes.
 *
 * This is the piece that makes N independent V3 servers *one*
 * volume service. The data path is unchanged — reads and writes
 * still flow through the RAID-10 composition of dsa::MirroredDevice
 * legs under a dsa::StripedDevice — but every I/O is now admitted
 * under a placement-map epoch. A client whose cached map is stale
 * (the committed epoch moved) is redirected: it pays a refetch round
 * trip to the metadata service before its I/O proceeds. That models
 * the paper's direct-attached clients growing a level of indirection
 * without giving up the kernel-bypass data path: the epoch check is
 * a comparison against a cached integer, and the redirect penalty is
 * only paid when the cluster actually changed.
 *
 * The reconcile loop is the cluster's actuator. It watches the
 * heartbeat monitor and the mirror legs, proposes every observed
 * state transition to the metadata service, and only acts on a
 * transition once it commits: "detect -> commit to the map -> fail
 * the leg" — never the other way around, so the authoritative map
 * can never lag the data plane into serving a reader from a leg the
 * map still calls active while the cluster believes it failed.
 * Recovery transitions (Failed -> Resyncing -> Active) are observed
 * from the mirror's own resync machinery and committed after the
 * fact; the mirror remains the source of truth for data movement,
 * the map for routing.
 */

#ifndef V3SIM_CLUSTER_VOLUME_DIRECTORY_HH
#define V3SIM_CLUSTER_VOLUME_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cluster/heartbeat.hh"
#include "cluster/meta_service.hh"
#include "cluster/placement.hh"
#include "dsa/block_device.hh"
#include "dsa/mirrored_device.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::cluster
{

/**
 * The clustered volume, as a BlockDevice. Route every I/O through
 * the cached placement map, refetching on epoch change; run the
 * reconcile loop that drives failover and placement updates.
 */
class VolumeDirectory : public dsa::BlockDevice
{
  public:
    /** Reconcile-loop period: how often observed node/leg state is
     *  compared against the committed map. */
    static constexpr sim::Tick kReconcileInterval = sim::msecs(2);

    /** Penalty for routing with a stale epoch: one metadata-refetch
     *  redirect round trip (on top of MetaService::fetch's own
     *  modeled delay). */
    static constexpr sim::Tick kRedirectDelay = sim::usecs(80);

    /**
     * Registers the "vdir.*" counters.
     * @param shards  the mirror behind each stripe column, indexed
     *                by shard id (node 2s = leg 0, node 2s+1 = leg 1
     *                of shard s, matching the genesis map);
     * @param data    the striped composition of those mirrors — the
     *                data path I/O is forwarded to after routing.
     */
    VolumeDirectory(sim::Simulation &sim, MetaService &meta,
                    HeartbeatMonitor &heartbeats,
                    std::vector<dsa::MirroredDevice *> shards,
                    dsa::BlockDevice &data);

    VolumeDirectory(const VolumeDirectory &) = delete;
    VolumeDirectory &operator=(const VolumeDirectory &) = delete;

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         uint64_t buffer) override;
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          uint64_t buffer) override;
    uint64_t capacity() const override { return data_.capacity(); }

    /**
     * Stops the control plane (reconcile loop, heartbeats, metadata
     * lease loop) at the next wakeup. Required before any
     * Simulation::run() drain — the loops never end on their own.
     */
    void stopControl();

    /** Epoch of the map this client last routed with. */
    uint64_t cachedEpoch() const { return cached_.epoch; }

    /** @name Statistics @{ */
    uint64_t staleRedirectCount() const
    {
        return stale_redirects_.value();
    }
    uint64_t drivenFailoverCount() const
    {
        return driven_failovers_.value();
    }
    /** @} */

  private:
    /** Epoch check + refetch-on-stale, shared by read and write. */
    sim::Task<bool> route();
    void ensureStarted();
    sim::Task<> reconcileLoop();

    sim::Simulation &sim_;
    MetaService &meta_;
    HeartbeatMonitor &heartbeats_;
    std::vector<dsa::MirroredDevice *> shards_;
    dsa::BlockDevice &data_;

    /** The map this client last fetched; I/O routes against it. */
    PlacementMap cached_;

    /** Last state this loop committed per node; transitions are
     *  proposed only on change. */
    std::vector<ReplicaState> last_state_;

    bool started_ = false;
    bool running_ = false;

    sim::CounterHandle reads_;
    sim::CounterHandle writes_;
    sim::CounterHandle stale_redirects_;
    sim::CounterHandle driven_failovers_;
};

} // namespace v3sim::cluster

#endif // V3SIM_CLUSTER_VOLUME_DIRECTORY_HH
