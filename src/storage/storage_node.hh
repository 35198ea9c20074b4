/**
 * @file
 * What every storage node has, whatever its transport: a 2-CPU host
 * (Table 2), the block path over its disks (DESIGN.md §6d), the
 * admission gate in front of that path (DESIGN.md §12) and the
 * request counters every front end registers.
 *
 * storage::V3Server (VI) and iscsi::Target (TCP) derive from it and
 * keep only their transport, so the VI-vs-iSCSI comparison runs on
 * the same box behind a different wire. A node serves clients from
 * the end of its constructor.
 */

#ifndef V3SIM_STORAGE_STORAGE_NODE_HH
#define V3SIM_STORAGE_STORAGE_NODE_HH

#include <cstdint>
#include <string>
#include <utility>

#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "storage/admission_gate.hh"
#include "storage/block_path.hh"

namespace v3sim::storage
{

/** Static configuration every storage node shares; V3ServerConfig
 *  adds its request credits, iscsi::TargetConfig only its defaults. */
struct StorageNodeConfig : BlockPathConfig
{
    /** The front ends differ only in these two defaults. */
    StorageNodeConfig(std::string default_name,
                      sim::Tick default_digest_per_kb)
        : name(std::move(default_name)),
          digest_per_kb(default_digest_per_kb)
    {}

    std::string name;
    static constexpr int cpus = 2;
    static constexpr osmodel::HostCosts host_costs =
        osmodel::HostCosts::storageNode();

    /** Phantom memory for large workload runs. */
    bool phantom_memory = false;

    /** @name Request-manager CPU costs (charged on the node's CPUs)
     * @{ */
    static constexpr sim::Tick parse_cost = sim::usecs(5.0);
    static constexpr sim::Tick complete_cost = sim::usecs(4.0);
    /** Per-KB cost of the end-to-end CRC32C digest (verify staged
     *  write payloads, digest read responses). Charged in phantom
     *  and real-memory runs alike; see dsa::payloadDigest. */
    sim::Tick digest_per_kb;
    /** @} */

    /** Overload control: bounded admission queue + per-tenant DRR
     *  fair queueing in front of the data path (DESIGN.md §12).
     *  Disabled by default — the paper's closed-loop experiments run
     *  the ungated pipeline. */
    AdmissionConfig admission;
};

/** One storage node minus its transport. */
class StorageNode
{
  public:
    virtual ~StorageNode() = default;

    StorageNode(const StorageNode &) = delete;
    StorageNode &operator=(const StorageNode &) = delete;

    osmodel::Node &node() { return node_; }
    /** @name The node's one volume and its disks (config.disk_count,
     *  disk_spec, stripe_unit) @{ */
    disk::StripeVolume &volume() { return path_.volume(); }
    /** Capacity of volume @p volume, an id off the wire; 0 for any
     *  id but 0, the node's one volume. */
    uint64_t volumeCapacity(uint32_t volume);
    /** @} */
    /** The block cache; null when caching is off. */
    BlockCache *cache() { return path_.cache(); }

    /** @name Statistics @{ */
    uint64_t readCount() const { return reads_.value(); }
    uint64_t writeCount() const { return writes_.value(); }
    /** Write payloads or commands rejected by the digest check. */
    uint64_t
    digestMismatchCount() const
    {
        return digest_mismatches_.value();
    }
    /** Verify-on-read hits: blocks found damaged on disk. */
    uint64_t
    integrityErrorCount() const
    {
        return path_.integrityErrorCount();
    }
    /** Requests refused with a Busy status at the admission gate's
     *  queue bound (config.admission; DESIGN.md §12). */
    uint64_t shedCount() const { return admission_gate_.shedCount(); }
    /** Node-resident time per request: arrival at the request
     *  manager to the completion post (the Figure 4 "V3 Storage
     *  Server" component). */
    const sim::Sampler &serverTime() const { return server_time_.raw(); }
    double cacheHitRatio() const { return path_.cacheHitRatio(); }
    /** @} */

  protected:
    /** Registers the node's metrics under @p metric_base, uniquified
     *  ("server.v3.0", "iscsi.tgt#2", ...). */
    StorageNode(sim::Simulation &sim, const StorageNodeConfig &config,
                const std::string &metric_base);

    /** The check every request passes before the block path: a
     *  non-empty range inside the volume, sector-aligned for a
     *  write. */
    bool validRange(uint32_t volume, uint64_t offset, uint64_t len,
                    bool write);

    osmodel::Node node_;

    /// Registry path prefix; must precede the metric references so
    /// it is initialised first.
    const std::string metric_prefix_;

    BlockPath path_; ///< registers under metric_prefix_

    sim::CounterHandle reads_;
    sim::CounterHandle writes_;
    sim::CounterHandle digest_mismatches_;
    sim::SamplerHandle server_time_;

    /** Overload-control gate in front of the data path; registers
     *  its own metrics under metric_prefix_. */
    AdmissionGate admission_gate_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_STORAGE_NODE_HH
