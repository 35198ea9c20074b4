/**
 * @file
 * iSCSI target — a storage node serving SCSI commands over TCP
 * (DESIGN.md §11).
 *
 * Deliberately the same machine as a V3 node: 2 CPUs, the same
 * disks, and the same storage::BlockPath — block cache and policy,
 * miss coalescing, stale-fill guard, verify-on-read and
 * commit-before-complete — so the VI-vs-iSCSI comparison isolates
 * the *transport*. The only things that differ from
 * storage::V3Server are how requests arrive (interrupt-driven TCP
 * reassembly instead of polled VI receive descriptors) and how data
 * moves (store-and-forward PDU buffers with socket copies instead of
 * RDMA directly between cache frames and client buffers).
 *
 * Writes verify the data digest before the cache or disk see the
 * payload (the same staging-check rule as V3, DESIGN.md §7).
 */

#ifndef V3SIM_ISCSI_TARGET_HH
#define V3SIM_ISCSI_TARGET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iscsi/pdu.hh"
#include "iscsi/tcp_host.hh"
#include "net/fabric.hh"
#include "net/tcp_stream.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/admission_gate.hh"
#include "storage/block_path.hh"

namespace v3sim::iscsi
{

/** Static configuration of one iSCSI target node. Defaults mirror
 *  storage::V3ServerConfig, whose block-path fields come from the
 *  same base, so backend comparisons are apples to apples. */
struct TargetConfig : storage::BlockPathConfig
{
    std::string name = "tgt";
    int cpus = 2;
    osmodel::HostCosts host_costs = osmodel::HostCosts::storageNode();

    bool phantom_memory = false;

    net::TcpConfig tcp;

    /** @name Request-manager CPU costs (as V3ServerConfig) @{ */
    sim::Tick parse_cost = sim::usecs(5.0);
    sim::Tick complete_cost = sim::usecs(4.0);
    /** Software CRC32C per KB (see InitiatorConfig::digest_per_kb). */
    sim::Tick digest_per_kb = sim::usecs(0.08);
    /** @} */

    /** Overload control: the same admission gate V3Server embeds
     *  (DESIGN.md §12), so overload comparisons isolate the
     *  transport. Disabled by default. */
    storage::AdmissionConfig admission;
};

/** One iSCSI storage node (single session: one initiator). */
class Target
{
  public:
    Target(sim::Simulation &sim, net::Fabric &fabric,
           TargetConfig config);

    Target(const Target &) = delete;
    Target &operator=(const Target &) = delete;

    osmodel::Node &node() { return node_; }
    storage::DiskManager &diskManager() { return path_.diskManager(); }
    storage::VolumeManager &volumeManager()
    {
        return path_.volumeManager();
    }
    storage::BlockCache *cache() { return path_.cache(); }
    const TargetConfig &config() const { return config_; }

    /** Begins listening. Call after volumes are assembled. */
    void start();

    /** The port initiators connect() to. */
    net::PortId port() const { return tcp_.port(); }

    /** @name Statistics @{ */
    uint64_t readCount() const { return reads_.value(); }
    uint64_t writeCount() const { return writes_.value(); }
    /** Commands rejected by the header/data digest check. */
    uint64_t digestMismatchCount() const
    {
        return digest_mismatches_.value();
    }
    /** Verify-on-read hits: blocks found damaged on disk. */
    uint64_t integrityErrorCount() const
    {
        return path_.integrityErrorCount();
    }
    /** Commands refused with ScsiStatus::Busy by the admission gate
     *  (config.admission; DESIGN.md §12). */
    uint64_t shedCount() const { return admission_gate_.shedCount(); }
    /** Commands that passed the gate. */
    uint64_t admittedCount() const
    {
        return admission_gate_.admittedCount();
    }
    /** Target-resident time per command: dispatch to response. */
    const sim::Sampler &serverTime() const
    {
        return server_time_.raw();
    }
    double cacheHitRatio() const { return path_.cacheHitRatio(); }
    /** Per-layer CPU attribution of the target's kernel TCP path. */
    const TcpHostDriver &driver() const { return driver_; }
    /** @} */

  private:
    sim::Task<> onPdu(std::shared_ptr<Pdu> pdu, bool tainted,
                      osmodel::CpuLease &lease);
    sim::Task<> handleCommand(std::shared_ptr<Pdu> cmd, bool tainted);
    sim::Task<ScsiStatus> doRead(
        osmodel::CpuLease &lease, const Pdu &cmd,
        std::shared_ptr<std::vector<uint8_t>> &data_out);
    sim::Task<ScsiStatus> doWrite(osmodel::CpuLease &lease,
                                  const Pdu &cmd);
    sim::Task<> respond(osmodel::CpuLease &lease, const Pdu &cmd,
                        ScsiStatus status,
                        std::shared_ptr<std::vector<uint8_t>> data,
                        uint64_t data_len);

    sim::Simulation &sim_;
    TargetConfig config_;
    osmodel::Node node_;

    /// Registry path prefix ("iscsi.tgt", uniquified); must precede
    /// the metric references so it is initialised first.
    std::string metric_prefix_;

    storage::BlockPath path_; ///< registers under metric_prefix_

    net::TcpStream tcp_;
    TcpHostDriver driver_;

    sim::CounterHandle reads_;
    sim::CounterHandle writes_;
    sim::CounterHandle digest_mismatches_;
    sim::SamplerHandle server_time_;

    /** Overload-control gate in front of the data path
     *  (config_.admission; DESIGN.md §12). */
    storage::AdmissionGate admission_gate_;
};

} // namespace v3sim::iscsi

#endif // V3SIM_ISCSI_TARGET_HH
