/**
 * @file
 * iSCSI target — a storage node serving SCSI commands over TCP
 * (DESIGN.md §11).
 *
 * Deliberately the same machine as a V3 node: the same
 * storage::StorageNode base — 2 CPUs, the same disks, the same
 * admission gate and the same storage::BlockPath (block cache and
 * policy, miss coalescing, stale-fill guard, verify-on-read and
 * commit-before-complete) — so the VI-vs-iSCSI comparison isolates
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
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/storage_node.hh"

namespace v3sim::iscsi
{

/** Static configuration of one iSCSI target node: the shared node
 *  fields (the block path's and the admission gate's among them),
 *  so backend comparisons are apples to apples. The digest is
 *  software CRC32C (see InitiatorConfig::digest_per_kb), twice V3's
 *  per-KB cost. */
struct TargetConfig : storage::StorageNodeConfig
{
    TargetConfig() : StorageNodeConfig("tgt", sim::usecs(0.08)) {}
};

/** One iSCSI storage node (single session: one initiator). */
class Target : public storage::StorageNode
{
  public:
    Target(sim::Simulation &sim, net::Fabric &fabric,
           TargetConfig config);

    const TargetConfig &config() const { return config_; }

    /** The port initiators connect() to. */
    net::PortId port() const { return tcp_.port(); }

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

    TargetConfig config_;
    net::TcpStream tcp_;
    TcpHostDriver driver_;
};

} // namespace v3sim::iscsi

#endif // V3SIM_ISCSI_TARGET_HH
