/**
 * @file
 * iSCSI initiator — the kernel software-initiator path on the
 * database host, as a dsa::Session (DESIGN.md §11).
 *
 * This is the commercial rival the paper's VI transport competes
 * with: every I/O goes through a syscall into the kernel, the iSCSI
 * driver builds a CDB-carrying PDU (writes attach immediate data
 * copied out of the user buffer), the TCP stack segments it, and
 * each response arrives by interrupt, gets checksummed, digested and
 * copied back up to user space before a context switch wakes the
 * issuing thread. Every one of those costs is charged on the host's
 * CPUs and attributed per layer (see iscsi/tcp_host.hh), so the
 * host-overhead gap to kDSA/wDSA/cDSA is measurable and
 * decomposable, not asserted.
 *
 * Reliability split: TCP below retransmits lost segments invisibly;
 * this layer handles what TCP cannot see — payload damage that
 * slipped past the Internet checksum is caught by the RFC 3720
 * digests and retried as a whole command with a fresh task tag (block
 * I/O is idempotent, so the target keeps no per-task retry state).
 * IntegrityError from the target (verify-on-read) and
 * CheckCondition fail the I/O without retry, mirroring
 * dsa::DsaClient semantics.
 */

#ifndef V3SIM_ISCSI_INITIATOR_HH
#define V3SIM_ISCSI_INITIATOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "dsa/session.hh"
#include "iscsi/pdu.hh"
#include "iscsi/tcp_host.hh"
#include "net/fabric.hh"
#include "net/tcp_stream.hh"
#include "osmodel/node.hh"
#include "sim/metrics.hh"
#include "sim/resource.hh"
#include "sim/task.hh"
#include "util/ordered_index.hh"

namespace v3sim::iscsi
{

/** Static initiator parameters. */
struct InitiatorConfig
{
    /** Outstanding-command limit (the session queue depth). */
    uint32_t max_outstanding = 64;

    /** Digest-failure retries before the I/O fails. */
    static constexpr uint32_t max_digest_retries = 4;

    /** @name Driver CPU costs (charged on the host CPUs) @{ */
    /** One-way traversal of the SCSI class/port/filter-driver stack
     *  the iSCSI miniport sits under (IRP allocation, queueing and
     *  completion routing). Charged once going down at issue and
     *  once coming back up at completion — the same layering bill
     *  wDSA pays (DESIGN.md §11), which iSCSI pays *in addition to*
     *  the TCP path below it. */
    static constexpr sim::Tick scsi_stack = sim::usecs(7.0);
    /** Building the command PDU (CDB + BHS + task bookkeeping). */
    static constexpr sim::Tick request_build = sim::usecs(4.0);
    /** Parsing a response PDU and resolving its task tag. */
    static constexpr sim::Tick response_parse = sim::usecs(4.0);
    /** Software CRC32C for the RFC 3720 digests, per KB. Higher than
     *  the V3 server's 0.04 us/KB: the initiator-side CRC runs on a
     *  general-purpose host without the table locality of the
     *  dedicated storage node loop. */
    static constexpr sim::Tick digest_per_kb = sim::usecs(0.08);
    /** @} */
};

/** One iSCSI session from a host to a target. */
class Initiator : public dsa::Session
{
  public:
    /** Attaches a NIC port for @p host on @p fabric, for the target
     *  at @p target_port. Metrics land under a uniquified
     *  "iscsi.init" prefix. */
    Initiator(osmodel::Node &host, net::Fabric &fabric,
              net::PortId target_port, InitiatorConfig config = {});

    /** TCP handshake plus iSCSI login; resolves true when the target
     *  reported a usable volume. Call before faults are armed. */
    sim::Task<bool> connect() override;

    uint64_t capacity() const override { return capacity_; }

    /** @name Statistics @{ */
    /** TCP segment retransmissions on the session's stream. */
    uint64_t
    retransmitCount() const override
    {
        return tcp_.retransmitCount();
    }
    /** Whole-command retries after a digest failure. */
    uint64_t digestRetryCount() const
    {
        return digest_retries_.value();
    }
    /** I/Os that ultimately failed (status or retries exhausted). */
    uint64_t errorCount() const { return errors_.value(); }
    /** @} */

  private:
    /** One outstanding command awaiting its response. */
    struct Pending
    {
        bool is_write = false;
        uint64_t len = 0;
        sim::Addr buffer = sim::kNullAddr;
        sim::Completion<ScsiStatus> done;
    };

    sim::Task<bool> io(bool is_write, uint64_t offset, uint64_t len,
                       sim::Addr buffer, uint64_t tenant) override;
    sim::Task<ScsiStatus> issueOnce(bool is_write, uint64_t offset,
                                    uint64_t len, sim::Addr buffer,
                                    uint64_t tenant);
    sim::Task<> onPdu(std::shared_ptr<Pdu> pdu, bool tainted,
                      osmodel::CpuLease &lease);

    net::PortId target_port_;
    InitiatorConfig config_;

    net::TcpStream tcp_;
    TcpHostDriver driver_;

    /** Outstanding commands by task tag. */
    util::OrderedIndex<uint64_t, Pending *> pending_;
    uint64_t next_itt_ = 1;
    /** Bounds outstanding commands at max_outstanding; keyed
     *  final-band grants keep saturated admission content-ordered
     *  (DESIGN.md §8.3). */
    sim::Semaphore slots_;

    sim::Completion<> login_done_;
    uint64_t capacity_ = 0;

    sim::CounterHandle digest_retries_;
    sim::CounterHandle errors_;
    /** I/Os the target's admission gate refused with Busy. Failed
     *  immediately, never retried (deliberate backpressure). */
    sim::CounterHandle busy_;
};

} // namespace v3sim::iscsi

#endif // V3SIM_ISCSI_INITIATOR_HH
