/**
 * @file
 * Host-cost glue between a net::TcpStream and an osmodel::Node — the
 * kernel network stack of the rival transport (DESIGN.md §11).
 *
 * net/ cannot depend on osmodel/, so the transport only *counts* its
 * work; this driver converts the counts into charged CPU time on the
 * node, attributed per layer so the VI-vs-iSCSI host-overhead gap is
 * decomposable. Both iSCSI endpoints (initiator and target) embed
 * one.
 *
 * Receive path: every packet arrival while the stream is armed
 * raises a real interrupt on the node (osmodel::InterruptController
 * charges the 5-10 us entry/exit the paper measures); the handler
 * drains the stream one packet at a time, charging per-segment
 * TCP/IP protocol work and the software Internet checksum over
 * received payload, then hands fully reassembled PDUs to the owner
 * after charging the kernel-to-user socket copy. One-shot arming
 * means back-to-back arrivals coalesce into one interrupt — iSCSI
 * gets the same batching courtesy the VI completion queues enjoy, so
 * the comparison is not rigged.
 *
 * Transmit path: the owner calls chargeTx() while holding a CPU
 * lease; it charges per-segment protocol work, the user-to-kernel
 * socket copy, and the checksum for the whole PDU at issue time.
 * (Segments the congestion window defers go out later at no further
 * charge — the total is identical, only the timing is shifted
 * earlier; the simplification is documented in DESIGN.md §11.)
 *
 * Per-layer nanosecond counters land in the registry under
 * `<prefix>.cpu.{intr,proto,copy,crc,syscall}_ns`; rival benches
 * read them back from the metrics snapshot to attribute the
 * host-overhead gap.
 */

#ifndef V3SIM_ISCSI_TCP_HOST_HH
#define V3SIM_ISCSI_TCP_HOST_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "iscsi/pdu.hh"
#include "net/tcp_stream.hh"
#include "osmodel/node.hh"
#include "sim/metrics.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace v3sim::iscsi
{

/** Charges a node's CPUs for the TCP work a stream counts. */
class TcpHostDriver
{
  public:
    /** PDU sink; runs on the interrupted CPU holding @p lease. */
    using Deliver = std::function<sim::Task<>(
        std::shared_ptr<Pdu> pdu, bool tainted,
        osmodel::CpuLease &lease)>;

    /**
     * Hooks @p tcp's receive side up to @p node's interrupt
     * controller and registers the per-layer counters under
     * @p metric_prefix (already uniquified by the owner).
     */
    TcpHostDriver(osmodel::Node &node, net::TcpStream &tcp,
                  sim::MetricRegistry &metrics,
                  const std::string &metric_prefix, Deliver deliver);

    TcpHostDriver(const TcpHostDriver &) = delete;
    TcpHostDriver &operator=(const TcpHostDriver &) = delete;

    /**
     * Charges the transmit-side kernel costs for one PDU of
     * @p msg_bytes (call before TcpStream::sendMessage, holding a
     * CPU lease).
     */
    sim::Task<> chargeTx(osmodel::CpuLease &lease, uint64_t msg_bytes);

    /** @name Layer attribution by the owner
     * The owner charges its own lease and records the time here so
     * every charged tick lands in exactly one layer counter.
     * @{ */
    void addProtoNs(sim::Tick d) { proto_ns_.increment(ns(d)); }
    void addCrcNs(sim::Tick d) { crc_ns_.increment(ns(d)); }
    void addSyscallNs(sim::Tick d) { syscall_ns_.increment(ns(d)); }
    /** @} */

  private:
    struct Delivered
    {
        std::shared_ptr<Pdu> pdu;
        uint64_t bytes = 0;
        bool tainted = false;
    };

    static uint64_t ns(sim::Tick d) { return static_cast<uint64_t>(d); }

    void onRxNotify();
    sim::Task<> drain(osmodel::CpuLease lease);

    osmodel::Node &node_;
    net::TcpStream &tcp_;
    Deliver deliver_;
    std::deque<Delivered> delivered_;

    sim::CounterHandle intr_ns_;
    sim::CounterHandle proto_ns_;
    sim::CounterHandle copy_ns_;
    sim::CounterHandle crc_ns_;
    sim::CounterHandle syscall_ns_;
};

} // namespace v3sim::iscsi

#endif // V3SIM_ISCSI_TCP_HOST_HH
