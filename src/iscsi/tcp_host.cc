#include "iscsi/tcp_host.hh"

#include <utility>

namespace v3sim::iscsi
{

TcpHostDriver::TcpHostDriver(osmodel::Node &node, net::TcpStream &tcp,
                             sim::MetricRegistry &metrics,
                             const std::string &metric_prefix,
                             Deliver deliver)
    : node_(node), tcp_(tcp), deliver_(std::move(deliver)),
      intr_ns_(metrics.counter(metric_prefix + ".cpu.intr_ns")),
      proto_ns_(metrics.counter(metric_prefix + ".cpu.proto_ns")),
      copy_ns_(metrics.counter(metric_prefix + ".cpu.copy_ns")),
      crc_ns_(metrics.counter(metric_prefix + ".cpu.crc_ns")),
      syscall_ns_(metrics.counter(metric_prefix + ".cpu.syscall_ns"))
{
    tcp_.setMessageHandler([this](net::TcpMessage message) {
        delivered_.push_back(Delivered{
            std::static_pointer_cast<Pdu>(message.payload),
            message.bytes, message.tainted});
    });
    tcp_.setRxNotify([this] { onRxNotify(); });
    tcp_.armRx();
}

sim::Task<>
TcpHostDriver::chargeTx(osmodel::CpuLease &lease, uint64_t msg_bytes)
{
    const osmodel::HostCosts &costs = node_.costs();
    const sim::Tick proto =
        costs.tcp_segment *
        static_cast<sim::Tick>(tcp_.segmentCount(msg_bytes));
    co_await lease.run(proto, osmodel::CpuCat::Kernel);
    proto_ns_.increment(ns(proto));
    const sim::Tick copy =
        sim::perKbTicks(msg_bytes, costs.sock_copy_per_kb);
    co_await lease.run(copy, osmodel::CpuCat::Kernel);
    copy_ns_.increment(ns(copy));
    const sim::Tick crc =
        sim::perKbTicks(msg_bytes, costs.inet_checksum_per_kb);
    co_await lease.run(crc, osmodel::CpuCat::Kernel);
    crc_ns_.increment(ns(crc));
}

void
TcpHostDriver::onRxNotify()
{
    intr_ns_.increment(ns(node_.costs().interrupt));
    // Arbitration key: the stream's own port — stable per driver
    // (DESIGN.md §8.3), so same-tick interrupts from several NICs
    // admit in port order, not arrival order.
    node_.interrupts().raise(
        [this](osmodel::CpuLease lease) {
            return drain(std::move(lease));
        },
        tcp_.port());
}

sim::Task<>
TcpHostDriver::drain(osmodel::CpuLease lease)
{
    const osmodel::HostCosts &costs = node_.costs();
    for (;;) {
        if (tcp_.rxPending()) {
            const net::TcpStream::Work work = tcp_.processOnePacket();
            const sim::Tick proto =
                costs.tcp_segment *
                static_cast<sim::Tick>(work.data_segs + work.ack_segs +
                                       work.acks_sent + work.segs_sent);
            if (proto > 0) {
                co_await lease.run(proto, osmodel::CpuCat::Kernel);
                proto_ns_.increment(ns(proto));
            }
            if (work.data_bytes > 0) {
                const sim::Tick crc = sim::perKbTicks(
                    work.data_bytes, costs.inet_checksum_per_kb);
                co_await lease.run(crc, osmodel::CpuCat::Kernel);
                crc_ns_.increment(ns(crc));
            }
            continue;
        }
        // No packet in sight from this (normal-band) vantage point —
        // but whether one lands later on this same tick is a
        // tie-shuffled race, and the next decision (deliver a
        // reassembled PDU, or re-arm and leave) must not hinge on it:
        // the PDU copy charges CPU, so picking it before vs. after a
        // same-tick arrival shifts every later timestamp. Re-take the
        // decision from the tick's final band, where the full arrival
        // set is known (DESIGN.md §8.3).
        co_await node_.sim().queue().finalBand();
        if (tcp_.rxPending())
            continue;
        if (!delivered_.empty()) {
            Delivered d = std::move(delivered_.front());
            delivered_.pop_front();
            const sim::Tick copy =
                sim::perKbTicks(d.bytes, costs.sock_copy_per_kb);
            co_await lease.run(copy, osmodel::CpuCat::Kernel);
            copy_ns_.increment(ns(copy));
            co_await deliver_(std::move(d.pdu), d.tainted, lease);
            continue;
        }
        break;
    }
    // Re-arm last: packets that arrived while we were draining were
    // consumed above; anything after this line raises a fresh
    // interrupt (one-shot coalescing, like a VI completion queue).
    tcp_.armRx();
}

} // namespace v3sim::iscsi
