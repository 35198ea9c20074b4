#include "iscsi/initiator.hh"

#include <algorithm>
#include <utility>

namespace v3sim::iscsi
{

using osmodel::CpuCat;

Initiator::Initiator(osmodel::Node &host, net::Fabric &fabric,
                     net::PortId target_port, InitiatorConfig config)
    : Session(host, "iscsi.init"),
      target_port_(target_port),
      config_(config),
      tcp_(host.sim().queue(), fabric, host.sim().metrics(),
           metric_prefix_ + ".tcp"),
      driver_(host, tcp_, host.sim().metrics(), metric_prefix_,
              [this](std::shared_ptr<Pdu> pdu, bool tainted,
                     osmodel::CpuLease &lease) {
                  return onPdu(std::move(pdu), tainted, lease);
              }),
      slots_(host.sim().queue(), config_.max_outstanding),
      digest_retries_(host.sim().metrics().counter(
          metric_prefix_ + ".digest_retries")),
      errors_(host.sim().metrics().counter(metric_prefix_ +
                                           ".errors")),
      busy_(host.sim().metrics().counter(metric_prefix_ + ".busy"))
{}

sim::Task<bool>
Initiator::connect()
{
    co_await tcp_.connect(target_port_);
    // Login negotiates the volume and learns its capacity. Setup
    // path, outside every measurement window: no CPU charges.
    auto pdu = std::make_shared<Pdu>();
    pdu->op = PduOp::LoginRequest;
    pdu->header_digest = pduHeaderDigest(*pdu);
    net::TcpMessage message;
    message.bytes = pduWireBytes(*pdu);
    message.payload = std::move(pdu);
    tcp_.sendMessage(std::move(message));
    co_await login_done_.wait();
    co_return capacity_ > 0;
}

sim::Task<bool>
Initiator::io(bool is_write, uint64_t offset, uint64_t len,
              sim::Addr buffer, uint64_t tenant)
{
    co_await slots_.acquire(buffer);
    const sim::Tick start = node_.sim().now();

    bool ok = false;
    ScsiStatus last = ScsiStatus::Good;
    for (uint32_t attempt = 0;
         attempt <= config_.max_digest_retries; ++attempt) {
        if (attempt > 0)
            digest_retries_.increment();
        const ScsiStatus status =
            co_await issueOnce(is_write, offset, len, buffer, tenant);
        last = status;
        if (status == ScsiStatus::Good) {
            ok = true;
            break;
        }
        // Only digest failures are retryable; CheckCondition,
        // IntegrityError and Busy are definitive verdicts from the
        // target (retrying a shed command would re-feed the
        // overload the gate is bleeding off).
        if (status != ScsiStatus::DigestError)
            break;
    }
    if (!ok) {
        if (last == ScsiStatus::Busy)
            busy_.increment();
        errors_.increment();
    }

    record(start);
    slots_.release();
    co_return ok;
}

sim::Task<ScsiStatus>
Initiator::issueOnce(bool is_write, uint64_t offset, uint64_t len,
                     sim::Addr buffer, uint64_t tenant)
{
    Pending pending;
    pending.is_write = is_write;
    pending.len = len;
    pending.buffer = buffer;
    const uint64_t itt = next_itt_++;
    pending_.insert(itt, &pending);

    // Arbitration key: the user buffer address — unique per
    // concurrent submitter and pure content (DESIGN.md §8.3).
    osmodel::CpuLease lease = co_await node_.cpus().acquire(
        osmodel::CpuPool::kNormalPriority, buffer);
    // Issue-side syscall crossing into the kernel initiator.
    const sim::Tick sys = node_.costs().syscall;
    co_await lease.run(sys, CpuCat::Kernel);
    driver_.addSyscallNs(sys);
    // Down through the SCSI class/port/filter stack to the miniport.
    const sim::Tick stack = config_.scsi_stack;
    co_await lease.run(stack, CpuCat::Kernel);
    driver_.addProtoNs(stack);
    const sim::Tick build = config_.request_build;
    co_await lease.run(build, CpuCat::Other);
    driver_.addProtoNs(build);

    auto pdu = std::make_shared<Pdu>();
    pdu->op = PduOp::ScsiCommand;
    pdu->itt = itt;
    pdu->is_write = is_write;
    pdu->offset = offset;
    pdu->xfer_len = len;
    pdu->tenant = tenant;
    if (is_write) {
        // Immediate data: a fresh copy of the user buffer every
        // attempt (the damage model mutates delivered vectors, so a
        // retry must never re-send the same one — see pdu.hh).
        pdu->data_len = len;
        sim::MemorySpace &mem = node_.memory();
        if (!mem.phantom()) {
            pdu->data =
                std::make_shared<std::vector<uint8_t>>(len);
            mem.read(buffer, pdu->data->data(), len);
            pdu->data_digest = pduDataDigest(*pdu->data);
            pdu->data_digest_valid = true;
        }
        const sim::Tick dig =
            sim::perKbTicks(len, config_.digest_per_kb);
        co_await lease.run(dig, CpuCat::Other);
        driver_.addCrcNs(dig);
    }
    pdu->header_digest = pduHeaderDigest(*pdu);

    const uint64_t wire = pduWireBytes(*pdu);
    co_await driver_.chargeTx(lease, wire);
    net::TcpMessage message;
    message.bytes = wire;
    message.payload = std::move(pdu);
    // Same-tick send sequencing key: the user buffer — unique per
    // in-flight command on this stream (DESIGN.md §8.3).
    message.order_key = buffer;
    tcp_.sendMessage(std::move(message));
    node_.cpus().release();

    const ScsiStatus status = co_await pending.done.wait();
    pending_.erase(itt);
    co_return status;
}

sim::Task<>
Initiator::onPdu(std::shared_ptr<Pdu> pdu, bool tainted,
                 osmodel::CpuLease &lease)
{
    const sim::Tick parse = config_.response_parse;
    co_await lease.run(parse, CpuCat::Other);
    driver_.addProtoNs(parse);
    if (pdu->op != PduOp::LoginResponse) {
        // IRP completion routing back up the SCSI filter stack.
        const sim::Tick stack = config_.scsi_stack;
        co_await lease.run(stack, CpuCat::Kernel);
        driver_.addProtoNs(stack);
    }

    if (pdu->op == PduOp::LoginResponse) {
        capacity_ = pdu->volume_capacity;
        if (!login_done_.ready())
            login_done_.set();
        co_return;
    }

    // Apply in-flight damage, then verify the RFC 3720 digests (the
    // Internet checksum below already missed it — that is the point
    // of end-to-end digests).
    bool damaged;
    if (pdu->data && !pdu->data->empty()) {
        if (tainted)
            (*pdu->data)[0] ^= 0xFF;
        damaged = pdu->data_digest_valid &&
                  pduDataDigest(*pdu->data) != pdu->data_digest;
    } else {
        damaged = tainted;
    }
    if (pdu->data_len > 0) {
        const sim::Tick dig =
            sim::perKbTicks(pdu->data_len, config_.digest_per_kb);
        co_await lease.run(dig, CpuCat::Other);
        driver_.addCrcNs(dig);
    }

    const auto *found = pending_.find(pdu->itt);
    if (found == nullptr)
        co_return; // stale tag (late duplicate after a retry)
    Pending &cmd = **found;

    const ScsiStatus status =
        damaged ? ScsiStatus::DigestError : pdu->status;
    if (status == ScsiStatus::Good && !cmd.is_write && pdu->data &&
        !node_.memory().phantom()) {
        // Content effect of the kernel->user socket copy the driver
        // already charged for this PDU.
        node_.memory().write(
            cmd.buffer, pdu->data->data(),
            std::min<uint64_t>(cmd.len, pdu->data->size()));
    }
    // Wake the blocked application thread.
    const sim::Tick wake = node_.costs().context_switch;
    co_await lease.run(wake, CpuCat::Kernel);
    driver_.addSyscallNs(wake);
    cmd.done.set(status);
}

} // namespace v3sim::iscsi
