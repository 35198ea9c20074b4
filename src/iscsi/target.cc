#include "iscsi/target.hh"

#include <utility>

namespace v3sim::iscsi
{

using osmodel::CpuCat;

Target::Target(sim::Simulation &sim, net::Fabric &fabric,
               TargetConfig config)
    : StorageNode(sim, config, "iscsi.tgt"),
      config_(std::move(config)),
      tcp_(sim.queue(), fabric, sim.metrics(), metric_prefix_ + ".tcp"),
      driver_(node_, tcp_, sim.metrics(), metric_prefix_,
              [this](std::shared_ptr<Pdu> pdu, bool tainted,
                     osmodel::CpuLease &lease) {
                  return onPdu(std::move(pdu), tainted, lease);
              })
{
    tcp_.listen();
}

sim::Task<>
Target::onPdu(std::shared_ptr<Pdu> pdu, bool tainted,
              osmodel::CpuLease &lease)
{
    // Dispatch only: the interrupted CPU hands the command to a
    // request-manager coroutine that competes for CPUs at normal
    // priority (the user-level target daemon).
    (void)lease;
    sim::spawn(handleCommand(std::move(pdu), tainted));
    co_return;
}

sim::Task<>
Target::handleCommand(std::shared_ptr<Pdu> cmd, bool tainted)
{
    const sim::Tick arrival = node_.sim().now();
    // Arbitration key: the initiator task tag — request content
    // (assigned by the sequential initiator), and unlike the byte
    // offset *unique* among in-flight commands on this session, as
    // DESIGN.md §8.3 requires. Two concurrent commands for the same
    // random offset would otherwise tie and fall back to park order.
    osmodel::CpuLease lease = co_await node_.cpus().acquire(
        osmodel::CpuPool::kNormalPriority, cmd->itt);
    // Wake the user-level daemon, then parse the PDU.
    const sim::Tick wake = node_.costs().context_switch;
    co_await lease.run(wake, CpuCat::Kernel);
    driver_.addSyscallNs(wake);
    co_await lease.run(config_.parse_cost, CpuCat::Other);
    driver_.addProtoNs(config_.parse_cost);

    if (cmd->op == PduOp::LoginRequest) {
        // Setup path: negotiate the volume, report its capacity.
        auto reply = std::make_shared<Pdu>();
        reply->op = PduOp::LoginResponse;
        reply->itt = cmd->itt;
        reply->volume = cmd->volume;
        reply->volume_capacity = volumeCapacity(cmd->volume);
        reply->header_digest = pduHeaderDigest(*reply);
        net::TcpMessage message;
        message.bytes = pduWireBytes(*reply);
        message.order_key = cmd->itt;
        message.payload = std::move(reply);
        tcp_.sendMessage(std::move(message));
        node_.cpus().release();
        co_return;
    }

    // Apply in-flight damage and verify digests before anything
    // else: a damaged payload must never reach the cache or a disk
    // (the same staging-check rule as V3Server::doWrite).
    bool damaged;
    if (cmd->data && !cmd->data->empty()) {
        if (tainted)
            (*cmd->data)[0] ^= 0xFF;
        damaged = cmd->data_digest_valid &&
                  pduDataDigest(*cmd->data) != cmd->data_digest;
    } else {
        damaged = tainted;
    }
    if (cmd->data_len > 0) {
        const sim::Tick dig =
            sim::perKbTicks(cmd->data_len, config_.digest_per_kb);
        co_await lease.run(dig, CpuCat::Other);
        driver_.addCrcNs(dig);
    }

    // Overload control (DESIGN.md §12): undamaged commands pass the
    // same admission gate V3Server runs, holding no CPU while
    // parked; a shed command is refused fast with Busy (SCSI TASK
    // SET FULL) and the initiator fails it without retrying. The
    // arbitration key is the initiator task tag: command content,
    // unique among in-flight commands on this session.
    bool gated = false;
    if (config_.admission.enabled && !damaged) {
        node_.cpus().release();
        const bool admitted = co_await admission_gate_.admit(
            cmd->tenant, cmd->xfer_len, cmd->itt);
        lease = co_await node_.cpus().acquire(
            osmodel::CpuPool::kNormalPriority, cmd->itt);
        if (!admitted) {
            co_await respond(lease, *cmd, ScsiStatus::Busy, nullptr,
                             0);
            node_.cpus().release();
            co_return;
        }
        gated = true;
    }

    ScsiStatus status;
    std::shared_ptr<std::vector<uint8_t>> data;
    if (damaged) {
        digest_mismatches_.increment();
        status = ScsiStatus::DigestError;
    } else if (!validRange(cmd->volume, cmd->offset, cmd->xfer_len,
                           cmd->is_write)) {
        status = ScsiStatus::CheckCondition;
    } else if (cmd->is_write) {
        writes_.increment();
        status = co_await doWrite(lease, *cmd);
    } else {
        reads_.increment();
        status = co_await doRead(lease, *cmd, data);
    }

    if (status == ScsiStatus::Good && !cmd->is_write) {
        co_await respond(lease, *cmd, status, std::move(data),
                         cmd->xfer_len);
    } else {
        co_await respond(lease, *cmd, status, nullptr, 0);
    }
    server_time_.add(static_cast<double>(node_.sim().now() - arrival));
    node_.cpus().release();
    if (gated)
        admission_gate_.release();
}

sim::Task<ScsiStatus>
Target::doRead(osmodel::CpuLease &lease, const Pdu &cmd,
               std::shared_ptr<std::vector<uint8_t>> &data_out)
{
    sim::MemorySpace &mem = node_.memory();
    const storage::BlockPath::ReadResult got =
        co_await path_.read(lease, cmd.itt, cmd.offset, cmd.xfer_len);
    if (got.status == storage::ReadStatus::Ok) {
        // Assemble the response data segment (store-and-forward: no
        // RDMA to place cache frames into remote buffers).
        if (!mem.phantom()) {
            data_out =
                std::make_shared<std::vector<uint8_t>>(cmd.xfer_len);
        }
        uint64_t pos = 0;
        for (const storage::BlockPath::Piece &piece : got.pieces) {
            if (data_out)
                mem.read(piece.addr, data_out->data() + pos, piece.len);
            co_await lease.run(
                sim::perKbTicks(piece.len, config_.memcpy_per_kb),
                CpuCat::Other);
            pos += piece.len;
        }
    }
    path_.release(got);
    if (got.status == storage::ReadStatus::IntegrityError)
        co_return ScsiStatus::IntegrityError;
    co_return got.status == storage::ReadStatus::Ok
        ? ScsiStatus::Good
        : ScsiStatus::CheckCondition;
}

sim::Task<ScsiStatus>
Target::doWrite(osmodel::CpuLease &lease, const Pdu &cmd)
{
    sim::MemorySpace &mem = node_.memory();

    // Stage the PDU's data segment into node memory (digest already
    // verified by handleCommand).
    const sim::Addr staging = mem.allocate(cmd.xfer_len);
    if (cmd.data && !mem.phantom())
        mem.write(staging, cmd.data->data(), cmd.xfer_len);
    co_await lease.run(
        sim::perKbTicks(cmd.xfer_len, config_.memcpy_per_kb),
        CpuCat::Other);

    // Write through the cache and commit to disk before responding
    // (durability, §5.2).
    const bool ok = co_await path_.write(lease, cmd.itt, cmd.offset,
                                         cmd.xfer_len, staging);
    mem.free(staging);
    co_return ok ? ScsiStatus::Good : ScsiStatus::CheckCondition;
}

sim::Task<>
Target::respond(osmodel::CpuLease &lease, const Pdu &cmd,
                ScsiStatus status,
                std::shared_ptr<std::vector<uint8_t>> data,
                uint64_t data_len)
{
    auto pdu = std::make_shared<Pdu>();
    pdu->op = (status == ScsiStatus::Good && !cmd.is_write)
                  ? PduOp::DataIn
                  : PduOp::ScsiResponse;
    pdu->itt = cmd.itt;
    pdu->is_write = cmd.is_write;
    pdu->volume = cmd.volume;
    pdu->offset = cmd.offset;
    pdu->xfer_len = cmd.xfer_len;
    pdu->status = status;
    pdu->data = std::move(data);
    pdu->data_len = data_len;
    if (pdu->data && !pdu->data->empty()) {
        pdu->data_digest = pduDataDigest(*pdu->data);
        pdu->data_digest_valid = true;
    }
    if (data_len > 0) {
        const sim::Tick dig =
            sim::perKbTicks(data_len, config_.digest_per_kb);
        co_await lease.run(dig, CpuCat::Other);
        driver_.addCrcNs(dig);
    }
    pdu->header_digest = pduHeaderDigest(*pdu);

    co_await lease.run(config_.complete_cost, CpuCat::Other);
    const uint64_t wire = pduWireBytes(*pdu);
    co_await driver_.chargeTx(lease, wire);
    net::TcpMessage message;
    message.bytes = wire;
    // Same-tick send sequencing key: the initiator's transfer tag —
    // content of the reply, unique among in-flight commands on this
    // connection (DESIGN.md §8.3).
    message.order_key = cmd.itt;
    message.payload = std::move(pdu);
    tcp_.sendMessage(std::move(message));
}

} // namespace v3sim::iscsi
