#include "v3_server.hh"

#include <algorithm>
#include <cassert>

#include "util/logging.hh"

namespace v3sim::storage
{

using osmodel::CpuCat;
using osmodel::CpuLease;

namespace
{

/**
 * Determinism arbitration key (DESIGN.md §8.3): hash-combines a
 * per-connection content value (the connection's unique staging base)
 * with a request-content value, so same-tick contenders from
 * different connections never tie. Ties fall back to arrival order,
 * which the tie-shuffle is free to permute — keys must therefore be
 * unique among plausible same-tick contenders.
 */
uint64_t
orderKey(uint64_t conn_salt, uint64_t v)
{
    return conn_salt * 0x9e3779b97f4a7c15ull ^ v;
}

/** One connection's write-staging area (dsa/protocol.hh). */
constexpr uint64_t kStagingBytes =
    uint64_t{dsa::kStagingSlots} * dsa::kStagingSlotBytes;

} // namespace

V3Server::V3Server(sim::Simulation &sim, net::Fabric &fabric,
                   V3ServerConfig config)
    : StorageNode(sim, config, "server." + config.name),
      fabric_(fabric),
      config_(std::move(config)),
      retransmit_hits_(
          sim.metrics().counter(metric_prefix_ + ".retransmit_hits")),
      crashes_(sim.metrics().counter(metric_prefix_ + ".crashes")),
      restarts_(sim.metrics().counter(metric_prefix_ + ".restarts")),
      bad_requests_(sim.metrics().counter(
          metric_prefix_ + ".integrity_bad_requests"))
{
    // The server manages its own NIC registration: the cache, the
    // staging areas and the message buffers are registered once at
    // startup, so the NIC must admit the whole footprint (the server
    // side of section 3.1's registration problem — a server-class
    // configuration, unlike the 1 GB client cLan default).
    vi::ViCosts nic_costs;
    nic_costs.max_registered_bytes =
        config_.cache_bytes + 64ull * 1024 * 1024 + 32 * kStagingBytes;
    nic_ = std::make_unique<vi::ViNic>(sim, fabric, node_.memory(),
                                       config_.name + ".nic",
                                       nic_costs);
    nic_->setRdmaObserver([this](const vi::ViNic::RdmaEvent &event) {
        onRdmaEvent(event);
    });

    if (BlockCache *cache = path_.cache()) {
        const auto reg = nic_->registry().registerMemory(
            cache->frameBase(), cache->frameBytes(),
            /*pre_pinned=*/true);
        assert(reg.has_value() && "cache must fit the server NIC");
        cache_handle_ = reg->handle;
    }

    nic_->setAcceptHandler(
        [this](net::PortId remote_port, vi::EndpointId remote_ep) {
            return accept(remote_port, remote_ep);
        });
}

void
V3Server::crash()
{
    if (crashed_)
        return;
    crashed_ = true;
    crashes_.increment();
    V3LOG(Info, "v3") << config_.name << ": node crash";

    // The NIC leaves the fabric: nothing in or out, and packets
    // already propagating towards the node are lost.
    fabric_.setPortUp(nic_->port(), false);

    // Every connection dies. breakConnection flushes posted receives
    // with error status, which pops each serviceLoop out of its CQ
    // wait; alive=false makes handlers already past the CQ drop
    // their completions (postCompletion checks it) and abandon
    // writes before the disk commit.
    for (auto &conn : connections_) {
        if (!conn->alive)
            continue;
        conn->alive = false;
        nic_->breakConnection(*conn->ep);
        releaseConnection(*conn);
    }

    // Volatile cache contents are gone (section 2.1: main-memory
    // buffer cache). Pinned frames are skipped — in-flight DMA — but
    // their requests can no longer complete towards any client.
    if (BlockCache *cache = path_.cache())
        cache->invalidateAll();

    // Admission waiters park off-CPU, so nothing above woke them:
    // shed them all (their Busy completions are dropped because the
    // connections are already dead) and zero the gate.
    admission_gate_.shedAll();
}

void
V3Server::restart()
{
    if (!crashed_)
        return;
    crashed_ = false;
    ++boot_epoch_;
    restarts_.increment();
    V3LOG(Info, "v3") << config_.name << ": node restart";
    // Cold restart: port back up; the accept handler armed at
    // construction still is, so new connections are admitted
    // immediately. The cache is already empty from crash().
    fabric_.setPortUp(nic_->port(), true);
}

void
V3Server::releaseConnection(Connection &conn)
{
    if (conn.released)
        return;
    conn.released = true;
    // Registration capacity is the scarce server resource (section
    // 3.1): every abandoned connection must give its slice back, or
    // reconnect churn eventually exhausts the NIC and the node
    // refuses all new clients.
    nic_->registry().deregister(conn.req_buf_handle);
    nic_->registry().deregister(conn.reply_handle);
    nic_->registry().deregister(conn.flag_handle);
    nic_->registry().deregister(conn.staging_handle);
}

vi::ViEndpoint *
V3Server::accept(net::PortId, vi::EndpointId)
{
    if (crashed_)
        return nullptr; // a down node accepts nothing
    auto conn = std::make_unique<Connection>();
    conn->id = static_cast<uint32_t>(connections_.size());
    const std::string base =
        config_.name + ".c" + std::to_string(conn->id);
    conn->recv_cq =
        std::make_unique<vi::CompletionQueue>(base + ".rcq");
    conn->ep = &nic_->createEndpoint(nullptr, conn->recv_cq.get());

    sim::MemorySpace &mem = node_.memory();

    // Request receive buffers: one per credit, registered as a unit.
    // Any registration failure (NIC capacity after many client
    // reconnections) refuses the connection rather than accepting a
    // half-wired one.
    conn->req_buf_base = mem.allocate(
        static_cast<uint64_t>(config_.request_credits) *
        dsa::kRequestWireBytes);
    auto req_reg = nic_->registry().registerMemory(
        conn->req_buf_base,
        static_cast<uint64_t>(config_.request_credits) *
            dsa::kRequestWireBytes,
        true);
    conn->reply_buf = mem.allocate(dsa::kResponseWireBytes);
    auto reply_reg = nic_->registry().registerMemory(
        conn->reply_buf, dsa::kResponseWireBytes, true);
    conn->flag_scratch = mem.allocate(8);
    auto flag_reg =
        nic_->registry().registerMemory(conn->flag_scratch, 8, true);
    conn->staging_base = mem.allocate(kStagingBytes);
    auto staging_reg = nic_->registry().registerMemory(
        conn->staging_base, kStagingBytes, true);
    if (!req_reg || !reply_reg || !flag_reg || !staging_reg) {
        V3LOG(Warn, "v3") << config_.name
                          << ": refusing connection, NIC "
                             "registration capacity exhausted";
        return nullptr;
    }
    conn->req_buf_handle = req_reg->handle;
    conn->reply_handle = reply_reg->handle;
    conn->flag_handle = flag_reg->handle;
    conn->staging_handle = staging_reg->handle;

    // Pre-post one receive per request credit.
    for (uint32_t i = 0; i < config_.request_credits; ++i)
        repostRecv(*conn, i);

    Connection &ref = *conn;
    connections_.push_back(std::move(conn));
    sim::spawn(serviceLoop(ref));
    return ref.ep;
}

void
V3Server::onRdmaEvent(const vi::ViNic::RdmaEvent &event)
{
    // Locate the staging slot (if any) this fragment landed in. A
    // transfer always starts at the slot base, so a clean first
    // fragment clears any stale taint from an earlier (retransmitted)
    // transfer into the same slot; any damaged fragment taints it.
    for (auto &conn : connections_) {
        if (conn->staging_base == sim::kNullAddr ||
            event.addr < conn->staging_base ||
            event.addr >= conn->staging_base + kStagingBytes) {
            continue;
        }
        const uint64_t off = event.addr - conn->staging_base;
        const uint32_t slot =
            static_cast<uint32_t>(off / dsa::kStagingSlotBytes);
        if (off % dsa::kStagingSlotBytes == 0)
            conn->staging_tainted.erase(slot);
        if (event.corrupted)
            conn->staging_tainted.insert(slot);
        return;
    }
}

void
V3Server::repostRecv(Connection &conn, uint64_t cookie)
{
    vi::WorkDescriptor desc;
    desc.cookie = cookie;
    desc.local_addr =
        conn.req_buf_base + cookie * dsa::kRequestWireBytes;
    desc.len = dsa::kRequestWireBytes;
    nic_->postRecv(*conn.ep, desc, conn.req_buf_handle);
}

sim::Task<>
V3Server::serviceLoop(Connection &conn)
{
    // The paper: the server polls for incoming messages (a dedicated
    // service loop); handlers are spawned so requests pipeline.
    for (;;) {
        vi::WorkCompletion completion =
            co_await conn.recv_cq->next();
        if (completion.status != vi::WorkStatus::Ok) {
            // Connection torn down (peer disconnect, connection
            // break, or node crash): stop servicing and return the
            // registrations so abandoned connections don't leak NIC
            // capacity across client reconnections.
            conn.alive = false;
            releaseConnection(conn);
            co_return;
        }
        if (!completion.control)
            continue; // not a DSA message
        if (completion.corrupted) {
            // The request message was damaged in flight: the header
            // digest check fails, so the request is dropped as if the
            // packet were lost. The credit goes back; the client's
            // retransmission timer recovers.
            bad_requests_.increment();
            repostRecv(conn, completion.cookie);
            continue;
        }
        auto req = std::static_pointer_cast<dsa::RequestMsg>(
            completion.control);
        sim::spawn(handleRequest(conn, *req, completion.cookie));
    }
}

size_t
V3Server::dedupEntries() const
{
    size_t entries = 0;
    for (const auto &conn : connections_)
        entries += conn->seqs.size();
    return entries;
}

sim::Task<>
V3Server::handleRequest(Connection &conn, dsa::RequestMsg req,
                        uint64_t recv_cookie)
{
    const sim::Tick arrival = node_.sim().now();
    CpuLease lease = co_await node_.cpus().acquire(
        osmodel::CpuPool::kNormalPriority,
        orderKey(conn.staging_base, req.offset));
    co_await lease.run(config_.parse_cost, CpuCat::Other);

    // Everything below the client's ack watermark has completed there.
    conn.seqs.eraseBelow(req.ack_below);

    if (req.op == dsa::DsaOp::Hello) {
        co_await handleHello(conn, req, lease);
        repostRecv(conn, recv_cookie);
        node_.cpus().release();
        co_return;
    }

    // Retransmission filter (exactly-once for writes).
    if (const auto *seen = conn.seqs.find(req.seq)) {
        retransmit_hits_.increment();
        if (*seen == Connection::SeqState::InProgress) {
            // The original is still being served; it will complete.
            repostRecv(conn, recv_cookie);
            node_.cpus().release();
            co_return;
        }
        if (req.op != dsa::DsaOp::Read) {
            const dsa::IoStatus replay =
                *seen == Connection::SeqState::DoneOk
                    ? dsa::IoStatus::Ok
                    : dsa::IoStatus::Error;
            co_await lease.run(config_.complete_cost, CpuCat::Other);
            postCompletion(conn, req, replay);
            repostRecv(conn, recv_cookie);
            node_.cpus().release();
            co_return;
        }
        // Retransmitted read: the client only retransmits when it
        // did not observe good data (lost or digest-failed), so a
        // bare replayed status would strand it. Reads are idempotent;
        // fall through and re-execute so the data is RDMA'd again.
    }
    conn.seqs.set(req.seq, Connection::SeqState::InProgress);

    // Overload control (DESIGN.md §12): reads and writes pass the
    // admission gate. The request is already recorded InProgress
    // above, so a retransmission arriving while the original is
    // parked in the gate is absorbed by the dedup filter instead of
    // queueing twice. The wait itself parks off-CPU: a queued backlog
    // must not pin the request-manager CPUs and starve the in-service
    // requests that would drain it.
    bool gated = false;
    if (config_.admission.enabled) {
        node_.cpus().release();
        const bool admitted = co_await admission_gate_.admit(
            req.tenant, req.len, orderKey(conn.staging_base, req.seq));
        lease = co_await node_.cpus().acquire(
            osmodel::CpuPool::kNormalPriority,
            orderKey(conn.staging_base, req.offset));
        if (!admitted) {
            // Shed: refuse fast with Busy, and forget the sequence —
            // like BadDigest, a future retransmission must re-enter
            // the gate rather than replay this refusal.
            conn.seqs.erase(req.seq);
            co_await lease.run(config_.complete_cost, CpuCat::Other);
            postCompletion(conn, req, dsa::IoStatus::Busy);
            repostRecv(conn, recv_cookie);
            node_.cpus().release();
            co_return;
        }
        gated = true;
    }

    dsa::IoStatus status = dsa::IoStatus::Error;
    uint32_t payload_digest = 0;
    bool digest_valid = false;
    if (req.op == dsa::DsaOp::Read) {
        reads_.increment();
        status = co_await doRead(conn, req, lease, payload_digest,
                                 digest_valid);
    } else {
        writes_.increment();
        status = co_await doWrite(conn, req, lease);
    }

    if (status == dsa::IoStatus::BadDigest) {
        // Not recorded in the dedup filter: the retransmission must
        // re-stage and re-execute, not replay this failure.
        conn.seqs.erase(req.seq);
    } else {
        conn.seqs.set(req.seq, status == dsa::IoStatus::Ok
                                   ? Connection::SeqState::DoneOk
                                   : Connection::SeqState::DoneFail);
    }
    co_await lease.run(config_.complete_cost, CpuCat::Other);
    postCompletion(conn, req, status, payload_digest, digest_valid);
    server_time_.add(static_cast<double>(node_.sim().now() - arrival));
    repostRecv(conn, recv_cookie);
    node_.cpus().release();
    if (gated)
        admission_gate_.release();
}

sim::Task<>
V3Server::handleHello(Connection &conn, const dsa::RequestMsg &req,
                      CpuLease lease)
{
    co_await lease.run(config_.complete_cost, CpuCat::Other);
    auto ack = std::make_shared<dsa::ServerMsg>();
    ack->kind = dsa::ServerMsg::Kind::HelloAck;
    ack->hello.volume_capacity = volumeCapacity(req.volume);
    ack->hello.request_credits = config_.request_credits;
    ack->hello.staging_slots = dsa::kStagingSlots;
    ack->hello.staging_slot_bytes = dsa::kStagingSlotBytes;
    ack->hello.staging_base = conn.staging_base;

    vi::WorkDescriptor desc;
    desc.local_addr = conn.reply_buf;
    desc.len = dsa::kResponseWireBytes;
    desc.control = std::move(ack);
    desc.order_key = conn.reply_buf;
    nic_->postSend(*conn.ep, desc, conn.reply_handle);
}

void
V3Server::postCompletion(Connection &conn, const dsa::RequestMsg &req,
                         dsa::IoStatus status, uint32_t payload_digest,
                         bool digest_valid)
{
    if (!conn.alive ||
        conn.ep->state() != vi::EndpointState::Connected) {
        return;
    }
    if (req.completion == dsa::CompletionMode::RdmaFlag) {
        // Write the flag value into scratch, then RDMA it onto the
        // request's flag address; the data was posted on the same
        // connection first, so in-order delivery makes the flag the
        // last thing the client observes. The flag word carries the
        // full IoStatus encoding plus the read payload digest in its
        // upper half, so flag-mode clients verify read data end to
        // end just like Message-mode clients do from ResponseMsg.
        // The meta sidecar mirrors it so phantom-memory clients (no
        // bytes to re-read) still learn the status from their
        // RdmaEvent observer.
        const uint64_t flag = dsa::flagValue(
            status, digest_valid ? payload_digest : 0);
        node_.memory().writeU64(conn.flag_scratch, flag);
        vi::WorkDescriptor desc;
        desc.local_addr = conn.flag_scratch;
        desc.len = 8;
        desc.remote_addr = req.flag_addr;
        desc.meta = flag;
        desc.order_key = req.flag_addr;
        nic_->postRdmaWrite(*conn.ep, desc, conn.flag_handle);
    } else {
        auto response = std::make_shared<dsa::ServerMsg>();
        response->kind = dsa::ServerMsg::Kind::Response;
        response->response.request_id = req.request_id;
        response->response.status = status;
        response->response.payload_digest = payload_digest;
        response->response.digest_valid = digest_valid;
        vi::WorkDescriptor desc;
        desc.local_addr = conn.reply_buf;
        desc.len = dsa::kResponseWireBytes;
        desc.control = std::move(response);
        desc.order_key = orderKey(conn.staging_base, req.offset);
        nic_->postSend(*conn.ep, desc, conn.reply_handle);
    }
}

sim::Task<dsa::IoStatus>
V3Server::doRead(Connection &conn, const dsa::RequestMsg &req,
                 CpuLease &lease, uint32_t &digest, bool &digest_valid)
{
    if (!validRange(req.volume, req.offset, req.len, false))
        co_return dsa::IoStatus::Error;

    // Transient pieces (caching off, or a fill that could not use a
    // frame) are RDMA sources too: register each with the NIC the
    // moment the block path commits to serving from it.
    std::vector<vi::MemHandle> handles;
    bool registered = true;
    const BlockPath::TransientHook on_transient =
        [&](sim::Addr addr, uint64_t len) {
            const auto reg =
                nic_->registry().registerMemory(addr, len, true);
            if (reg)
                handles.push_back(reg->handle);
            registered = registered && reg.has_value();
        };
    const BlockPath::ReadResult got = co_await path_.read(
        lease, orderKey(conn.staging_base, req.offset), req.offset,
        req.len, on_transient);

    // RDMA each piece, in order, accumulating the response digest
    // over the delivered bytes (client-buffer order == piece order,
    // so one chained CRC works).
    bool sent = false;
    if (got.status == ReadStatus::Ok && registered) {
        sim::MemorySpace &mem = node_.memory();
        // The response digest and the first piece's doorbell run
        // back to back: one charge.
        sim::Tick charge = sim::perKbTicks(req.len, config_.digest_per_kb);
        uint32_t crc = 0;
        uint64_t pos = 0;
        sent = true;
        for (const BlockPath::Piece &piece : got.pieces) {
            co_await lease.run(charge + nic_->costs().doorbell,
                               CpuCat::Other);
            charge = 0;
            vi::WorkDescriptor desc;
            desc.local_addr = piece.addr;
            desc.len = piece.len;
            if (!mem.phantom())
                crc = dsa::payloadDigest(mem, desc.local_addr, desc.len,
                                         crc);
            desc.remote_addr = req.client_buffer + pos;
            desc.order_key = desc.remote_addr;
            const vi::MemHandle handle =
                piece.pinned ? cache_handle_ : handles[piece.transient];
            sent = nic_->postRdmaWrite(*conn.ep, desc, handle) && sent;
            pos += piece.len;
        }
        if (!mem.phantom()) {
            digest = crc;
            digest_valid = true;
        }
    }

    // The RDMA snapshot is taken synchronously at post, so the
    // transients can be released at once in simulation terms.
    for (const vi::MemHandle handle : handles)
        nic_->registry().deregister(handle);
    path_.release(got);
    if (got.status == ReadStatus::IntegrityError)
        co_return dsa::IoStatus::IntegrityError;
    co_return sent ? dsa::IoStatus::Ok : dsa::IoStatus::Error;
}

sim::Task<dsa::IoStatus>
V3Server::doWrite(Connection &conn, const dsa::RequestMsg &req,
                  CpuLease &lease)
{
    if (!validRange(req.volume, req.offset, req.len, true) ||
        req.staging_slot >= dsa::kStagingSlots ||
        req.len > dsa::kStagingSlotBytes) {
        co_return dsa::IoStatus::Error;
    }

    sim::MemorySpace &mem = node_.memory();
    const sim::Addr staging =
        conn.staging_base +
        static_cast<uint64_t>(req.staging_slot) * dsa::kStagingSlotBytes;

    // Verify the staged payload before the cache or the disk sees
    // it: a block damaged on the way in must never become "the"
    // durable copy. Taint covers phantom runs; the CRC compare
    // additionally covers real-memory runs.
    co_await lease.run(sim::perKbTicks(req.len, config_.digest_per_kb),
                       CpuCat::Other);
    const bool tainted =
        conn.staging_tainted.erase(req.staging_slot) > 0;
    bool digest_ok = !tainted;
    if (digest_ok && req.digest_valid && !mem.phantom()) {
        digest_ok = dsa::payloadDigest(mem, staging, req.len) ==
                    req.payload_digest;
    }
    if (!digest_ok) {
        digest_mismatches_.increment();
        co_return dsa::IoStatus::BadDigest;
    }

    // Write through the cache and commit to disk before completing
    // (section 5.2). A crash between staging and commit loses the
    // write: the node is fail-stop, so nothing may reach disk after
    // the cache died.
    const bool ok = co_await path_.write(
        lease, orderKey(conn.staging_base, req.offset), req.offset,
        req.len, staging, &conn.alive);
    co_return ok ? dsa::IoStatus::Ok : dsa::IoStatus::Error;
}

} // namespace v3sim::storage
