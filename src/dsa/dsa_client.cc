#include "dsa_client.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/warn.hh"

namespace v3sim::dsa
{

using osmodel::CpuCat;
using osmodel::CpuLease;

const char *
dsaImplName(DsaImpl impl)
{
    switch (impl) {
      case DsaImpl::Kdsa: return "kDSA";
      case DsaImpl::Wdsa: return "wDSA";
      case DsaImpl::Cdsa: return "cDSA";
    }
    return "?";
}

namespace
{

/** Registry path: lowercase impl + "0", e.g. "client.cdsa0". The 0
 *  names the server's one volume and stays because every committed
 *  artifact carries it. */
std::string
clientPathSegment(DsaImpl impl)
{
    const char *impl_path = "?";
    switch (impl) {
      case DsaImpl::Kdsa: impl_path = "kdsa"; break;
      case DsaImpl::Wdsa: impl_path = "wdsa"; break;
      case DsaImpl::Cdsa: impl_path = "cdsa"; break;
    }
    return std::string("client.") + impl_path + "0";
}

/** Resolves @p waiter with @p ok, if one is armed, disarming it
 *  first. */
void
resolve(sim::Completion<bool> *&waiter, bool ok)
{
    if (sim::Completion<bool> *armed = std::exchange(waiter, nullptr))
        armed->set(ok);
}

} // namespace

DsaClient::DsaClient(DsaImpl impl, osmodel::Node &node, vi::ViNic &nic,
                     net::PortId server_port, DsaConfig config)
    : Session(node, clientPathSegment(impl)),
      impl_(impl),
      nic_(nic),
      server_port_(server_port),
      config_(config),
      own_lock_(node.sim(), node.costs(),
                std::string(dsaImplName(impl)) + ".lock"),
      vi_send_lock_(node.sim(), node.costs(), "vi.send"),
      vi_recv_lock_(node.sim(), node.costs(), "vi.recv"),
      retransmits_(node.sim().metrics().counter(metric_prefix_ +
                                                ".retransmits")),
      reconnects_(node.sim().metrics().counter(metric_prefix_ +
                                               ".reconnects")),
      abandoned_reconnects_(node.sim().metrics().counter(
          metric_prefix_ + ".abandoned_reconnects")),
      revives_(node.sim().metrics().counter(metric_prefix_ +
                                            ".revives")),
      intr_completions_(node.sim().metrics().counter(
          metric_prefix_ + ".intr_completions")),
      polled_completions_(node.sim().metrics().counter(
          metric_prefix_ + ".polled_completions")),
      digest_mismatches_(node.sim().metrics().counter(
          metric_prefix_ + ".integrity_digest_mismatches")),
      integrity_errors_(node.sim().metrics().counter(
          metric_prefix_ + ".integrity_errors")),
      busy_(node.sim().metrics().counter(metric_prefix_ + ".busy"))
{
    // wDSA cannot apply the section-3 optimizations: it is bound to
    // exact Win32 semantics (section 3: "opportunities for
    // optimizations are severely limited").
    if (impl_ == DsaImpl::Wdsa)
        config_.opts = DsaOptimizations::none();

    // cDSA's interrupt optimization *is* the polled-flag completion
    // mode; without it completions arrive as messages + interrupts.
    mode_ = (impl_ == DsaImpl::Cdsa && config_.opts.interrupt_batching)
                ? CompletionMode::RdmaFlag
                : CompletionMode::Message;

    // kDSA buffers are pinned by the I/O manager before the driver
    // sees them; cDSA uses always-pinned AWE memory; wDSA registers
    // raw user memory and pays pinning itself (section 3.1).
    const bool pre_pinned = impl_ != DsaImpl::Wdsa;
    reg_cache_ = std::make_unique<RegCache>(
        nic_.registry(), pre_pinned, config_.opts.batched_dereg);

    recv_cq_ = std::make_unique<vi::CompletionQueue>();

    // Client-side buffers: one request scratch (contents ride the
    // control sidecar), a response-recv pool, and the completion
    // flag array.
    sim::MemorySpace &mem = node_.memory();
    msg_buf_ = mem.allocate(kRequestWireBytes);
    auto msg_reg =
        nic_.registry().registerMemory(msg_buf_, kRequestWireBytes,
                                       true);
    assert(msg_reg.has_value());
    msg_handle_ = msg_reg->handle;

    const uint32_t slots = responseSlots();
    resp_buf_base_ = mem.allocate(
        static_cast<uint64_t>(slots) * kResponseWireBytes);
    auto resp_reg = nic_.registry().registerMemory(
        resp_buf_base_, static_cast<uint64_t>(slots) *
                            kResponseWireBytes,
        true);
    assert(resp_reg.has_value());
    resp_handle_ = resp_reg->handle;

    flag_base_ = mem.allocate(static_cast<uint64_t>(slots) * 8);
    auto flag_reg = nic_.registry().registerMemory(
        flag_base_, static_cast<uint64_t>(slots) * 8, true);
    assert(flag_reg.has_value());
    flag_handle_ = flag_reg->handle;
    for (uint32_t i = 0; i < slots; ++i)
        free_flags_.push_back(slots - 1 - i);
    flag_io_.assign(slots, nullptr);

    // Observe inbound RDMA writes so flag completions work even with
    // phantom memory, and so damaged fragments taint the buffers
    // they land in.
    nic_.setRdmaObserver([this](const vi::ViNic::RdmaEvent &event) {
        onRdmaEvent(event);
    });
}

DsaClient::~DsaClient() = default;

uint64_t
DsaClient::ackBelow() const
{
    return pending_.empty() ? next_seq_
                            : pending_.front().value.io->msg.seq;
}

int
DsaClient::ownSyncPairs() const
{
    if (impl_ == DsaImpl::Wdsa)
        return 3; // fixed: Win32 semantics force the long path
    if (config_.opts.reduced_sync)
        return 1;
    // cDSA owns the whole path between database and VI, so the
    // unoptimized variant has more of its own locks to shed
    // (section 3.3: reducing sync has "the largest performance
    // impact in cDSA").
    return impl_ == DsaImpl::Cdsa ? 5 : 3;
}

sim::Task<bool>
DsaClient::connect()
{
    const bool ok = co_await establish();
    if (ok)
        ready_ = true;
    co_return ok;
}

sim::Task<bool>
DsaClient::revive()
{
    if (ready_ && !dead_)
        co_return true;
    if (reconnecting_)
        co_return false; // automatic reconnection still in progress
    // One attempt per call: the prober retries on its own schedule,
    // so a dead server just means this probe fails cheaply. dead_
    // stays set until the connection is actually up: clearing it
    // before establish() would open a window in which submit() puts
    // fresh I/O into pending_ with nobody left to fail it if the
    // probe loses the race (give-up already ran, and the retransmit
    // timer treats a dead client as terminal).
    const bool ok = co_await establish();
    if (ok) {
        dead_ = false;
        ready_ = true;
        revives_.increment();
    }
    co_return ok;
}

sim::Task<bool>
DsaClient::establish()
{
    // If the old endpoint is still connected (spurious retransmission
    // exhaustion under load, not an actual failure), disconnect it
    // first so the server learns the connection is abandoned and can
    // release its staging registration. Silently walking away would
    // leak server NIC capacity on every reconnection.
    if (ep_ && ep_->state() == vi::EndpointState::Connected) {
        ep_->setStateHandler(nullptr);
        nic_.disconnect(*ep_);
    }

    // Fresh endpoint each time: VI endpoints do not survive errors.
    ep_ = &nic_.createEndpoint(recv_cq_.get());

    sim::Completion<bool> connected;
    connect_waiter_ = &connected;
    ep_->setStateHandler([this](vi::EndpointState state) {
        if (state == vi::EndpointState::Connected) {
            resolve(connect_waiter_, true);
        } else if (state == vi::EndpointState::Error) {
            if (connect_waiter_)
                resolve(connect_waiter_, false);
            else if (ready_ && !reconnecting_)
                sim::spawn(reconnect());
        }
    });

    // Guard the handshake with a timeout: the ConnectReq or its Ack
    // can be lost, and VI gives no notification.
    auto connect_timer = node_.sim().queue().scheduleCancelable(
        config_.connect_timeout,
        [this] { resolve(connect_waiter_, false); });
    nic_.connect(*ep_, server_port_);
    const bool connected_ok = co_await connected.wait();
    connect_timer.cancel();
    if (!connected_ok)
        co_return false;

    // Post response receives and arm for the HelloAck. The pool is
    // oversized relative to the credit budget so duplicate responses
    // (to spurious retransmissions) never exhaust posted receives.
    const uint32_t slots = responseSlots();
    for (uint32_t i = 0; i < slots; ++i) {
        vi::WorkDescriptor desc;
        desc.cookie = i;
        desc.local_addr =
            resp_buf_base_ + static_cast<uint64_t>(i) *
                                 kResponseWireBytes;
        desc.len = kResponseWireBytes;
        nic_.postRecv(*ep_, desc, resp_handle_);
    }
    recv_cq_->setInterruptSink([this] {
        // Interrupts from this CQ are ordered against same-tick
        // interrupts from other devices by NIC port (content).
        node_.interrupts().raise(
            [this](CpuLease lease) {
                return drainRecvCq(lease, /*interrupt_context=*/true);
            },
            nic_.port());
    });
    recv_cq_->arm();

    // Hello: learn credits, staging geometry, volume capacity.
    sim::Completion<bool> hello_done;
    hello_waiter_ = &hello_done;
    {
        CpuLease lease = co_await cpus().acquire(
            osmodel::CpuPool::kNormalPriority, nic_.port());
        co_await lease.run(config_.costs.request_build, CpuCat::Dsa);
        auto hello = std::make_shared<RequestMsg>();
        hello->op = DsaOp::Hello;
        hello->completion = CompletionMode::Message;
        vi::WorkDescriptor desc;
        desc.local_addr = msg_buf_;
        desc.len = kRequestWireBytes;
        desc.control = std::move(hello);
        co_await lease.run(nic_.costs().doorbell, CpuCat::Vi);
        nic_.postSend(*ep_, desc, msg_handle_);
        cpus().release();
    }
    auto hello_timer = node_.sim().queue().scheduleCancelable(
        config_.connect_timeout,
        [this] { resolve(hello_waiter_, false); });
    const bool hello_ok = co_await hello_done.wait();
    hello_timer.cancel();
    co_return hello_ok;
}

void
DsaClient::onRdmaEvent(const vi::ViNic::RdmaEvent &event)
{
    const uint32_t slots = responseSlots();
    const bool in_flags =
        event.addr >= flag_base_ &&
        event.addr < flag_base_ + static_cast<uint64_t>(slots) * 8;

    if (!in_flags) {
        // Read data landing in an I/O buffer: track taint per I/O so
        // damaged fragments are detected even when memory is phantom
        // (no bytes to CRC). A (re)transfer starts at the buffer
        // base, which clears taint from an earlier damaged attempt.
        const auto *hit = pending_.findIf([&event](const auto &item) {
            const Outstanding &out = item.value;
            return event.addr >= out.buffer && event.addr < out.end;
        });
        if (hit != nullptr) {
            PendingIo *io = hit->value.io;
            if (event.addr == io->buffer)
                io->tainted = false;
            if (event.corrupted)
                io->tainted = true;
        }
        return;
    }

    if (!event.last)
        return;
    if (event.corrupted) {
        // The completion flag word itself was damaged: treat it as
        // lost; the retransmission timer recovers and the server
        // replays the completion.
        digest_mismatches_.increment();
        return;
    }
    const uint32_t index =
        static_cast<uint32_t>((event.addr - flag_base_) / 8);
    PendingIo *io = flag_io_[index];
    if (io == nullptr || io->done)
        return;

    io->flag_set = true;
    IoStatus status;
    uint64_t flag;
    if (node_.memory().phantom()) {
        // Flag bytes are not stored; the sender mirrors the flag
        // word into the descriptor's meta sidecar.
        flag = event.meta;
    } else {
        flag = node_.memory().readU64(io->msg.flag_addr);
    }
    status = statusFromFlag(flag);

    // Flag-mode read verification: the flag's upper half carries the
    // server's payload digest, so a damaged or stale buffer (e.g. a
    // duplicate delivery from a spurious retransmission trampling a
    // reused buffer) is caught exactly like in Message mode.
    bool digest_bad = false;
    if (status == IoStatus::Ok && io->msg.op == DsaOp::Read &&
        !node_.memory().phantom() && digestFromFlag(flag) != 0) {
        digest_bad = payloadDigest(node_.memory(), io->buffer,
                                   io->msg.len) != digestFromFlag(flag);
    }

    if (digest_bad || (status == IoStatus::Ok && io->tainted))
        status = IoStatus::BadDigest;
    if (settle(*io, status))
        io->completion.set(io->ok);
}

bool
DsaClient::settle(PendingIo &io, IoStatus status)
{
    if (status == IoStatus::BadDigest) {
        // The write payload failed the server's check, or our read
        // data arrived damaged: recover like a loss, but retransmit
        // immediately instead of waiting out the timer.
        digest_mismatches_.increment();
        io.tainted = false;
        io.retx_timer.cancel();
        sim::spawn(retransmit(io.id));
        return false;
    }
    if (status == IoStatus::IntegrityError)
        integrity_errors_.increment();
    if (status == IoStatus::Busy) {
        // Deliberate shed by the server's admission gate: fail the
        // I/O now. Retransmitting would re-feed the overload.
        busy_.increment();
    }
    io.done = true;
    io.ok = status == IoStatus::Ok;
    return true;
}

sim::Task<bool>
DsaClient::io(bool is_write, uint64_t offset, uint64_t len,
              sim::Addr buffer, uint64_t tenant)
{
    // Refused before it takes a credit: a length RequestMsg::len
    // cannot carry, or a write longer than its staging slot.
    if (dead_ || len > UINT32_MAX ||
        (is_write && len > staging_slot_bytes_))
        co_return false;

    // Flow control gates first, holding no CPU; keyed by the I/O
    // buffer so saturated-credit grants stay content-ordered
    // (DESIGN.md §8.3). Re-check dead_ after every wait: an I/O
    // parked here while the reconnect ladder gives up would
    // otherwise proceed onto the dead connection, where nothing can
    // ever complete it (the give-up path fails only I/Os already in
    // pending_, and the retransmit timer no-ops once dead_ is set).
    co_await credits_->acquire(buffer);
    if (dead_) {
        credits_->release();
        co_return false;
    }
    uint32_t staging_slot = UINT32_MAX;
    if (is_write) {
        co_await staging_sem_->acquire(buffer);
        if (dead_) {
            staging_sem_->release();
            credits_->release();
            co_return false;
        }
        staging_slot = free_staging_.back();
        free_staging_.pop_back();
    }

    PendingIo io;
    io.buffer = buffer;
    io.staging_slot = staging_slot;
    io.msg.op = is_write ? DsaOp::Write : DsaOp::Read;
    io.msg.client_buffer = buffer;
    io.msg.staging_slot = staging_slot;
    io.msg.tenant = tenant;
    if (is_write && !node_.memory().phantom()) {
        io.msg.payload_digest =
            payloadDigest(node_.memory(), buffer, len);
        io.msg.digest_valid = true;
    }
    track(io, offset, len);
    {
        CpuLease lease = co_await acquireCpu(io.buffer);
        co_await issuePath(lease, io);
        cpus().release();
    }
    scheduleRetransmit(io);

    const bool ok = co_await awaitCompletion(io);

    // Epilogue: return resources, record stats.
    untrack(io);
    if (is_write) {
        free_staging_.push_back(staging_slot);
        staging_sem_->release();
    }
    credits_->release();
    record(io.issued_at);
    co_return ok;
}

void
DsaClient::track(PendingIo &io, uint64_t offset, uint64_t len)
{
    io.id = next_id_++;
    io.flag_index = free_flags_.back();
    free_flags_.pop_back();
    io.issued_at = node_.sim().now();
    io.msg.request_id = io.id;
    io.msg.seq = next_seq_++;
    io.msg.offset = offset;
    io.msg.len = static_cast<uint32_t>(len);
    io.msg.completion = mode_;
    io.msg.flag_addr =
        flag_base_ + static_cast<uint64_t>(io.flag_index) * 8;
    io.msg.header_digest = headerDigest(io.msg);

    pending_.insert(io.id, Outstanding{&io, io.buffer,
                                       io.buffer + io.msg.len});
    flag_io_[io.flag_index] = &io;
    if (!node_.memory().phantom())
        node_.memory().writeU64(io.msg.flag_addr, 0);
}

void
DsaClient::untrack(PendingIo &io)
{
    io.retx_timer.cancel();
    pending_.erase(io.id);
    flag_io_[io.flag_index] = nullptr;
    free_flags_.push_back(io.flag_index);
}

sim::Task<>
DsaClient::issuePath(CpuLease &lease, PendingIo &io)
{
    const DsaClientCosts &costs = config_.costs;
    const uint64_t pages = sim::pageSpan(io.buffer, io.msg.len);

    // Write payloads are digested before staging (charged whether or
    // not real bytes back the buffer; see dsa::payloadDigest). The
    // request build, the digest and — for wDSA/cDSA — the library's
    // issue work run back to back, so they are one Dsa charge.
    sim::Tick build = costs.request_build;
    if (io.msg.op == DsaOp::Write)
        build += sim::perKbTicks(io.msg.len, costs.digest_per_kb);

    switch (impl_) {
      case DsaImpl::Kdsa:
        // Standard kernel storage API: the I/O manager runs first
        // (syscall, IRP, probe-and-lock, two sync pairs), then any
        // stacked driver layers (class/miniport), then the thin
        // kDSA driver itself.
        co_await lease.run(build, CpuCat::Dsa);
        co_await node_.ioManager().issueRequest(lease, pages);
        for (int layer = 0; layer < config_.kdsa_extra_layers;
             ++layer) {
            co_await lease.run(config_.driver_layer_cost,
                               CpuCat::Kernel);
            co_await node_.ioManager().dispatchLock().syncPair(
                lease, CpuCat::Kernel);
        }
        co_await lease.run(costs.kdsa_issue, CpuCat::Dsa);
        break;
      case DsaImpl::Wdsa:
        // kernel32.dll replacement: no kernel on the issue side, but
        // heavy Win32-semantics emulation.
        co_await lease.run(build + costs.wdsa_issue, CpuCat::Dsa);
        break;
      case DsaImpl::Cdsa:
        co_await lease.run(build + costs.cdsa_issue, CpuCat::Dsa);
        break;
    }

    {
        const sim::Tick hold =
            impl_ == DsaImpl::Wdsa ? costs.wdsa_lock_hold
                                   : sim::Tick{-1};
        for (int i = 0; i < ownSyncPairs(); ++i)
            co_await own_lock_.syncPair(lease, CpuCat::Dsa, hold);
    }

    // Register the I/O buffer (dynamic, per section 3.1).
    auto reg = reg_cache_->acquire(io.buffer, io.msg.len);
    if (reg.has_value()) {
        io.handle = reg->handle;
        co_await lease.run(reg->cost, CpuCat::Vi);
    }
    co_await vi_send_lock_.syncPair(lease, CpuCat::Vi);
    co_await vi_recv_lock_.syncPair(lease, CpuCat::Vi);

    // kDSA posts from kernel context through the kernel VI provider.
    // A write rings two doorbells: its payload is staged into the
    // server's granted slot first (in-order delivery puts it there
    // before the request lands), then the request itself. Both posts
    // happen in postRequest, so the VI work is one charge.
    sim::Tick post = nic_.costs().doorbell;
    if (impl_ == DsaImpl::Kdsa)
        post += nic_.costs().kernel_transition;
    if (io.msg.op == DsaOp::Write)
        post += nic_.costs().doorbell;
    co_await lease.run(post, CpuCat::Vi);
    postRequest(io);

    // kDSA interrupt batching: while completion interrupts are off,
    // the issue path drains completions synchronously (section 3.2).
    if (impl_ == DsaImpl::Kdsa && config_.opts.interrupt_batching &&
        !recv_cq_->armed()) {
        co_await drainRecvCq(lease, /*interrupt_context=*/false);
    }
}

void
DsaClient::postRequest(PendingIo &io)
{
    if (!ep_ || ep_->state() != vi::EndpointState::Connected)
        return; // reconnection will replay

    // NIC arbitration key for everything this I/O transmits: the
    // client buffer (content; unique per concurrent submitter).
    if (io.msg.op == DsaOp::Write && io.msg.len > 0) {
        vi::WorkDescriptor data;
        data.local_addr = io.buffer;
        data.len = io.msg.len;
        data.remote_addr =
            staging_base_ + static_cast<uint64_t>(io.msg.staging_slot) *
                                staging_slot_bytes_;
        data.order_key = io.buffer;
        nic_.postRdmaWrite(*ep_, data, io.handle);
    }

    io.msg.ack_below = ackBelow();
    auto control = std::make_shared<RequestMsg>(io.msg);
    vi::WorkDescriptor desc;
    desc.local_addr = msg_buf_;
    desc.len = kRequestWireBytes;
    desc.control = std::move(control);
    desc.order_key = io.buffer;
    nic_.postSend(*ep_, desc, msg_handle_);
}

void
DsaClient::applyArmPolicy()
{
    if (mode_ != CompletionMode::Message)
        return;
    if (impl_ != DsaImpl::Kdsa || !config_.opts.interrupt_batching) {
        recv_cq_->arm();
        return;
    }
    const size_t outstanding = pending_.size();
    if (outstanding >= config_.intr_high_watermark) {
        recv_cq_->disarm();
        if (!backup_poller_active_)
            sim::spawn(backupPoller());
    } else if (outstanding < config_.intr_low_watermark ||
               outstanding == 0) {
        recv_cq_->arm();
    } else if (!recv_cq_->armed() && !backup_poller_active_) {
        sim::spawn(backupPoller());
    }
}

sim::Task<>
DsaClient::backupPoller()
{
    backup_poller_active_ = true;
    while (mode_ == CompletionMode::Message && !recv_cq_->armed() &&
           !pending_.empty()) {
        co_await node_.sim().sleep(config_.backup_poll_period);
        if (recv_cq_->armed())
            break;
        if (recv_cq_->empty())
            continue;
        CpuLease lease = co_await cpus().acquire(
            osmodel::CpuPool::kNormalPriority,
            (uint64_t{1} << 40) | nic_.port());
        co_await drainRecvCq(lease, /*interrupt_context=*/false);
        cpus().release();
    }
    backup_poller_active_ = false;
    applyArmPolicy();
}

sim::Task<>
DsaClient::drainRecvCq(CpuLease lease, bool interrupt_context)
{
    if (draining_) {
        if (interrupt_context)
            applyArmPolicy();
        co_return;
    }
    draining_ = true;
    for (;;) {
        auto completion = recv_cq_->poll();
        if (!completion) {
            // The "CQ is empty" decision is re-taken from the tick's
            // final band: whether a completion lands just before or
            // just after the poll above is a tie-shuffled race, and
            // the interrupt count must not depend on it (§8.3).
            co_await node_.sim().queue().finalBand();
            completion = recv_cq_->poll();
            if (!completion)
                break;
        }
        co_await lease.run(nic_.costs().cq_poll, CpuCat::Vi);
        if (completion->status != vi::WorkStatus::Ok)
            continue; // flushed by teardown; recvs reposted on
                      // reconnect
        if (completion->corrupted) {
            // Response or HelloAck damaged in flight: its digest
            // fails, so it is dropped like a lost packet and the
            // request-level machinery (retransmit / Hello timeout)
            // recovers.
            digest_mismatches_.increment();
        } else if (completion->control) {
            auto msg = std::static_pointer_cast<ServerMsg>(
                completion->control);
            if (msg->kind == ServerMsg::Kind::HelloAck) {
                const HelloAckMsg &ack = msg->hello;
                granted_credits_ = std::min(config_.max_outstanding,
                                            ack.request_credits);
                if (!credits_) {
                    credits_ = std::make_unique<sim::Semaphore>(
                        node_.sim().queue(), granted_credits_);
                    staging_sem_ = std::make_unique<sim::Semaphore>(
                        node_.sim().queue(), ack.staging_slots);
                    for (uint32_t i = 0; i < ack.staging_slots; ++i)
                        free_staging_.push_back(
                            ack.staging_slots - 1 - i);
                }
                staging_base_ = ack.staging_base;
                staging_slot_bytes_ = ack.staging_slot_bytes;
                capacity_ = ack.volume_capacity;
                resolve(hello_waiter_, true);
            } else {
                co_await completeFromResponse(lease, msg->response);
            }
        }
        // Return the response buffer to the endpoint.
        if (ep_ && ep_->state() == vi::EndpointState::Connected) {
            vi::WorkDescriptor desc;
            desc.cookie = completion->cookie;
            desc.local_addr =
                resp_buf_base_ + completion->cookie *
                                     kResponseWireBytes;
            desc.len = kResponseWireBytes;
            nic_.postRecv(*ep_, desc, resp_handle_);
        }
    }
    draining_ = false;
    applyArmPolicy();
}

sim::Task<>
DsaClient::deregisterBuffer(CpuLease &lease, PendingIo &io)
{
    if (!io.handle.valid())
        co_return; // never registered: the NIC was out of resources
    if (config_.opts.batched_dereg) {
        // Bookkeeping only until a whole region retires; the
        // amortized region operation needs no page locking because
        // the entries' pages were never pinned by the VI layer (or
        // are unpinned wholesale).
        co_await lease.run(reg_cache_->release(io.handle),
                           CpuCat::Vi);
        co_return;
    }
    // Per-I/O deregistration: the NIC-table removal (and, for
    // self-pinned buffers, the unpin) run on this CPU; unwiring the
    // pages from the NIC's translation serializes on the host-global
    // memory-manager lock (section 3.1: "deregistration requires
    // locking pages, which becomes more expensive at larger
    // processor counts"). At high I/O rates on many CPUs that lock
    // saturates — the mechanism behind the batched-deregistration
    // gains of Figures 9/12.
    const sim::Tick dereg_cost = reg_cache_->release(io.handle);
    co_await lease.run(dereg_cost, CpuCat::Vi);
    const uint64_t pages = sim::pageSpan(io.buffer, io.msg.len);
    sim::Tick page_lock = static_cast<sim::Tick>(pages) *
                          node_.costs().probe_lock_page * 3;
    // Buffers the VI layer pinned itself (wDSA) also unpin their
    // pages under the same lock.
    if (!reg_cache_->prePinned()) {
        page_lock += static_cast<sim::Tick>(pages) *
                     node_.costs().probe_lock_page;
    }
    co_await node_.memoryLock().syncPair(lease, CpuCat::Vi,
                                         page_lock);
}

sim::Task<>
DsaClient::completeFromResponse(CpuLease &lease,
                                const ResponseMsg &response)
{
    const Outstanding *out = pending_.find(response.request_id);
    if (out == nullptr || out->io->done)
        co_return; // stale duplicate (retransmission crossing)
    PendingIo *io = out->io;

    // End-to-end verification before the completion is accepted.
    IoStatus status = response.status;
    if (status == IoStatus::Ok && io->msg.op == DsaOp::Read) {
        co_await lease.run(
            sim::perKbTicks(io->msg.len, config_.costs.digest_per_kb),
            CpuCat::Dsa);
        bool good = !io->tainted;
        if (good && response.digest_valid &&
            !node_.memory().phantom()) {
            good = payloadDigest(node_.memory(), io->buffer,
                                 io->msg.len) ==
                   response.payload_digest;
        }
        if (!good)
            status = IoStatus::BadDigest;
    }
    if (!settle(*io, status))
        co_return;
    io->retx_timer.cancel();
    intr_completions_.increment();

    const DsaClientCosts &costs = config_.costs;
    const osmodel::HostCosts &host = node_.costs();
    const uint64_t pages = sim::pageSpan(io->buffer, io->msg.len);

    switch (impl_) {
      case DsaImpl::Kdsa:
        co_await lease.run(costs.kdsa_complete, CpuCat::Dsa);
        // Completions unwind back up through any stacked layers.
        for (int layer = 0; layer < config_.kdsa_extra_layers;
             ++layer) {
            co_await lease.run(config_.driver_layer_cost,
                               CpuCat::Kernel);
            co_await node_.ioManager().dispatchLock().syncPair(
                lease, CpuCat::Kernel);
        }
        for (int i = 0; i < ownSyncPairs(); ++i)
            co_await own_lock_.syncPair(lease, CpuCat::Dsa);
        co_await deregisterBuffer(lease, *io);
        co_await vi_recv_lock_.syncPair(lease, CpuCat::Vi);
        co_await node_.ioManager().completeRequest(lease, pages);
        break;
      case DsaImpl::Wdsa:
        co_await lease.run(costs.wdsa_complete, CpuCat::Dsa);
        for (int i = 0; i < ownSyncPairs(); ++i)
            co_await own_lock_.syncPair(lease, CpuCat::Dsa,
                                        costs.wdsa_lock_hold);
        co_await deregisterBuffer(lease, *io);
        co_await vi_recv_lock_.syncPair(lease, CpuCat::Vi);
        // Win32 completion: signal the app's event through the
        // kernel and switch to the waiting thread; satisfying
        // kernel32 semantics costs extra system calls (section 2.2:
        // "Support for these mechanisms may involve extra system
        // calls").
        co_await lease.run(2 * host.syscall + host.event_signal +
                               host.context_switch,
                           CpuCat::Kernel);
        break;
      case DsaImpl::Cdsa:
        // Message-mode cDSA (interrupt batching disabled).
        co_await lease.run(costs.cdsa_complete, CpuCat::Dsa);
        for (int i = 0; i < ownSyncPairs(); ++i)
            co_await own_lock_.syncPair(lease, CpuCat::Dsa);
        co_await deregisterBuffer(lease, *io);
        co_await vi_recv_lock_.syncPair(lease, CpuCat::Vi);
        co_await lease.run(host.context_switch, CpuCat::Kernel);
        break;
    }
    if (!config_.opts.reduced_sync && impl_ != DsaImpl::Wdsa) {
        co_await lease.run(node_.costs().sync_restructure,
                           CpuCat::Dsa);
    }
    io->completion.set(io->ok);
}

sim::Task<bool>
DsaClient::awaitCompletion(PendingIo &io)
{
    if (mode_ == CompletionMode::Message) {
        const bool ok = co_await io.completion.wait();
        co_return ok;
    }

    // cDSA polled flags (section 3.2): the application polls the
    // completion flag every poll_interval for up to poll_timeout,
    // then goes to sleep; waking from sleep costs an interrupt plus
    // a context switch. Modelled in closed form to keep the event
    // count at one per I/O: wait for the flag (the RDMA observer
    // fires the completion), then charge exactly the polls the loop
    // would have made and delay to the poll tick that would have
    // noticed the flag.
    const sim::Tick posted = node_.sim().now();
    const bool ok_result = co_await io.completion.wait();
    (void)ok_result;
    const sim::Tick waited = node_.sim().now() - posted;

    if (waited <= config_.poll_timeout) {
        polled_completions_.increment();
        // Detection happens at the next poll boundary.
        const sim::Tick into_interval =
            config_.poll_interval > 0 ? waited % config_.poll_interval
                                      : 0;
        const sim::Tick detect_delay =
            into_interval == 0 ? 0
                               : config_.poll_interval - into_interval;
        if (detect_delay > 0)
            co_await node_.sim().sleep(detect_delay);
        // The scheduler checks each pending flag once per pass; as
        // waits lengthen its pass interval stretches with the run
        // queue, so charged polls are capped rather than linear.
        const int64_t polls = std::min<int64_t>(
            config_.poll_interval > 0
                ? waited / config_.poll_interval + 1
                : 1,
            64);
        CpuLease lease = co_await acquireCpu(io.buffer);
        co_await lease.run(polls * config_.costs.poll_check,
                           CpuCat::Dsa);
        cpus().release();
    } else {
        // Poll window expired before the flag landed: the app slept
        // and the completion woke it the expensive way.
        intr_completions_.increment();
        const int64_t polls = std::min<int64_t>(
            config_.poll_interval > 0
                ? config_.poll_timeout / config_.poll_interval
                : 0,
            64);
        CpuLease lease = co_await acquireCpu(io.buffer);
        co_await lease.run(polls * config_.costs.poll_check,
                           CpuCat::Dsa);
        co_await lease.run(node_.costs().interrupt +
                               node_.costs().context_switch,
                           CpuCat::Kernel);
        cpus().release();
    }
    io.retx_timer.cancel();

    // Completion-side path in the application's context: no kernel.
    {
        CpuLease lease = co_await acquireCpu(io.buffer);
        // Read-payload digest verification (the compare itself runs
        // in the flag observer; its time is charged here, on the
        // application path, identically for phantom and real runs),
        // then the library's completion work: one Dsa charge.
        sim::Tick complete = config_.costs.cdsa_complete;
        if (io.msg.op == DsaOp::Read && io.ok)
            complete +=
                sim::perKbTicks(io.msg.len, config_.costs.digest_per_kb);
        co_await lease.run(complete, CpuCat::Dsa);
        for (int i = 0; i < ownSyncPairs(); ++i)
            co_await own_lock_.syncPair(lease, CpuCat::Dsa);
        if (!config_.opts.reduced_sync) {
            co_await lease.run(node_.costs().sync_restructure,
                               CpuCat::Dsa);
        }
        co_await deregisterBuffer(lease, io);
        co_await vi_recv_lock_.syncPair(lease, CpuCat::Vi);
        cpus().release();
    }
    co_return io.ok;
}

void
DsaClient::scheduleRetransmit(PendingIo &io)
{
    const uint64_t id = io.id;
    io.retx_timer = node_.sim().queue().scheduleCancelable(
        config_.retransmit_timeout,
        [this, id] { sim::spawn(retransmit(id)); });
}

sim::Task<>
DsaClient::retransmit(uint64_t io_id)
{
    const Outstanding *out = pending_.find(io_id);
    if (out == nullptr || out->io->done)
        co_return;
    PendingIo *io = out->io;

    if (dead_) {
        // The client died while this I/O was outstanding. The
        // give-up sweep normally failed it already, but an I/O that
        // slipped into pending_ between death and a later revive
        // would otherwise hang forever (nothing completes I/O on a
        // dead connection); fail it here so its timer is the
        // backstop.
        io->done = true;
        io->ok = false;
        io->completion.set(false);
        co_return;
    }
    if (reconnecting_) {
        scheduleRetransmit(*io);
        co_return;
    }
    if (io->retx_count >= config_.max_retransmits) {
        if (!reconnecting_)
            sim::spawn(reconnect());
        co_return;
    }
    ++io->retx_count;
    retransmits_.increment();
    co_await resend(*io);
}

sim::Task<>
DsaClient::resend(PendingIo &io)
{
    io.msg.retransmit = true;
    CpuLease lease = co_await acquireCpu(io.buffer);
    co_await lease.run(config_.costs.request_build, CpuCat::Dsa);
    co_await lease.run(nic_.costs().doorbell, CpuCat::Vi);
    postRequest(io);
    cpus().release();
    scheduleRetransmit(io);
}

sim::Task<>
DsaClient::reconnect()
{
    if (reconnecting_)
        co_return;
    reconnecting_ = true;
    reconnects_.increment();
    ready_ = false;

    int attempts = 0;
    for (;;) {
        co_await node_.sim().sleep(config_.reconnect_delay);
        if (co_await establish())
            break;
        if (++attempts >= config_.max_reconnect_attempts) {
            // Volume unreachable: fail everything outstanding so
            // the application sees errors instead of hanging.
            sim::warn(node_.sim().now(), "dsa",
                      std::string(dsaImplName(impl_)) +
                          ": giving up after " +
                          std::to_string(attempts) +
                          " reconnect attempts");
            abandoned_reconnects_.increment();
            dead_ = true;
            reconnecting_ = false;
            std::vector<PendingIo *> doomed;
            pending_.forEach([&doomed](const auto &item) {
                if (!item.value.io->done)
                    doomed.push_back(item.value.io);
            });
            for (PendingIo *io : doomed) {
                io->done = true;
                io->ok = false;
                io->retx_timer.cancel();
                io->completion.set(false);
            }
            co_return;
        }
    }
    ready_ = true;

    // Replay every outstanding request in sequence order (pending_'s
    // id order). The new server-side connection starts a fresh dedup
    // filter, so writes re-stage their data and re-execute
    // (idempotent block writes).
    std::vector<PendingIo *> replay;
    replay.reserve(pending_.size());
    pending_.forEach([&replay](const auto &item) {
        if (!item.value.io->done)
            replay.push_back(item.value.io);
    });
    for (PendingIo *io : replay) {
        io->retx_timer.cancel();
        co_await resend(*io);
    }
    reconnecting_ = false;
}

} // namespace v3sim::dsa
