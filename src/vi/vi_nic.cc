#include "vi_nic.hh"

#include <algorithm>
#include <cassert>

#include "sim/warn.hh"

namespace v3sim::vi
{

void
ViEndpoint::setState(EndpointState next)
{
    if (state_ == next)
        return;
    state_ = next;
    if (state_handler_)
        state_handler_(next);
}

ViNic::ViNic(sim::Simulation &sim, net::Fabric &fabric,
             sim::MemorySpace &memory, std::string name, ViCosts costs,
             uint32_t reg_region_entries)
    : sim_(sim),
      fabric_(fabric),
      memory_(memory),
      name_(std::move(name)),
      costs_(costs),
      registry_(costs_, reg_region_entries),
      port_(net::kInvalidPort),
      rx_engine_(sim.queue()),
      tx_engine_(sim.queue()),
      metric_prefix_(sim.metrics().uniquePrefix("nic." + name_)),
      packets_sent_(
          sim.metrics().counter(metric_prefix_ + ".packets_sent")),
      packets_received_(
          sim.metrics().counter(metric_prefix_ + ".packets_received")),
      recv_overruns_(
          sim.metrics().counter(metric_prefix_ + ".recv_overruns")),
      protection_errors_(sim.metrics().counter(metric_prefix_ +
                                               ".protection_errors")),
      packets_corrupted_(sim.metrics().counter(metric_prefix_ +
                                               ".packets_corrupted"))
{
    // A fragment plus its header must fit net::Packet::wire_bytes.
    assert(costs_.max_packet_bytes + costs_.packet_header_bytes <=
           UINT32_MAX);
    port_ = fabric_.attach(
        [this](net::Packet packet) { onPacket(std::move(packet)); });
    registry_.registerMetrics(sim.metrics(),
                              metric_prefix_ + ".mem_registry");
}

ViEndpoint &
ViNic::createEndpoint(CompletionQueue *recv_cq)
{
    const EndpointId id = static_cast<EndpointId>(endpoints_.size());
    endpoints_.push_back(std::unique_ptr<ViEndpoint>(
        new ViEndpoint(this, id, recv_cq)));
    return *endpoints_.back();
}

ViEndpoint *
ViNic::endpoint(EndpointId id)
{
    if (id >= endpoints_.size())
        return nullptr;
    return endpoints_[id].get();
}

void
ViNic::connect(ViEndpoint &ep, net::PortId remote_port)
{
    assert(ep.state_ == EndpointState::Idle);
    ep.remote_port_ = remote_port;
    ep.setState(EndpointState::Connecting);

    WireMsg msg;
    msg.kind = WireMsg::Kind::ConnectReq;
    msg.src_ep = ep.id_;
    sendControl(remote_port, std::move(msg));
}

void
ViNic::disconnect(ViEndpoint &ep)
{
    if (ep.state_ != EndpointState::Connected) {
        ep.setState(EndpointState::Closed);
        return;
    }
    WireMsg msg;
    msg.kind = WireMsg::Kind::Disconnect;
    msg.src_ep = ep.id_;
    msg.dst_ep = ep.remote_ep_;
    sendControl(ep.remote_port_, std::move(msg));

    // Flush still-posted receives so the owner can reclaim buffers.
    for (const WorkDescriptor &desc : ep.recv_queue_) {
        WorkCompletion flushed;
        flushed.status = WorkStatus::Flushed;
        flushed.endpoint = ep.id_;
        flushed.cookie = desc.cookie;
        if (ep.recv_cq_)
            ep.recv_cq_->push(flushed);
    }
    ep.recv_queue_.clear();
    ep.inbound_.active = false;
    ep.setState(EndpointState::Closed);
}

void
ViNic::breakConnection(ViEndpoint &ep)
{
    failEndpoint(ep, WorkStatus::ConnectionError, /*notify_peer=*/false);
}

bool
ViNic::postRecv(ViEndpoint &ep, const WorkDescriptor &desc,
                MemHandle handle)
{
    if (ep.state_ == EndpointState::Error ||
        ep.state_ == EndpointState::Closed) {
        return false;
    }
    if (!registry_.covers(handle, desc.local_addr, desc.len)) {
        sim::warn(sim_.now(), "vi",
                  name_ + ": postRecv on unregistered buffer");
        return false;
    }
    ep.recv_queue_.push_back(desc);
    return true;
}

bool
ViNic::postSend(ViEndpoint &ep, const WorkDescriptor &desc,
                MemHandle handle)
{
    if (ep.state_ != EndpointState::Connected)
        return false;
    if (!registry_.covers(handle, desc.local_addr, desc.len)) {
        sim::warn(sim_.now(), "vi",
                  name_ + ": postSend on unregistered buffer");
        return false;
    }
    transmit(ep, desc, WireMsg::Kind::Send);
    return true;
}

bool
ViNic::postRdmaWrite(ViEndpoint &ep, const WorkDescriptor &desc,
                     MemHandle handle)
{
    if (ep.state_ != EndpointState::Connected)
        return false;
    if (!registry_.covers(handle, desc.local_addr, desc.len)) {
        sim::warn(sim_.now(), "vi",
                  name_ + ": postRdmaWrite on unregistered buffer");
        return false;
    }
    transmit(ep, desc, WireMsg::Kind::Rdma);
    return true;
}

void
ViNic::transmit(ViEndpoint &ep, const WorkDescriptor &desc,
                WireMsg::Kind kind)
{
    const uint64_t max_frag = costs_.max_packet_bytes;
    const uint64_t total = desc.len;
    uint64_t offset = 0;

    // A zero-length message still takes one packet (pure control /
    // immediate-only RDMA).
    do {
        const uint64_t frag_len =
            std::min<uint64_t>(max_frag, total - offset);
        const bool last = offset + frag_len >= total;

        auto msg = std::make_shared<WireMsg>();
        msg->kind = kind;
        msg->src_ep = ep.id_;
        msg->dst_ep = ep.remote_ep_;
        msg->offset = offset;
        msg->frag_len = frag_len;
        msg->total_len = total;
        msg->last = last;
        msg->has_immediate = desc.has_immediate;
        msg->immediate = desc.immediate;
        msg->meta = desc.meta;
        if (last)
            msg->control = desc.control;
        if (kind == WireMsg::Kind::Rdma)
            msg->remote_addr = desc.remote_addr + offset;

        if (!memory_.phantom() && frag_len > 0) {
            msg->data.resize(frag_len);
            memory_.read(desc.local_addr + offset, msg->data.data(),
                         frag_len);
        }

        net::Packet packet;
        packet.src = port_;
        packet.dst = ep.remote_port_;
        packet.wire_bytes = static_cast<uint32_t>(
            frag_len + costs_.packet_header_bytes);
        packet.order_key = desc.order_key;
        packet.payload = std::move(msg);
        toWire(std::move(packet));

        offset += frag_len;
    } while (offset < total);
}

void
ViNic::sendControl(net::PortId dst, WireMsg msg)
{
    auto payload = std::make_shared<WireMsg>(std::move(msg));
    net::Packet packet;
    packet.src = port_;
    packet.dst = dst;
    packet.wire_bytes = costs_.packet_header_bytes;
    packet.payload = std::move(payload);
    toWire(std::move(packet));
}

void
ViNic::toWire(net::Packet packet)
{
    packets_sent_.increment();
    const uint64_t order_key = packet.order_key;
    auto to_fabric = [this, packet = std::move(packet)]() mutable {
        fabric_.send(std::move(packet));
    };
    tx_engine_.submit(costs_.nic_tx_processing, std::move(to_fabric),
                      order_key);
}

void
ViNic::applyCorruption(WireMsg &msg)
{
    msg.corrupted = true;
    packets_corrupted_.increment();
    // Damage a deterministic byte so real-memory runs see data that
    // truly differs; phantom runs rely on the corrupted flag alone.
    if (!msg.data.empty())
        msg.data[msg.data.size() / 2] ^= 0x40;
}

void
ViNic::onPacket(net::Packet packet)
{
    packets_received_.increment();
    // Receive-side arbitration key: the source port. Packets from
    // one source are serialized by its link and never collide on a
    // tick; same-tick collisions are always different sources, and
    // ordering those by port id is content, not arrival order.
    const uint64_t rx_key = packet.src;
    rx_engine_.submit(
        costs_.nic_rx_processing,
        [this, packet = std::move(packet)]() mutable {
            auto msg = std::static_pointer_cast<WireMsg>(packet.payload);
            // Wire-level injection marks the packet; NIC-level
            // injection (bad DMA) hits inbound RDMA fragments after
            // the link CRC has already been checked and stripped.
            bool corrupt = packet.corrupted;
            if (corrupt_next_rdma_ > 0 &&
                msg->kind == WireMsg::Kind::Rdma) {
                --corrupt_next_rdma_;
                corrupt = true;
            }
            if (corrupt)
                applyCorruption(*msg);
            switch (msg->kind) {
              case WireMsg::Kind::Send:
                handleSendMsg(*msg);
                break;
              case WireMsg::Kind::Rdma:
                handleRdmaMsg(*msg);
                break;
              default:
                handleControl(packet.src, *msg);
                break;
            }
        },
        rx_key);
}

void
ViNic::handleControl(net::PortId src_port, const WireMsg &msg)
{
    switch (msg.kind) {
      case WireMsg::Kind::ConnectReq: {
        ViEndpoint *ep = nullptr;
        if (accept_handler_)
            ep = accept_handler_(src_port, msg.src_ep);
        if (!ep || ep->state_ != EndpointState::Idle) {
            WireMsg refuse;
            refuse.kind = WireMsg::Kind::ConnectRefuse;
            refuse.dst_ep = msg.src_ep;
            sendControl(src_port, std::move(refuse));
            return;
        }
        ep->remote_port_ = src_port;
        ep->remote_ep_ = msg.src_ep;
        WireMsg ack;
        ack.kind = WireMsg::Kind::ConnectAck;
        ack.src_ep = ep->id_;
        ack.dst_ep = msg.src_ep;
        sendControl(src_port, std::move(ack));
        ep->setState(EndpointState::Connected);
        return;
      }
      case WireMsg::Kind::ConnectAck: {
        ViEndpoint *ep = endpoint(msg.dst_ep);
        if (!ep || ep->state_ != EndpointState::Connecting)
            return;
        ep->remote_ep_ = msg.src_ep;
        ep->setState(EndpointState::Connected);
        return;
      }
      case WireMsg::Kind::ConnectRefuse: {
        ViEndpoint *ep = endpoint(msg.dst_ep);
        if (!ep || ep->state_ != EndpointState::Connecting)
            return;
        ep->setState(EndpointState::Error);
        return;
      }
      case WireMsg::Kind::Disconnect: {
        ViEndpoint *ep = endpoint(msg.dst_ep);
        if (!ep)
            return;
        failEndpoint(*ep, WorkStatus::ConnectionError,
                     /*notify_peer=*/false);
        return;
      }
      default:
        return;
    }
}

void
ViNic::handleSendMsg(const WireMsg &msg)
{
    ViEndpoint *ep = endpoint(msg.dst_ep);
    if (!ep || ep->state_ != EndpointState::Connected)
        return;

    if (!ep->inbound_.active) {
        if (msg.offset != 0)
            return; // stale mid-message fragment after a drop
        if (ep->recv_queue_.empty()) {
            recv_overruns_.increment();
            failEndpoint(*ep, WorkStatus::RecvOverrun,
                         /*notify_peer=*/true);
            return;
        }
        if (msg.total_len > ep->recv_queue_.front().len) {
            recv_overruns_.increment();
            failEndpoint(*ep, WorkStatus::RecvOverrun,
                         /*notify_peer=*/true);
            return;
        }
        ep->inbound_.desc = ep->recv_queue_.front();
        ep->recv_queue_.pop_front();
        ep->inbound_.received = 0;
        ep->inbound_.active = true;
        ep->inbound_.corrupted = false;
    }

    if (msg.offset != ep->inbound_.received) {
        // Lost fragment mid-message: abandon the message; the recv
        // descriptor is consumed and never completes (DSA's
        // request-level retransmission recovers).
        ep->inbound_.active = false;
        return;
    }

    if (!msg.data.empty()) {
        memory_.write(ep->inbound_.desc.local_addr + msg.offset,
                      msg.data.data(), msg.data.size());
    }
    ep->inbound_.received += msg.frag_len;
    if (msg.corrupted)
        ep->inbound_.corrupted = true;

    if (msg.last) {
        WorkCompletion completion;
        completion.status = WorkStatus::Ok;
        completion.endpoint = ep->id_;
        completion.cookie = ep->inbound_.desc.cookie;
        completion.len = msg.total_len;
        completion.has_immediate = msg.has_immediate;
        completion.immediate = msg.immediate;
        completion.corrupted = ep->inbound_.corrupted;
        completion.control = msg.control;
        ep->inbound_.active = false;
        if (ep->recv_cq_)
            ep->recv_cq_->push(completion);
    }
}

void
ViNic::handleRdmaMsg(const WireMsg &msg)
{
    ViEndpoint *ep = endpoint(msg.dst_ep);
    if (!ep || ep->state_ != EndpointState::Connected)
        return;

    if (msg.frag_len > 0 &&
        !registry_.anyCovers(msg.remote_addr, msg.frag_len)) {
        protection_errors_.increment();
        sim::warn(sim_.now(), "vi",
                  name_ + ": RDMA protection error on ep " +
                      std::to_string(ep->id_));
        failEndpoint(*ep, WorkStatus::ProtectionError,
                     /*notify_peer=*/true);
        return;
    }

    if (!msg.data.empty())
        memory_.write(msg.remote_addr, msg.data.data(),
                      msg.data.size());
    if (rdma_observer_) {
        RdmaEvent event;
        event.addr = msg.remote_addr;
        event.len = msg.frag_len;
        event.last = msg.last;
        event.corrupted = msg.corrupted;
        event.meta = msg.meta;
        rdma_observer_(event);
    }

    if (msg.last && msg.has_immediate) {
        // RDMA-write-with-immediate consumes one receive descriptor.
        if (ep->recv_queue_.empty()) {
            recv_overruns_.increment();
            failEndpoint(*ep, WorkStatus::RecvOverrun,
                         /*notify_peer=*/true);
            return;
        }
        const WorkDescriptor desc = ep->recv_queue_.front();
        ep->recv_queue_.pop_front();
        WorkCompletion completion;
        completion.status = WorkStatus::Ok;
        completion.endpoint = ep->id_;
        completion.cookie = desc.cookie;
        completion.len = msg.total_len;
        completion.has_immediate = true;
        completion.immediate = msg.immediate;
        completion.corrupted = msg.corrupted;
        completion.control = msg.control;
        if (ep->recv_cq_)
            ep->recv_cq_->push(completion);
    }
}

void
ViNic::failEndpoint(ViEndpoint &ep, WorkStatus reason, bool notify_peer)
{
    if (ep.state_ == EndpointState::Error ||
        ep.state_ == EndpointState::Closed) {
        return;
    }
    if (notify_peer && ep.remote_port_ != net::kInvalidPort &&
        ep.remote_ep_ != kInvalidEndpoint) {
        WireMsg msg;
        msg.kind = WireMsg::Kind::Disconnect;
        msg.src_ep = ep.id_;
        msg.dst_ep = ep.remote_ep_;
        sendControl(ep.remote_port_, std::move(msg));
    }
    for (const WorkDescriptor &desc : ep.recv_queue_) {
        WorkCompletion flushed;
        flushed.status = reason == WorkStatus::Ok ? WorkStatus::Flushed
                                                  : reason;
        flushed.endpoint = ep.id_;
        flushed.cookie = desc.cookie;
        if (ep.recv_cq_)
            ep.recv_cq_->push(flushed);
    }
    ep.recv_queue_.clear();
    ep.inbound_.active = false;
    ep.setState(EndpointState::Error);
}

} // namespace v3sim::vi
