#include "fabric.hh"

#include <cassert>
#include <utility>

#include "sim/warn.hh"

namespace v3sim::net
{

Fabric::Fabric(sim::EventQueue &queue, FabricConfig config)
    : queue_(queue), config_(config)
{
    assert(config_.bandwidth_bps > 0);
}

PortId
Fabric::attach(Handler handler)
{
    auto state = std::make_unique<PortState>();
    state->handler = std::move(handler);
    state->tx = std::make_unique<sim::ServerPool>(queue_);
    ports_.push_back(std::move(state));
    return static_cast<PortId>(ports_.size() - 1);
}

void
Fabric::send(Packet packet)
{
    if (packet.src >= ports_.size() || packet.dst >= ports_.size()) {
        sim::warn(queue_.now(), "fabric",
                  "dropping packet with invalid port");
        dropped_.increment();
        return;
    }
    sim::ServerPool &tx = *ports_[packet.src]->tx;
    const sim::Tick serialization =
        sim::transferTime(packet.wire_bytes, config_.bandwidth_bps);
    const uint64_t order_key = packet.order_key;
    const bool down =
        !ports_[packet.src]->up || !ports_[packet.dst]->up;
    if (down || (drop_filter_ && drop_filter_(packet))) {
        // Dropped packets burn serialization time but never propagate.
        dropped_.increment();
        tx.submit(serialization, [] {}, order_key);
        return;
    }
    if (corrupt_filter_ && corrupt_filter_(packet))
        packet.corrupted = true;

    auto on_serialized = [this, packet = std::move(packet)]() mutable {
        auto arrive = [this, packet = std::move(packet)]() mutable {
            deliver(std::move(packet));
        };
        queue_.schedule(config_.propagation, std::move(arrive));
    };
    tx.submit(serialization, std::move(on_serialized), order_key);
}

void
Fabric::deliver(Packet packet)
{
    PortState &dst = *ports_[packet.dst];
    if (!dst.up) {
        // The port went down while this packet was propagating: a
        // crashed node cannot receive, so the packet just vanishes.
        dropped_.increment();
        return;
    }
    dst.handler(std::move(packet));
}

void
Fabric::setPortUp(PortId id, bool up)
{
    assert(id < ports_.size());
    ports_[id]->up = up;
}

} // namespace v3sim::net
