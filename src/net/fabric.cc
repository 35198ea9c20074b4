#include "fabric.hh"

#include <cassert>
#include <utility>

#include "util/logging.hh"

namespace v3sim::net
{

Fabric::Fabric(sim::EventQueue &queue, FabricConfig config)
    : queue_(queue), config_(config)
{
    assert(config_.bandwidth_bps > 0);
}

PortId
Fabric::attach(Handler handler, std::string name)
{
    auto state = std::make_unique<PortState>();
    state->handler = std::move(handler);
    state->name = std::move(name);
    state->tx = std::make_unique<sim::ServerPool>(queue_, 1,
                                                  state->name + ".tx");
    ports_.push_back(std::move(state));
    return static_cast<PortId>(ports_.size() - 1);
}

const std::string &
Fabric::portName(PortId id) const
{
    static const std::string empty;
    if (id >= ports_.size())
        return empty;
    return ports_[id]->name;
}

void
Fabric::send(Packet packet, std::function<void()> on_wire)
{
    if (packet.src >= ports_.size() || packet.dst >= ports_.size()) {
        V3LOG(Warn, "fabric") << "dropping packet with invalid port";
        dropped_.increment();
        if (on_wire)
            on_wire();
        return;
    }
    const bool down =
        !ports_[packet.src]->up || !ports_[packet.dst]->up;
    const bool drop = down || (drop_filter_ && drop_filter_(packet));
    if (drop)
        dropped_.increment();
    if (!drop && corrupt_filter_ && corrupt_filter_(packet))
        packet.corrupted = true;

    PortState &src = *ports_[packet.src];
    src.bytes_sent.increment(packet.wire_bytes);

    const sim::Tick serialization =
        sim::transferTime(packet.wire_bytes, config_.bandwidth_bps);
    // Dropped packets burn serialization time but never propagate;
    // splitting the paths keeps the hot (delivered) capture within
    // EventFn's inline budget.
    const uint64_t order_key = packet.order_key;
    if (drop) {
        src.tx->submit(
            serialization,
            [on_wire = std::move(on_wire)]() mutable {
                if (on_wire)
                    on_wire();
            },
            order_key);
        return;
    }
    auto on_serialized = [this, packet = std::move(packet),
                          on_wire = std::move(on_wire)]() mutable {
        if (on_wire)
            on_wire();
        auto arrive = [this, packet = std::move(packet)]() mutable {
            deliver(std::move(packet));
        };
        static_assert(sim::EventFn::storesInline<decltype(arrive)>());
        queue_.schedule(config_.propagation, std::move(arrive));
    };
    static_assert(sim::EventFn::storesInline<decltype(on_serialized)>());
    src.tx->submit(serialization, std::move(on_serialized), order_key);
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
    dst.delivered.increment();
    dst.handler(std::move(packet));
}

void
Fabric::setPortUp(PortId id, bool up)
{
    assert(id < ports_.size());
    ports_[id]->up = up;
}

uint64_t
Fabric::bytesSent(PortId port) const
{
    assert(port < ports_.size());
    return ports_[port]->bytes_sent.value();
}

uint64_t
Fabric::packetsDelivered(PortId port) const
{
    assert(port < ports_.size());
    return ports_[port]->delivered.value();
}

} // namespace v3sim::net
