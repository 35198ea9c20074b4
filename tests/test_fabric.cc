/**
 * @file
 * Unit tests for the network fabric: latency, serialization,
 * ordering, drop filter, and statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hh"
#include "sim/simulation.hh"

namespace v3sim::net
{
namespace
{

using sim::Tick;
using sim::usecs;

struct TestMsg
{
    int value;
};

class FabricTest : public ::testing::Test
{
  protected:
    sim::Simulation sim_;
};

TEST_F(FabricTest, DeliversWithPropagationAndSerialization)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6; // 100 bytes / us
    config.propagation = usecs(2);
    Fabric fabric(sim_.queue(), config);

    Tick delivered_at = -1;
    const PortId a = fabric.attach([](Packet) {}, "a");
    const PortId b = fabric.attach(
        [&](Packet) { delivered_at = sim_.now(); }, "b");

    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 1000; // 10 us serialization
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(delivered_at, usecs(12));
}

TEST_F(FabricTest, PayloadArrivesIntact)
{
    Fabric fabric(sim_.queue());
    int got = 0;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet p) {
        got = std::static_pointer_cast<TestMsg>(p.payload)->value;
    });

    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 64;
    packet.payload = std::make_shared<TestMsg>(TestMsg{99});
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(got, 99);
}

TEST_F(FabricTest, PerSourceFifoOrdering)
{
    Fabric fabric(sim_.queue());
    std::vector<int> order;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet p) {
        order.push_back(
            std::static_pointer_cast<TestMsg>(p.payload)->value);
    });
    for (int i = 0; i < 5; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 5000;
        packet.payload = std::make_shared<TestMsg>(TestMsg{i});
        fabric.send(std::move(packet));
    }
    sim_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(FabricTest, TransmitSerializationQueues)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = 0;
    Fabric fabric(sim_.queue(), config);
    std::vector<Tick> arrivals;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach(
        [&](Packet) { arrivals.push_back(sim_.now()); });
    for (int i = 0; i < 3; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 1000; // 10 us each
        fabric.send(std::move(packet));
    }
    sim_.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], usecs(10));
    EXPECT_EQ(arrivals[1], usecs(20));
    EXPECT_EQ(arrivals[2], usecs(30));
}

TEST_F(FabricTest, OnWireFiresAtSerializationEnd)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = usecs(5);
    Fabric fabric(sim_.queue(), config);
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([](Packet) {});
    Tick wired_at = -1;
    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 1000;
    fabric.send(std::move(packet), [&] { wired_at = sim_.now(); });
    sim_.run();
    EXPECT_EQ(wired_at, usecs(10)); // excludes propagation
}

TEST_F(FabricTest, DropFilterDiscardsButCountsWire)
{
    Fabric fabric(sim_.queue());
    int delivered = 0;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet) { ++delivered; });
    fabric.setDropFilter(
        [&](const Packet &p) { return p.dst == b; });

    bool on_wire_fired = false;
    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 64;
    fabric.send(std::move(packet), [&] { on_wire_fired = true; });
    sim_.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(fabric.packetsDropped(), 1u);
    EXPECT_TRUE(on_wire_fired); // sender cannot tell
}

TEST_F(FabricTest, InvalidPortDrops)
{
    Fabric fabric(sim_.queue());
    const PortId a = fabric.attach([](Packet) {});
    Packet packet;
    packet.src = a;
    packet.dst = 42; // never attached
    packet.wire_bytes = 64;
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(fabric.packetsDropped(), 1u);
}

TEST_F(FabricTest, StatisticsAccumulate)
{
    Fabric fabric(sim_.queue());
    const PortId a = fabric.attach([](Packet) {}, "client");
    const PortId b = fabric.attach([](Packet) {}, "server");
    for (int i = 0; i < 4; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 256;
        fabric.send(std::move(packet));
    }
    sim_.run();
    EXPECT_EQ(fabric.bytesSent(a), 1024u);
    EXPECT_EQ(fabric.packetsDelivered(b), 4u);
    EXPECT_EQ(fabric.portName(a), "client");
}

} // namespace
} // namespace v3sim::net
