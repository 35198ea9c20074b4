/**
 * @file
 * Unit tests for the network fabric: latency, serialization,
 * ordering, and the drop filter.
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
    const PortId a = fabric.attach([](Packet) {});
    const PortId b =
        fabric.attach([&](Packet) { delivered_at = sim_.now(); });

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

TEST_F(FabricTest, DroppedPacketStillOccupiesTheLink)
{
    // The drop happens beyond the sender's link: a dropped packet
    // still serializes, so the packet behind it waits its turn.
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = usecs(5);
    Fabric fabric(sim_.queue(), config);
    std::vector<int> delivered;
    std::vector<Tick> arrivals;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet p) {
        delivered.push_back(
            std::static_pointer_cast<TestMsg>(p.payload)->value);
        arrivals.push_back(sim_.now());
    });
    fabric.setDropFilter([](const Packet &p) {
        return std::static_pointer_cast<TestMsg>(p.payload)->value == 0;
    });
    for (int i = 0; i < 2; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 1000; // 10 us each
        packet.payload = std::make_shared<TestMsg>(TestMsg{i});
        fabric.send(std::move(packet));
    }
    sim_.run();
    EXPECT_EQ(fabric.packetsDropped(), 1u);
    EXPECT_EQ(delivered, (std::vector<int>{1}));
    // 10 us behind the dropped packet, 10 us of its own, 5 us
    // propagation; 15 us if the drop had skipped the link.
    EXPECT_EQ(arrivals, (std::vector<Tick>{usecs(25)}));
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

} // namespace
} // namespace v3sim::net
