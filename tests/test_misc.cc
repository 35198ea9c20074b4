/**
 * @file
 * Remaining-coverage tests: warnings, WaitGroup, multi-fragment send
 * reassembly under mid-stream loss, and NIC statistics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"
#include "vi/vi_nic.hh"

namespace v3sim
{
namespace
{

TEST(Warn, StampsTheWarningSimulationsOwnClock)
{
    const std::string want = "[       5.000 us] WARN  fabric     "
                             "dropping packet with invalid port\n";
    sim::Simulation a;
    net::Fabric fabric(a.queue());
    a.queue().schedule(sim::usecs(5), [] {});
    a.run();

    // The packet names no attached port, so the fabric warns with
    // a's time: a newer simulation b, alive or destroyed, leaves the
    // stamp alone.
    {
        sim::Simulation b;
        testing::internal::CaptureStderr();
        fabric.send(net::Packet{});
        EXPECT_EQ(testing::internal::GetCapturedStderr(), want);
    }
    testing::internal::CaptureStderr();
    fabric.send(net::Packet{});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), want);
}

TEST(WaitGroup, ZeroCountIsImmediatelyReady)
{
    sim::Simulation sim;
    sim::WaitGroup group;
    bool resumed = false;
    sim::spawn([](sim::WaitGroup &g, bool &out) -> sim::Task<> {
        co_await g.wait();
        out = true;
    }(group, resumed));
    sim.run();
    EXPECT_TRUE(resumed);
}

TEST(WaitGroup, ResumesOnlyAtZero)
{
    sim::Simulation sim;
    sim::WaitGroup group;
    group.add(3);
    bool resumed = false;
    sim::spawn([](sim::WaitGroup &g, bool &out) -> sim::Task<> {
        co_await g.wait();
        out = true;
    }(group, resumed));
    sim.run();
    group.done();
    group.done();
    EXPECT_FALSE(resumed);
    EXPECT_EQ(group.pending(), 1);
    group.done();
    EXPECT_TRUE(resumed);
}

/** Multi-fragment send with a dropped middle fragment: receiver
 *  abandons the message, stays connected, and a fresh send works. */
TEST(ViFragmentation, MidStreamLossAbandonsMessageOnly)
{
    sim::Simulation sim(4);
    sim::MemorySpace cmem, smem;
    net::Fabric fabric(sim.queue());
    vi::ViNic client(sim, fabric, cmem, "c");
    vi::ViNic server(sim, fabric, smem, "s");
    vi::CompletionQueue rcq;
    vi::ViEndpoint &cep = client.createEndpoint(nullptr);
    vi::ViEndpoint &sep = server.createEndpoint(&rcq);
    server.setAcceptHandler(
        [&](net::PortId, vi::EndpointId) { return &sep; });
    client.connect(cep, server.port());
    sim.run();
    ASSERT_EQ(cep.state(), vi::EndpointState::Connected);

    // A 150 KB send fragments into three packets; drop the second.
    const uint64_t len = 150 * util::kKiB;
    const sim::Addr src = cmem.allocate(len);
    const sim::Addr dst = smem.allocate(len);
    const auto src_h =
        client.registry().registerMemory(src, len, true);
    const auto dst_h =
        server.registry().registerMemory(dst, len, true);

    int packet_index = 0;
    fabric.setDropFilter([&](const net::Packet &packet) {
        if (packet.dst != server.port())
            return false;
        ++packet_index;
        return packet_index == 2;
    });

    vi::WorkDescriptor recv;
    recv.cookie = 1;
    recv.local_addr = dst;
    recv.len = len;
    ASSERT_TRUE(server.postRecv(sep, recv, dst_h->handle));
    vi::WorkDescriptor send;
    send.local_addr = src;
    send.len = len;
    ASSERT_TRUE(client.postSend(cep, send, src_h->handle));
    sim.run();

    // The message never completed (its recv descriptor is consumed
    // and lost — DSA's request-level retransmission exists for
    // this), but the connection survived.
    EXPECT_TRUE(rcq.empty());
    EXPECT_EQ(sep.state(), vi::EndpointState::Connected);

    // A fresh small send still gets through.
    fabric.setDropFilter(nullptr);
    const sim::Addr dst2 = smem.allocate(64);
    const auto dst2_h =
        server.registry().registerMemory(dst2, 64, true);
    vi::WorkDescriptor recv2;
    recv2.cookie = 2;
    recv2.local_addr = dst2;
    recv2.len = 64;
    ASSERT_TRUE(server.postRecv(sep, recv2, dst2_h->handle));
    vi::WorkDescriptor send2;
    send2.local_addr = src;
    send2.len = 64;
    ASSERT_TRUE(client.postSend(cep, send2, src_h->handle));
    sim.run();
    auto completion = rcq.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->cookie, 2u);
}

TEST(ViNicStats, CountersTrackTraffic)
{
    sim::Simulation sim(6);
    sim::MemorySpace cmem, smem;
    net::Fabric fabric(sim.queue());
    vi::ViNic client(sim, fabric, cmem, "c");
    vi::ViNic server(sim, fabric, smem, "s");
    vi::CompletionQueue rcq;
    vi::ViEndpoint &cep = client.createEndpoint(nullptr);
    vi::ViEndpoint &sep = server.createEndpoint(&rcq);
    server.setAcceptHandler(
        [&](net::PortId, vi::EndpointId) { return &sep; });
    client.connect(cep, server.port());
    sim.run();

    const sim::Addr src = cmem.allocate(8192);
    const auto src_h =
        client.registry().registerMemory(src, 8192, true);
    const sim::Addr dst = smem.allocate(8192);
    const auto dst_h =
        server.registry().registerMemory(dst, 8192, true);
    ASSERT_TRUE(dst_h);

    const uint64_t sent_before = client.packetsSent();
    vi::WorkDescriptor rdma;
    rdma.local_addr = src;
    rdma.len = 8192;
    rdma.remote_addr = dst;
    ASSERT_TRUE(client.postRdmaWrite(cep, rdma, src_h->handle));
    sim.run();
    EXPECT_EQ(client.packetsSent() - sent_before, 1u);
    EXPECT_GE(server.packetsReceived(), 1u);
    EXPECT_EQ(server.recvOverruns(), 0u);
    EXPECT_EQ(server.protectionErrors(), 0u);
}

} // namespace
} // namespace v3sim
