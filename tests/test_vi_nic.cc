/**
 * @file
 * Unit tests for the VI NIC/endpoint model: connection handshake,
 * send/receive with data integrity, RDMA write (with and without
 * immediate), fragmentation at the cLan packet size, receive
 * overruns, protection errors, disconnect and fault injection, and
 * the 7 us one-way latency calibration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/memory.hh"
#include "sim/simulation.hh"
#include "util/units.hh"
#include "vi/vi_nic.hh"

namespace v3sim::vi
{
namespace
{

using sim::Addr;
using sim::Tick;
using sim::usecs;

/** Two hosts with one NIC each, pre-wired for client/server tests. */
class ViNicTest : public ::testing::Test
{
  protected:
    ViNicTest()
        : client_mem_(false, "client"),
          server_mem_(false, "server"),
          fabric_(sim_.queue()),
          client_nic_(sim_, fabric_, client_mem_, "cnic"),
          server_nic_(sim_, fabric_, server_mem_, "snic"),
          client_scq_("c.scq"),
          client_rcq_("c.rcq"),
          server_scq_("s.scq"),
          server_rcq_("s.rcq")
    {
        client_ep_ = &client_nic_.createEndpoint(&client_scq_,
                                                 &client_rcq_);
        server_ep_ = &server_nic_.createEndpoint(&server_scq_,
                                                 &server_rcq_);
        server_nic_.setAcceptHandler(
            [this](net::PortId, EndpointId) { return server_ep_; });
    }

    /** Runs the connect handshake to completion. */
    void
    connectPair()
    {
        client_nic_.connect(*client_ep_, server_nic_.port());
        sim_.run();
        ASSERT_EQ(client_ep_->state(), EndpointState::Connected);
        ASSERT_EQ(server_ep_->state(), EndpointState::Connected);
    }

    /** Allocates and registers a buffer; returns {addr, handle}. */
    std::pair<Addr, MemHandle>
    makeBuffer(ViNic &nic, sim::MemorySpace &mem, uint64_t len)
    {
        const Addr addr = mem.allocate(len);
        auto reg = nic.registry().registerMemory(addr, len, true);
        EXPECT_TRUE(reg.has_value());
        return {addr, reg->handle};
    }

    sim::Simulation sim_;
    sim::MemorySpace client_mem_;
    sim::MemorySpace server_mem_;
    net::Fabric fabric_;
    ViNic client_nic_;
    ViNic server_nic_;
    CompletionQueue client_scq_, client_rcq_;
    CompletionQueue server_scq_, server_rcq_;
    ViEndpoint *client_ep_ = nullptr;
    ViEndpoint *server_ep_ = nullptr;
};

TEST_F(ViNicTest, ConnectHandshake)
{
    std::vector<EndpointState> client_states;
    client_ep_->setStateHandler(
        [&](EndpointState s) { client_states.push_back(s); });
    connectPair();
    ASSERT_EQ(client_states.size(), 2u);
    EXPECT_EQ(client_states[0], EndpointState::Connecting);
    EXPECT_EQ(client_states[1], EndpointState::Connected);
    EXPECT_EQ(client_ep_->remoteEndpoint(), server_ep_->id());
    EXPECT_EQ(server_ep_->remoteEndpoint(), client_ep_->id());
}

TEST_F(ViNicTest, ConnectRefusedWithoutAcceptor)
{
    server_nic_.setAcceptHandler(nullptr);
    client_nic_.connect(*client_ep_, server_nic_.port());
    sim_.run();
    EXPECT_EQ(client_ep_->state(), EndpointState::Error);
}

TEST_F(ViNicTest, SendDeliversDataToPostedRecv)
{
    connectPair();
    const std::string text = "block request payload";
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 256);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 256);
    client_mem_.write(src, text.data(), text.size());

    WorkDescriptor recv;
    recv.cookie = 77;
    recv.local_addr = dst;
    recv.len = 256;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));

    WorkDescriptor send;
    send.cookie = 55;
    send.local_addr = src;
    send.len = text.size();
    ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    sim_.run();

    // Receiver got the data and a completion with its cookie.
    auto completion = server_rcq_.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->status, WorkStatus::Ok);
    EXPECT_EQ(completion->cookie, 77u);
    EXPECT_EQ(completion->len, text.size());
    std::string out(text.size(), '\0');
    server_mem_.read(dst, out.data(), out.size());
    EXPECT_EQ(out, text);

    // Sender got a local send completion.
    auto sc = client_scq_.poll();
    ASSERT_TRUE(sc.has_value());
    EXPECT_EQ(sc->cookie, 55u);
    EXPECT_EQ(sc->status, WorkStatus::Ok);
}

TEST_F(ViNicTest, SendWithoutRecvBreaksConnection)
{
    connectPair();
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    WorkDescriptor send;
    send.local_addr = src;
    send.len = 64;
    ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    sim_.run();
    EXPECT_EQ(server_nic_.recvOverruns(), 1u);
    EXPECT_EQ(server_ep_->state(), EndpointState::Error);
    // The peer learns about it via the disconnect notification.
    EXPECT_EQ(client_ep_->state(), EndpointState::Error);
}

TEST_F(ViNicTest, SendLargerThanRecvBufferBreaksConnection)
{
    connectPair();
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 1024);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 64);
    WorkDescriptor recv;
    recv.local_addr = dst;
    recv.len = 64;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));
    WorkDescriptor send;
    send.local_addr = src;
    send.len = 1024;
    ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    sim_.run();
    EXPECT_EQ(server_ep_->state(), EndpointState::Error);
}

TEST_F(ViNicTest, RdmaWritePlacesDataWithoutRemoteCompletion)
{
    connectPair();
    const std::string text = "rdma payload";
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 256);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 256);
    (void)dst_h;
    client_mem_.write(src, text.data(), text.size());

    WorkDescriptor rdma;
    rdma.cookie = 5;
    rdma.local_addr = src;
    rdma.len = text.size();
    rdma.remote_addr = dst;
    ASSERT_TRUE(client_nic_.postRdmaWrite(*client_ep_, rdma, src_h));
    sim_.run();

    std::string out(text.size(), '\0');
    server_mem_.read(dst, out.data(), out.size());
    EXPECT_EQ(out, text);
    // Invisible to the remote CPU: no recv completion, no interrupt.
    EXPECT_TRUE(server_rcq_.empty());
    EXPECT_EQ(server_rcq_.interruptCount(), 0u);
    // Local completion still delivered.
    auto sc = client_scq_.poll();
    ASSERT_TRUE(sc.has_value());
    EXPECT_EQ(sc->type, WorkType::RdmaWrite);
}

TEST_F(ViNicTest, RdmaWriteWithImmediateConsumesRecvDescriptor)
{
    connectPair();
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 64);
    WorkDescriptor recv;
    recv.cookie = 31;
    recv.local_addr = dst;
    recv.len = 64;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));

    WorkDescriptor rdma;
    rdma.local_addr = src;
    rdma.len = 64;
    rdma.remote_addr = dst;
    rdma.has_immediate = true;
    rdma.immediate = 0xABCD;
    ASSERT_TRUE(client_nic_.postRdmaWrite(*client_ep_, rdma, src_h));
    sim_.run();

    auto completion = server_rcq_.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_TRUE(completion->has_immediate);
    EXPECT_EQ(completion->immediate, 0xABCDu);
    EXPECT_EQ(completion->cookie, 31u);
    EXPECT_EQ(server_ep_->postedRecvCount(), 0u);
}

TEST_F(ViNicTest, RdmaToUnregisteredMemoryBreaksConnection)
{
    connectPair();
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    const Addr unregistered = server_mem_.allocate(64);

    WorkDescriptor rdma;
    rdma.local_addr = src;
    rdma.len = 64;
    rdma.remote_addr = unregistered;
    ASSERT_TRUE(client_nic_.postRdmaWrite(*client_ep_, rdma, src_h));
    sim_.run();
    EXPECT_EQ(server_nic_.protectionErrors(), 1u);
    EXPECT_EQ(server_ep_->state(), EndpointState::Error);
}

TEST_F(ViNicTest, PostOnUnregisteredBufferRejected)
{
    connectPair();
    const Addr addr = client_mem_.allocate(64);
    WorkDescriptor send;
    send.local_addr = addr;
    send.len = 64;
    EXPECT_FALSE(client_nic_.postSend(*client_ep_, send, MemHandle{}));
}

TEST_F(ViNicTest, LargeTransferFragmentsAtClanPacketSize)
{
    connectPair();
    // Paper section 5.3: a 128 KB transfer needs three RDMAs because
    // the cLan packet is 64K - 64 bytes.
    const uint64_t len = 128 * util::kKiB;
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, len);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, len);
    (void)dst_h;
    std::vector<uint8_t> pattern(len);
    for (size_t i = 0; i < len; ++i)
        pattern[i] = static_cast<uint8_t>(i % 251);
    client_mem_.write(src, pattern.data(), len);

    const uint64_t packets_before = client_nic_.packetsSent();
    WorkDescriptor rdma;
    rdma.local_addr = src;
    rdma.len = len;
    rdma.remote_addr = dst;
    ASSERT_TRUE(client_nic_.postRdmaWrite(*client_ep_, rdma, src_h));
    sim_.run();
    EXPECT_EQ(client_nic_.packetsSent() - packets_before, 3u);

    std::vector<uint8_t> out(len);
    server_mem_.read(dst, out.data(), len);
    EXPECT_EQ(out, pattern);
}

TEST_F(ViNicTest, OneWaySmallMessageLatencyNearSevenMicroseconds)
{
    // Paper section 4: "the one-way latency for a 64-bytes message is
    // about 7 us". Our NIC+fabric pipeline plus the ~0.7 us doorbell
    // the host layer charges must land in that neighborhood.
    connectPair();
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 64);
    WorkDescriptor recv;
    recv.local_addr = dst;
    recv.len = 64;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));

    const Tick start = sim_.now();
    WorkDescriptor send;
    send.local_addr = src;
    send.len = 64;
    ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    sim_.run();
    ASSERT_FALSE(server_rcq_.empty());
    const Tick elapsed = sim_.now() - start;
    const Tick with_doorbell =
        elapsed + client_nic_.costs().doorbell;
    EXPECT_GE(with_doorbell, usecs(5));
    EXPECT_LE(with_doorbell, usecs(9));
}

TEST_F(ViNicTest, ArmedRecvCqFiresInterruptOnce)
{
    connectPair();
    int interrupts = 0;
    server_rcq_.setInterruptSink([&] { ++interrupts; });
    server_rcq_.arm();

    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 256);
    for (int i = 0; i < 2; ++i) {
        WorkDescriptor recv;
        recv.local_addr = dst;
        recv.len = 256;
        ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));
    }
    for (int i = 0; i < 2; ++i) {
        WorkDescriptor send;
        send.local_addr = src;
        send.len = 64;
        ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    }
    sim_.run();
    // One-shot arming: a single interrupt despite two completions.
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(server_rcq_.depth(), 2u);
}

TEST_F(ViNicTest, DisconnectFlushesPostedRecvs)
{
    connectPair();
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 64);
    WorkDescriptor recv;
    recv.cookie = 9;
    recv.local_addr = dst;
    recv.len = 64;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));

    server_nic_.disconnect(*server_ep_);
    sim_.run();
    EXPECT_EQ(server_ep_->state(), EndpointState::Closed);
    auto completion = server_rcq_.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->status, WorkStatus::Flushed);
    EXPECT_EQ(completion->cookie, 9u);
    // Peer observes the disconnect as an error.
    EXPECT_EQ(client_ep_->state(), EndpointState::Error);
}

TEST_F(ViNicTest, BreakConnectionIsSilentToPeer)
{
    connectPair();
    client_nic_.breakConnection(*client_ep_);
    sim_.run();
    EXPECT_EQ(client_ep_->state(), EndpointState::Error);
    // No notification was sent: the peer still believes it is
    // connected (it will find out via timeouts at the DSA layer).
    EXPECT_EQ(server_ep_->state(), EndpointState::Connected);
}

TEST_F(ViNicTest, PostOnErroredEndpointRejected)
{
    connectPair();
    client_nic_.breakConnection(*client_ep_);
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    WorkDescriptor send;
    send.local_addr = src;
    send.len = 64;
    EXPECT_FALSE(client_nic_.postSend(*client_ep_, send, src_h));
    EXPECT_FALSE(client_nic_.postRecv(*client_ep_, send, src_h));
}

TEST_F(ViNicTest, DroppedRequestLosesMessageSilently)
{
    connectPair();
    fabric_.setDropFilter([](const net::Packet &) { return true; });
    auto [src, src_h] = makeBuffer(client_nic_, client_mem_, 64);
    auto [dst, dst_h] = makeBuffer(server_nic_, server_mem_, 64);
    WorkDescriptor recv;
    recv.local_addr = dst;
    recv.len = 64;
    ASSERT_TRUE(server_nic_.postRecv(*server_ep_, recv, dst_h));
    WorkDescriptor send;
    send.local_addr = src;
    send.len = 64;
    ASSERT_TRUE(client_nic_.postSend(*client_ep_, send, src_h));
    sim_.run();
    // Sender's local completion fires (it cannot tell), but nothing
    // arrives: this is why DSA adds request-level retransmission.
    EXPECT_FALSE(client_scq_.empty());
    EXPECT_TRUE(server_rcq_.empty());
    EXPECT_EQ(server_ep_->postedRecvCount(), 1u);
}

} // namespace
} // namespace v3sim::vi
