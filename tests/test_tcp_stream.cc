/**
 * @file
 * Unit tests for the TCP byte-stream transport under the iSCSI rival
 * backend: segmentation and in-order delivery, Go-back-N recovery,
 * delayed cumulative ACKs, congestion backoff, taint propagation,
 * and determinism under the event-tie shuffle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "net/tcp_stream.hh"
#include "sim/simulation.hh"

namespace v3sim::net
{
namespace
{

using sim::Tick;
using sim::usecs;

struct TestPayload
{
    int id;
};

/** A connected stream pair over a private fabric. */
class TcpStreamTest : public ::testing::Test
{
  protected:
    TcpStreamTest()
        : sim_(7),
          fabric_(sim_.queue()),
          a_(sim_.queue(), fabric_, sim_.metrics(), "tcp.a"),
          b_(sim_.queue(), fabric_, sim_.metrics(), "tcp.b")
    {
        b_.setMessageHandler([this](TcpMessage message) {
            received_.push_back(std::move(message));
        });
        b_.listen();
        sim::spawn([](TcpStream &a, TcpStream &b) -> sim::Task<> {
            co_await a.connect(b.port());
        }(a_, b_));
        sim_.run();
        EXPECT_TRUE(a_.connected());
        EXPECT_TRUE(b_.connected());
    }

    void
    send(uint64_t bytes, int id, uint64_t order_key = 0)
    {
        TcpMessage message;
        message.bytes = bytes;
        message.payload = std::make_shared<TestPayload>(
            TestPayload{id});
        message.order_key = order_key;
        a_.sendMessage(std::move(message));
    }

    int
    payloadId(const TcpMessage &message) const
    {
        return std::static_pointer_cast<TestPayload>(message.payload)
            ->id;
    }

    sim::Simulation sim_;
    Fabric fabric_;
    TcpStream a_;
    TcpStream b_;
    std::vector<TcpMessage> received_;
};

TEST_F(TcpStreamTest, InOrderDelivery)
{
    // 5000 bytes at mss 1460 = 4 segments; a second shorter message
    // rides behind it and must arrive second.
    send(5000, 1);
    send(100, 2);
    sim_.run();
    ASSERT_EQ(received_.size(), 2u);
    EXPECT_EQ(received_[0].bytes, 5000u);
    EXPECT_EQ(payloadId(received_[0]), 1);
    EXPECT_EQ(received_[1].bytes, 100u);
    EXPECT_EQ(payloadId(received_[1]), 2);
    EXPECT_EQ(a_.retransmitCount(), 0u);
    EXPECT_EQ(a_.segmentCount(5000), 4u);
}

TEST_F(TcpStreamTest, CumulativeAck)
{
    // One 4-segment message under ack_every=2: an ACK per two
    // in-order segments plus the forced ACK on the message-final
    // segment — fewer ACKs than segments, yet everything acked.
    send(4 * 1460, 1);
    sim_.run();
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_EQ(b_.acksSent(), 2u);
    EXPECT_EQ(a_.sndUna(), 4u);
    EXPECT_EQ(a_.sndNxt(), 4u);
}

TEST_F(TcpStreamTest, RetransmitAfterDrop)
{
    // Drop the first full data segment once. Go-back-N resends from
    // the first unacked segment (dup-ACK fast retransmit or the RTO,
    // whichever the window allows) and the message still arrives.
    bool dropped = false;
    fabric_.setDropFilter([&](const Packet &packet) {
        if (!dropped && packet.wire_bytes > 500) {
            dropped = true;
            return true;
        }
        return false;
    });
    send(8 * 1460, 1);
    sim_.run();
    EXPECT_TRUE(dropped);
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_EQ(received_[0].bytes, 8u * 1460u);
    EXPECT_GE(a_.retransmitCount(), 1u);
    EXPECT_EQ(a_.sndUna(), 8u);
}

TEST_F(TcpStreamTest, CongestionBackoff)
{
    // A loss signal halves ssthresh (to at least 2) and collapses
    // cwnd to the initial window before recovery regrows it.
    const uint32_t initial_ssthresh = a_.ssthresh();
    bool dropped = false;
    fabric_.setDropFilter([&](const Packet &packet) {
        if (!dropped && packet.wire_bytes > 500 && a_.sndNxt() > 4) {
            dropped = true;
            return true;
        }
        return false;
    });
    send(32 * 1460, 1);
    sim_.run();
    EXPECT_TRUE(dropped);
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_LT(a_.ssthresh(), initial_ssthresh);
    EXPECT_GE(a_.retransmitCount(), 1u);
}

TEST_F(TcpStreamTest, RtoExponentialBackoff)
{
    // Black-hole every data segment: each back-to-back timeout must
    // double the next timer up to max_rto, so a dead or overloaded
    // peer sees exponentially spaced retransmits rather than a
    // constant-rate storm.
    int dropped = 0;
    fabric_.setDropFilter([&](const Packet &packet) {
        if (packet.wire_bytes > 500) {
            ++dropped;
            return true;
        }
        return false;
    });
    const Tick t0 = sim_.now();
    send(1000, 1);
    EXPECT_EQ(a_.currentRto(), TcpConfig::rto);
    // Base 2 ms doubling: timeouts fire at +2, +6, +14, +30, +62 ms.
    // By +40 ms four timer retransmits have gone out and the next
    // timer is armed at 16x the base.
    sim_.runUntil(t0 + sim::msecs(40));
    EXPECT_EQ(dropped, 5); // the original send + 4 timer resends
    EXPECT_EQ(a_.currentRto(), TcpConfig::rto << 4);
    // Keep losing: the effective RTO saturates at max_rto.
    sim_.runUntil(t0 + sim::msecs(400));
    EXPECT_EQ(a_.currentRto(), TcpConfig::max_rto);
    // Heal the path: the next timer retransmit gets through and the
    // new cumulative ACK resets the backoff to the base RTO.
    fabric_.setDropFilter(nullptr);
    sim_.run();
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_EQ(a_.sndUna(), 1u);
    EXPECT_EQ(a_.currentRto(), TcpConfig::rto);
}

TEST_F(TcpStreamTest, TaintPropagation)
{
    // Damage one data segment in flight: the fabric delivers it with
    // the taint bit (past the weak Internet checksum), and the whole
    // reassembled message must carry the taint for the digests above.
    bool corrupted = false;
    fabric_.setCorruptFilter([&](const Packet &packet) {
        if (!corrupted && packet.wire_bytes > 500) {
            corrupted = true;
            return true;
        }
        return false;
    });
    send(4 * 1460, 1);
    send(2 * 1460, 2);
    sim_.run();
    EXPECT_TRUE(corrupted);
    ASSERT_EQ(received_.size(), 2u);
    EXPECT_TRUE(received_[0].tainted);
    EXPECT_FALSE(received_[1].tainted);
}

/** Runs four same-tick senders with distinct order_keys and returns
 *  the delivery trace (payload id + time per message). */
std::vector<std::pair<int, Tick>>
shuffledSendTrace(uint64_t tie_seed)
{
    sim::Simulation sim(7);
    sim.queue().setTieShuffle(tie_seed);
    Fabric fabric(sim.queue());
    TcpStream a(sim.queue(), fabric, sim.metrics(), "tcp.a");
    TcpStream b(sim.queue(), fabric, sim.metrics(), "tcp.b");
    std::vector<std::pair<int, Tick>> trace;
    b.setMessageHandler([&](TcpMessage message) {
        trace.emplace_back(
            std::static_pointer_cast<TestPayload>(message.payload)->id,
            sim.now());
    });
    b.listen();
    sim::spawn([](TcpStream &a, TcpStream &b) -> sim::Task<> {
        co_await a.connect(b.port());
    }(a, b));
    sim.run();

    // Four independent events on one tick; the tie shuffle permutes
    // the order their sendMessage() calls fire in. The final-band
    // sequencing pass must order the stream by order_key regardless.
    for (int i = 0; i < 4; ++i) {
        sim.queue().schedule(usecs(10), [&a, i] {
            TcpMessage message;
            message.bytes = 1000u * (i + 1);
            message.payload =
                std::make_shared<TestPayload>(TestPayload{i});
            message.order_key = static_cast<uint64_t>(i);
            a.sendMessage(std::move(message));
        });
    }
    sim.run();
    return trace;
}

TEST(TcpStreamDeterminism, DeterminismUnderTieShuffle)
{
    const auto trace1 = shuffledSendTrace(1);
    const auto trace2 = shuffledSendTrace(999);
    ASSERT_EQ(trace1.size(), 4u);
    EXPECT_EQ(trace1, trace2);
    // And the sequenced order is the key order, not arrival order.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(trace1[static_cast<size_t>(i)].first, i);
}

} // namespace
} // namespace v3sim::net
