/**
 * @file
 * V3-server-focused tests: cache interaction of the request manager
 * (hit/miss, write-through update, sub-block and multi-block
 * requests), the cache-off path, dedup-filter pruning, and read-data
 * taint on a phantom-memory host.
 * Concurrent-miss coalescing and the other same-block races are
 * covered for both storage front ends in test_block_path.cc.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dsa/dsa_client.hh"
#include "single_node_rig.hh"

namespace v3sim::storage
{
namespace
{

using sim::Addr;
using sim::Task;

class V3ServerTest : public ::testing::Test, public test::SingleNodeRig
{
  protected:
    explicit V3ServerTest(uint64_t cache_bytes = 2ull * 1024 * 1024,
                          bool phantom_host = false)
        : SingleNodeRig({.seed = 21,
                         .server = test::serverWithCache(cache_bytes),
                         .host = {.name = "db",
                                  .cpus = 4,
                                  .phantom_memory = phantom_host}})
    {
        client_ = std::make_unique<dsa::DsaClient>(
            dsa::DsaImpl::Cdsa, host_, *nic_, server_->nic().port());
        sim::spawn([](dsa::DsaClient &c) -> Task<> {
            co_await c.connect();
        }(*client_));
        sim_.run();
    }

    bool
    doRead(uint64_t offset, uint64_t len, Addr buffer)
    {
        bool ok = false;
        sim::spawn([](dsa::DsaClient &c, uint64_t off, uint64_t n,
                      Addr b, bool &out) -> Task<> {
            out = co_await c.read(off, n, b);
        }(*client_, offset, len, buffer, ok));
        sim_.run();
        return ok;
    }

    bool
    doWrite(uint64_t offset, uint64_t len, Addr buffer)
    {
        bool ok = false;
        sim::spawn([](dsa::DsaClient &c, uint64_t off, uint64_t n,
                      Addr b, bool &out) -> Task<> {
            out = co_await c.write(off, n, b);
        }(*client_, offset, len, buffer, ok));
        sim_.run();
        return ok;
    }

    std::unique_ptr<dsa::DsaClient> client_;
};

TEST_F(V3ServerTest, RepeatReadHitsCache)
{
    const Addr buf = host_.memory().allocate(8192);
    ASSERT_TRUE(doRead(0, 8192, buf));
    const uint64_t misses = server_->cache()->misses();
    ASSERT_TRUE(doRead(0, 8192, buf));
    EXPECT_EQ(server_->cache()->misses(), misses);
    EXPECT_GE(server_->cache()->hits(), 1u);
}

TEST_F(V3ServerTest, SubBlockReadServedFromBlock)
{
    const Addr big = host_.memory().allocate(8192);
    const Addr small = host_.memory().allocate(512);
    // Load the whole block, then a 512 B sub-read must hit.
    ASSERT_TRUE(doRead(8192, 8192, big));
    const uint64_t misses = server_->cache()->misses();
    ASSERT_TRUE(doRead(8192 + 1024, 512, small));
    EXPECT_EQ(server_->cache()->misses(), misses);
}

TEST_F(V3ServerTest, MultiBlockReadCountsPerBlock)
{
    const Addr buf = host_.memory().allocate(64 * 1024);
    ASSERT_TRUE(doRead(0, 64 * 1024, buf)); // 8 blocks
    // Miss-run coalescing: the 8 cold blocks were fetched with one
    // disk run, counted as one miss event.
    EXPECT_GE(server_->cache()->misses(), 1u);
    EXPECT_EQ(server_->cache()->residentBlocks(), 8u);
    ASSERT_TRUE(doRead(0, 64 * 1024, buf));
    EXPECT_EQ(server_->cache()->hits(), 8u);
}

TEST_F(V3ServerTest, WriteUpdatesCachedBlock)
{
    const Addr wbuf = host_.memory().allocate(8192);
    const Addr rbuf = host_.memory().allocate(8192);

    // Read to populate the cache, then overwrite, then read again:
    // the second read must see the new data (write-through update)
    // and still be a cache hit.
    ASSERT_TRUE(doRead(16384, 8192, rbuf));
    host_.memory().fill(wbuf, 0x77, 8192);
    ASSERT_TRUE(doWrite(16384, 8192, wbuf));
    const uint64_t misses = server_->cache()->misses();
    ASSERT_TRUE(doRead(16384, 8192, rbuf));
    EXPECT_EQ(server_->cache()->misses(), misses);

    std::vector<uint8_t> out(8192);
    host_.memory().read(rbuf, out.data(), out.size());
    for (const uint8_t v : out)
        ASSERT_EQ(v, 0x77);
}

TEST_F(V3ServerTest, PartialBlockWriteUpdatesResidentPortion)
{
    const Addr wbuf = host_.memory().allocate(8192);
    const Addr rbuf = host_.memory().allocate(8192);
    ASSERT_TRUE(doRead(0, 8192, rbuf)); // resident, zeros
    host_.memory().fill(wbuf, 0xAA, 512);
    ASSERT_TRUE(doWrite(1024, 512, wbuf)); // middle 512 bytes
    ASSERT_TRUE(doRead(0, 8192, rbuf));    // cache hit
    std::vector<uint8_t> out(8192);
    host_.memory().read(rbuf, out.data(), out.size());
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1024], 0xAA);
    EXPECT_EQ(out[1535], 0xAA);
    EXPECT_EQ(out[1536], 0);
}

TEST_F(V3ServerTest, WritesAreDurableOnDisk)
{
    const Addr wbuf = host_.memory().allocate(8192);
    host_.memory().fill(wbuf, 0x5C, 8192);
    ASSERT_TRUE(doWrite(32768, 8192, wbuf));
    // The write committed to the spindles before completing.
    EXPECT_GE(test::diskOps(*server_), 1u);
}

TEST_F(V3ServerTest, DedupFilterPrunedByAckWatermark)
{
    const Addr buf = host_.memory().allocate(8192);
    for (int i = 0; i < 30; ++i)
        ASSERT_TRUE(doRead(static_cast<uint64_t>(i) * 8192, 8192,
                           buf));
    // With everything completed and acked, the per-connection dedup
    // filter must not grow without bound: the next request's
    // ack_below prunes all completed sequences, leaving only the
    // most recent window.
    ASSERT_TRUE(doRead(0, 8192, buf));
    // 31 requests done; the filter holds at most the unacked tail
    // (the last request; the hello never enters it).
    EXPECT_LE(server_->dedupEntries(), 2u);
    EXPECT_EQ(server_->retransmitHits(), 0u);
}

class V3ServerPhantomHostTest : public V3ServerTest
{
  protected:
    // No cache: the read is served as transfers larger than one cLan
    // packet, so each one arrives as several RDMA fragments.
    V3ServerPhantomHostTest() : V3ServerTest(0, /*phantom_host=*/true) {}
};

TEST_F(V3ServerPhantomHostTest, DamageInLaterReadFragmentIsRetransmitted)
{
    // A phantom host has no bytes to digest, so the RDMA taint of the
    // buffer a damaged fragment lands in is the only evidence. Damage
    // only the second data fragment of a 128 KiB read (it lands past
    // the buffer base): the read must be retransmitted, not accepted.
    int data_fragments = 0;
    fabric_.setCorruptFilter([&](const net::Packet &packet) {
        if (packet.dst != nic_->port() || packet.wire_bytes < 4096)
            return false;
        return ++data_fragments == 2;
    });
    const Addr buf = host_.memory().allocate(128 * 1024);
    ASSERT_TRUE(doRead(0, 128 * 1024, buf));
    EXPECT_GE(data_fragments, 4); // the transfer, then its retransmission
    EXPECT_EQ(client_->digestMismatchCount(), 1u);
    EXPECT_EQ(client_->retransmitCount(), 1u);
}

class V3ServerNoCacheTest : public V3ServerTest
{
  protected:
    V3ServerNoCacheTest() : V3ServerTest(0) {}
};

TEST_F(V3ServerNoCacheTest, CacheOffPathRoundTrips)
{
    ASSERT_EQ(server_->cache(), nullptr);
    const Addr wbuf = host_.memory().allocate(16384);
    const Addr rbuf = host_.memory().allocate(16384);
    std::vector<uint8_t> pattern(16384);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i % 253);
    host_.memory().write(wbuf, pattern.data(), pattern.size());

    ASSERT_TRUE(doWrite(8192, 16384, wbuf));
    ASSERT_TRUE(doRead(8192, 16384, rbuf));
    std::vector<uint8_t> out(16384);
    host_.memory().read(rbuf, out.data(), out.size());
    EXPECT_EQ(out, pattern);
    // Every read went to the spindles.
    EXPECT_GE(test::diskOps(*server_), 2u);
}

TEST_F(V3ServerNoCacheTest, UnalignedReadServedViaAlignedEnvelope)
{
    const Addr buf = host_.memory().allocate(1000);
    EXPECT_TRUE(doRead(700, 1000, buf)); // not sector aligned
}

} // namespace
} // namespace v3sim::storage
