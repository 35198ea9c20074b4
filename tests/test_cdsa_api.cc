/**
 * @file
 * Tests for the public cDSA API surface.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dsa/cdsa_api.hh"
#include "single_node_rig.hh"

namespace v3sim::dsa
{
namespace
{

using sim::Addr;
using sim::Task;

class CdsaApiTest : public ::testing::Test, public test::SingleNodeRig
{
  protected:
    CdsaApiTest()
        : SingleNodeRig({.seed = 77,
                         .server = test::serverWithCache(4 * util::kMiB)})
    {
        sim::spawn([](CdsaApiTest *test) -> Task<> {
            test->api_ = co_await CdsaApi::open(
                test->host_, *test->nic_, test->server_->nic().port());
        }(this));
        sim_.run();
    }

    std::unique_ptr<CdsaApi> api_;
};

TEST_F(CdsaApiTest, OpenYieldsConnectedVolume)
{
    ASSERT_NE(api_, nullptr);
    const CdsaVolumeInfo info = api_->volumeInfo();
    EXPECT_TRUE(info.connected);
    EXPECT_GT(info.capacity_bytes, 0u);
    EXPECT_EQ(info.block_size, 8192u);
}

TEST_F(CdsaApiTest, SyncReadWrite)
{
    ASSERT_NE(api_, nullptr);
    const Addr wbuf = host_.memory().allocate(8192);
    const Addr rbuf = host_.memory().allocate(8192);
    host_.memory().fill(wbuf, 0x42, 8192);
    bool wrote = false, read = false;
    sim::spawn([](CdsaApi &api, Addr w, Addr r, bool &wo,
                  bool &ro) -> Task<> {
        wo = co_await api.write(0, 8192, w);
        ro = co_await api.read(0, 8192, r);
    }(*api_, wbuf, rbuf, wrote, read));
    sim_.run();
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
    uint8_t byte = 0;
    host_.memory().read(rbuf, &byte, 1);
    EXPECT_EQ(byte, 0x42);
}

TEST_F(CdsaApiTest, AsyncHandlePollAndWait)
{
    ASSERT_NE(api_, nullptr);
    const Addr buf = host_.memory().allocate(8192);
    CdsaIoHandle handle = api_->readAsync(0, 8192, buf);
    ASSERT_NE(handle, nullptr);
    EXPECT_FALSE(api_->poll(handle)); // nothing ran yet
    EXPECT_TRUE(api_->cancel(handle)); // still cancellable
    bool ok = false;
    sim::spawn([](CdsaApi &api, CdsaIoHandle h, bool &out) -> Task<> {
        out = co_await api.wait(h);
    }(*api_, handle, ok));
    sim_.run();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(api_->poll(handle));
    EXPECT_FALSE(api_->cancel(handle)); // completed stays completed
}

TEST_F(CdsaApiTest, ScatterGatherRoundTrip)
{
    ASSERT_NE(api_, nullptr);
    std::vector<CdsaSegment> write_segments;
    std::vector<CdsaSegment> read_segments;
    for (int i = 0; i < 3; ++i) {
        CdsaSegment w;
        w.offset = static_cast<uint64_t>(i) * 32768;
        w.len = 8192;
        w.buffer = host_.memory().allocate(8192);
        host_.memory().fill(w.buffer,
                            static_cast<uint8_t>(0x10 + i), 8192);
        write_segments.push_back(w);
        CdsaSegment r = w;
        r.buffer = host_.memory().allocate(8192);
        read_segments.push_back(r);
    }
    bool wrote = false, read = false;
    sim::spawn([](CdsaApi &api, std::vector<CdsaSegment> &w,
                  std::vector<CdsaSegment> &r, bool &wo,
                  bool &ro) -> Task<> {
        wo = co_await api.writeScatter(w);
        ro = co_await api.readGather(r);
    }(*api_, write_segments, read_segments, wrote, read));
    sim_.run();
    ASSERT_TRUE(wrote);
    ASSERT_TRUE(read);
    for (int i = 0; i < 3; ++i) {
        uint8_t byte = 0;
        host_.memory().read(read_segments[static_cast<size_t>(i)]
                                .buffer,
                            &byte, 1);
        EXPECT_EQ(byte, 0x10 + i);
    }
}

TEST_F(CdsaApiTest, StatsReflectTraffic)
{
    ASSERT_NE(api_, nullptr);
    const Addr buf = host_.memory().allocate(8192);
    sim::spawn([](CdsaApi &api, Addr b) -> Task<> {
        for (int i = 0; i < 5; ++i)
            co_await api.read(static_cast<uint64_t>(i) * 8192, 8192,
                              b);
    }(*api_, buf));
    sim_.run();
    const CdsaStats stats = api_->stats();
    EXPECT_EQ(stats.ios, 5u);
    EXPECT_EQ(stats.retransmits, 0u);
    EXPECT_GT(stats.polled_completions + stats.interrupt_completions,
              0u);
    api_->close();
}

} // namespace
} // namespace v3sim::dsa
