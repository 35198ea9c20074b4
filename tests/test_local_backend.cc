/**
 * @file
 * Unit tests for the local-disk baseline: kernel-path accounting,
 * interrupt coalescing, and concurrency over a striped local array.
 */

#include <gtest/gtest.h>

#include "dsa/local_backend.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"

namespace v3sim::dsa
{
namespace
{

using sim::Addr;
using sim::Task;

class LocalBackendTestFixture : public ::testing::Test
{
  protected:
    LocalBackendTestFixture()
        : sim_(9),
          host_(sim_, osmodel::NodeConfig{.name = "db", .cpus = 4}),
          volume_(sim_, disk::DiskSpec::scsi10k(), 4, "d", false,
                  64 * 1024),
          local_(host_, volume_)
    {}

    sim::Simulation sim_;
    osmodel::Node host_;
    disk::StripeVolume volume_;
    LocalBackend local_;
};

TEST_F(LocalBackendTestFixture, LatencyDominatedByDisk)
{
    const Addr buf = host_.memory().allocate(8192);
    sim::spawn([](LocalBackend &dev, Addr b) -> Task<> {
        for (int i = 0; i < 50; ++i)
            co_await dev.read(static_cast<uint64_t>(i) * 999424,
                              8192, b);
    }(local_, buf));
    sim_.run();
    // Random-ish 8K reads: milliseconds, not microseconds.
    EXPECT_GT(local_.latency().mean(), 1e6);
    EXPECT_LT(local_.latency().mean(), 20e6);
    EXPECT_EQ(local_.ioCount(), 50u);
}

TEST_F(LocalBackendTestFixture, InterruptCoalescingUnderConcurrency)
{
    // A controller-cache-fast device: completions cluster within the
    // coalescing window, so interrupts must merge.
    disk::DiskSpec fast;
    fast.model = "ramdisk";
    fast.rpm = 60000; // 1 ms rotation, ~immaterial with TCQ depth
    fast.track_to_track_seek = sim::usecs(1);
    fast.full_stroke_seek = sim::usecs(2);
    fast.media_rate_bps = 1e9;
    fast.controller_overhead = sim::usecs(2);
    disk::StripeVolume volume(sim_, fast, 1, "fast", false,
                              fast.capacity_bytes);
    LocalBackend fast_local(host_, volume);

    const int kIos = 64;
    int done = 0;
    for (int w = 0; w < kIos; ++w) {
        sim::spawn([](LocalBackend &dev, osmodel::Node &node, int id,
                      int &count) -> Task<> {
            const Addr buf = node.memory().allocate(8192);
            co_await dev.read(static_cast<uint64_t>(id) * 8192,
                              8192, buf);
            ++count;
        }(fast_local, host_, w, done));
    }
    sim_.run();
    EXPECT_EQ(done, kIos);
    // Coalescing: strictly fewer interrupts than completions.
    EXPECT_LT(fast_local.interruptCount(), fast_local.ioCount());
    EXPECT_GT(fast_local.interruptCount(), 0u);
}

TEST_F(LocalBackendTestFixture, KernelPathCostsPerIo)
{
    const Addr buf = host_.memory().allocate(8192);
    sim::spawn([](LocalBackend &dev, Addr b) -> Task<> {
        co_await dev.read(0, 8192, b);
    }(local_, buf));
    sim_.run();
    // One I/O: syscall + IRP both ways + pin/unpin + HBA + interrupt
    // + context switch — tens of microseconds of host CPU.
    const sim::Tick busy = host_.cpus().totalBusyTime();
    EXPECT_GT(busy, sim::usecs(15));
    EXPECT_LT(busy, sim::usecs(60));
    // No DSA or VI time on the local path.
    EXPECT_EQ(host_.cpus().busyTime(osmodel::CpuCat::Dsa), 0);
    EXPECT_EQ(host_.cpus().busyTime(osmodel::CpuCat::Vi), 0);
}

TEST_F(LocalBackendTestFixture, StripedParallelismAcrossSpindles)
{
    // 16 concurrent single-block reads spread over 4 spindles finish
    // far faster than 16 serialized ones would.
    sim::Tick elapsed = 0;
    sim::WaitGroup group;
    const sim::Tick start = sim_.now();
    for (int i = 0; i < 16; ++i) {
        group.add();
        sim::spawn([](LocalBackend &dev, osmodel::Node &node, int id,
                      sim::WaitGroup &g) -> Task<> {
            const Addr buf = node.memory().allocate(8192);
            // One stripe unit apart: spreads round-robin over the
            // four spindles.
            co_await dev.read(static_cast<uint64_t>(id) * 65536,
                              8192, buf);
            g.done();
        }(local_, host_, i, group));
    }
    sim::spawn([](sim::Simulation &s, sim::WaitGroup &g,
                  sim::Tick begin, sim::Tick &out) -> Task<> {
        co_await g.wait();
        out = s.now() - begin;
    }(sim_, group, start, elapsed));
    sim_.run();

    double service_sum = 0;
    for (size_t i = 0; i < volume_.diskCount(); ++i)
        service_sum += volume_.disk(i).serviceStats().sum();
    const double mean_service = service_sum / 16.0;
    // Wall time well under 16 serialized services.
    EXPECT_LT(static_cast<double>(elapsed), 10 * mean_service);
}

TEST_F(LocalBackendTestFixture, FailedMechanismReportsFalse)
{
    const Addr buf = host_.memory().allocate(8192);
    bool ok = true;
    sim::spawn([](LocalBackend &dev, Addr b, bool &out) -> Task<> {
        out = co_await dev.read(dev.capacity() + 4096, 8192, b);
    }(local_, buf, ok));
    sim_.run();
    EXPECT_FALSE(ok);
}

} // namespace
} // namespace v3sim::dsa
