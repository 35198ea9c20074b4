/**
 * @file
 * Integration tests for the scenarios layer: testbed assembly, the
 * micro-benchmark rig, the raw-VI reference, and paper-shape
 * assertions that guard the figure benches.
 */

#include <gtest/gtest.h>

#include "scenarios/microbench.hh"
#include "scenarios/tpcc_run.hh"

namespace v3sim::scenarios
{
namespace
{

TEST(Testbed, AssemblesV3Platform)
{
    // The same four nodes under each layout: striped, node pairs
    // mirrored (RAID-10), and RAID-10 run as a cluster volume service.
    uint64_t striped_capacity = 0;
    for (const Layout layout :
         {Layout::Striped, Layout::Mirrored, Layout::Cluster}) {
        SCOPED_TRACE(static_cast<int>(layout));
        StorageParams storage = StorageParams::midSize();
        storage.layout = layout;
        Testbed testbed(Backend::Cdsa, HostParams::midSize(), storage);
        EXPECT_TRUE(testbed.connectAll());
        EXPECT_EQ(testbed.servers().size(), 4u);
        EXPECT_EQ(testbed.sessions().size(), 4u);
        EXPECT_EQ(testbed.clients().size(), 4u);
        EXPECT_GT(testbed.device().capacity(), 0u);
        // 4 nodes x 15 disks.
        size_t disks = 0;
        for (auto &server : testbed.servers())
            disks += server->volume().diskCount();
        EXPECT_EQ(disks, 60u);

        const bool cluster = layout == Layout::Cluster;
        EXPECT_EQ(testbed.mirrors().size(),
                  layout == Layout::Striped ? 0u : 2u);
        EXPECT_EQ(testbed.meta() != nullptr, cluster);
        EXPECT_EQ(testbed.directory() != nullptr, cluster);
        EXPECT_EQ(testbed.nodeTargets().size(), cluster ? 4u : 0u);
        // A mirror exposes one leg's capacity: half the striped
        // volume.
        if (layout == Layout::Striped)
            striped_capacity = testbed.device().capacity();
        else
            EXPECT_EQ(testbed.device().capacity(), striped_capacity / 2);
    }
}

TEST(Testbed, AssemblesLocalPlatform)
{
    StorageParams storage = StorageParams::midSize();
    storage.local_disks = 32;
    Testbed testbed(Backend::Local, HostParams::midSize(), storage);
    EXPECT_TRUE(testbed.connectAll());
    // One session, the local HBA path; no V3 nodes, no DSA clients.
    EXPECT_EQ(testbed.sessions().size(), 1u);
    EXPECT_TRUE(testbed.clients().empty());
    EXPECT_TRUE(testbed.servers().empty());
    // 32 disks "local.d<i>" striped in whole 64 KiB units.
    const uint64_t unit = 64 * util::kKiB;
    EXPECT_EQ(testbed.device().capacity(),
              32 * (storage.disk_spec.capacity_bytes / unit) * unit);
    const sim::MetricRegistry &registry = testbed.sim().metrics();
    EXPECT_TRUE(registry.contains("disk.local.d31.completed"));
    EXPECT_FALSE(registry.contains("disk.local.d32.completed"));
}

#ifndef NDEBUG // the layout check is an assert
TEST(TestbedDeathTest, OnlyDsaClientsPairIntoMirrors)
{
    StorageParams storage;
    storage.layout = Layout::Mirrored;
    EXPECT_DEATH(Testbed(Backend::Local, HostParams::midSize(), storage),
                 "DSA clients");
    storage.layout = Layout::Cluster;
    EXPECT_DEATH(Testbed(Backend::Iscsi, HostParams::midSize(), storage),
                 "DSA clients");
}
#endif

TEST(RawVi, SmallMessageNearSevenMicroseconds)
{
    const double one_way_us = rawViLatencyUs(64, 40) / 2.0;
    // Round trip includes client-side reg/dereg + interrupt; the
    // paper's 7 us is the bare one-way. Accept the band.
    EXPECT_GT(one_way_us, 4.0);
    EXPECT_LT(one_way_us, 18.0);
}

TEST(RawVi, LatencyGrowsWithSize)
{
    const double at_512 = rawViLatencyUs(512, 30);
    const double at_8k = rawViLatencyUs(8192, 30);
    const double at_16k = rawViLatencyUs(16384, 30);
    EXPECT_LT(at_512, at_8k);
    EXPECT_LT(at_8k, at_16k);
    // 8K adds ~70us of serialization at 110 MB/s.
    EXPECT_NEAR(at_8k - at_512, 70.0, 25.0);
}

TEST(MicroRig, CachedReadsFasterThanUncached)
{
    MicroRig::Config cached_config;
    cached_config.backend = Backend::Kdsa;
    MicroRig cached(cached_config);
    const auto hit = cached.measureLatency(8192, true, 40, true);

    MicroRig::Config uncached_config;
    uncached_config.backend = Backend::Kdsa;
    uncached_config.cache_bytes = 0;
    MicroRig uncached(uncached_config);
    const auto miss = uncached.measureLatency(8192, true, 40, false);

    // Cache hits are ~0.1-0.2 ms; disk misses are milliseconds.
    EXPECT_LT(hit.mean_us, 400.0);
    EXPECT_GT(miss.mean_us, 2000.0);
}

TEST(MicroRig, ThroughputSaturatesWithOutstanding)
{
    MicroRig::Config config;
    config.backend = Backend::Kdsa;
    MicroRig rig(config);
    const auto one =
        rig.measureThroughput(8192, true, 1, sim::msecs(100), true);
    const auto four =
        rig.measureThroughput(8192, true, 4, sim::msecs(100), true);
    const auto eight =
        rig.measureThroughput(8192, true, 8, sim::msecs(100), true);
    EXPECT_GT(four.mbps, one.mbps * 1.3);
    // Figure 6: 4 outstanding saturate the ~110 MB/s link at 8K.
    EXPECT_NEAR(four.mbps, 108.0, 10.0);
    EXPECT_NEAR(eight.mbps, four.mbps, 8.0);
}

TEST(MicroRig, UncachedVsLocalWithinBand)
{
    MicroRig::Config v3_config;
    v3_config.backend = Backend::Kdsa;
    v3_config.cache_bytes = 0;
    MicroRig v3(v3_config);
    const auto rv = v3.measureLatency(8192, true, 80, false);

    MicroRig::Config local_config;
    local_config.backend = Backend::Local;
    MicroRig local(local_config);
    const auto rl = local.measureLatency(8192, true, 80, false);

    // Figure 7: V3 within ~3% of local below 64K.
    EXPECT_LT(rv.mean_us / rl.mean_us, 1.06);
    EXPECT_GT(rv.mean_us / rl.mean_us, 0.97);
}

TEST(MicroRig, SessionQuantilesOnEveryBackend)
{
    // Every backend's session feeds the rig's tail latencies.
    for (const Backend backend : {Backend::Local, Backend::Kdsa,
                                  Backend::Wdsa, Backend::Cdsa,
                                  Backend::Iscsi}) {
        SCOPED_TRACE(backendName(backend));
        MicroRig::Config config;
        config.backend = backend;
        MicroRig rig(config);
        ASSERT_TRUE(rig.ready());
        EXPECT_GT(rig.measureLatency(8192, true, 10, true).p50_us, 0.0);
        const auto window =
            rig.measureThroughput(8192, true, 4, sim::msecs(20), true);
        EXPECT_GT(window.p95_us, 0.0);
        EXPECT_LE(window.p95_us, window.p99_us);
    }
}

TEST(TpccRun, SmokeRunProducesSaneNumbers)
{
    TpccRunConfig config;
    config.platform = Platform::MidSize;
    config.backend = Backend::Cdsa;
    config.warmup = sim::msecs(100);
    config.window = sim::msecs(300);
    const TpccRunResult result = runTpcc(config);
    EXPECT_GT(result.oltp.tpmc, 0);
    EXPECT_GT(result.oltp.total_tpm, result.oltp.tpmc);
    EXPECT_GT(result.oltp.cpu_utilization, 0.3);
    EXPECT_LE(result.oltp.cpu_utilization, 1.0 + 1e-9);
    // Section 6.2's headline: the V3 cache absorbs a substantial
    // fraction of reads.
    EXPECT_GT(result.server_cache_hit, 0.25);
    EXPECT_LT(result.server_cache_hit, 0.60);
    EXPECT_EQ(result.retransmits, 0u);
}

TEST(TpccRun, WorkloadConfigsMatchPaperScale)
{
    const tpcc::TpccConfig mid = platformWorkload(Platform::MidSize);
    const tpcc::TpccConfig large = platformWorkload(Platform::Large);
    EXPECT_EQ(mid.warehouses, 1625u);
    EXPECT_EQ(large.warehouses, 10000u);
    // Scaled working sets keep the paper's ~1:10 ratio.
    const double ratio =
        static_cast<double>(large.workingSetBytes()) /
        static_cast<double>(mid.workingSetBytes());
    EXPECT_NEAR(ratio, 9.6, 1.0);
    EXPECT_DOUBLE_EQ(mid.read_fraction, 0.70);
}

TEST(TpccRun, ConfigKeysOnItsDsaSettings)
{
    // Spelling out the default watermarks and credits is the default
    // run; any other DSA setting is a different run.
    TpccRunConfig spelled;
    spelled.dsa.intr_high_watermark = 4;
    spelled.dsa.intr_low_watermark = 2;
    spelled.dsa.max_outstanding = 64;
    EXPECT_EQ(spelled, TpccRunConfig{});

    TpccRunConfig polled;
    polled.dsa.poll_interval = sim::usecs(50);
    EXPECT_NE(polled, TpccRunConfig{});
    EXPECT_TRUE(polled < TpccRunConfig{} || TpccRunConfig{} < polled);
}

TEST(TpccRun, BackendNamesRoundTrip)
{
    EXPECT_STREQ(backendName(Backend::Local), "Local");
    EXPECT_STREQ(backendName(Backend::Kdsa), "kDSA");
    EXPECT_STREQ(backendName(Backend::Wdsa), "wDSA");
    EXPECT_STREQ(backendName(Backend::Cdsa), "cDSA");
    EXPECT_EQ(backendImpl(Backend::Cdsa), dsa::DsaImpl::Cdsa);
}

} // namespace
} // namespace v3sim::scenarios
