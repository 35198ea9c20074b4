/**
 * @file
 * Tests for dsa::MirroredDevice: write duplication, round-robin
 * reads, failover on node crash, background resync, readmission,
 * and end-to-end data correctness of a resynced replica.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenarios/testbed.hh"
#include "util/crc32c.hh"

namespace v3sim::dsa
{
namespace
{

using scenarios::Backend;
using scenarios::HostParams;
using scenarios::StorageParams;
using scenarios::Testbed;
using sim::Addr;
using sim::Task;

constexpr uint64_t kIo = 8192;

/** A mirrored 2-node testbed with failure detection fast enough
 *  that a client declares its node dead well inside the scripted
 *  outage windows the tests use. */
class MirroredDeviceTest : public ::testing::Test
{
  protected:
    MirroredDeviceTest()
    {
        dsa::DsaConfig dsa_config;
        dsa_config.retransmit_timeout = sim::msecs(12);
        dsa_config.max_retransmits = 1;
        dsa_config.reconnect_delay = sim::msecs(1);
        dsa_config.max_reconnect_attempts = 2;
        dsa_config.connect_timeout = sim::msecs(3);

        StorageParams storage_params;
        storage_params.v3_nodes = 2;
        storage_params.disks_per_node = 2;
        storage_params.cache_bytes_per_node = 4 * util::kMiB;
        storage_params.layout = scenarios::Layout::Mirrored;
        storage_params.mirror.probe_interval = sim::msecs(2);

        bed_ = std::make_unique<Testbed>(
            Backend::Cdsa, HostParams::midSize(), storage_params,
            dsa_config, /*seed=*/11);
        EXPECT_TRUE(bed_->connectAll());
        buffer_ = bed_->host().memory().allocate(kIo);
    }

    MirroredDevice &mirror() { return *bed_->mirrors().front(); }

    storage::V3Server &server(size_t n)
    {
        return *bed_->servers()[n];
    }

    /** Runs @p count sequential I/Os (every third a write); returns
     *  how many succeeded. Bounded with runUntil rather than run():
     *  a down replica's resync task probes it forever, so the event
     *  queue never empties while a node stays crashed. */
    int
    runIos(int count, sim::Tick bound = sim::msecs(2000))
    {
        int succeeded = 0;
        sim::spawn([](sim::Simulation &s, BlockDevice &device,
                      Addr buf, int n, int &out) -> Task<> {
            for (int i = 0; i < n; ++i) {
                const uint64_t offset =
                    static_cast<uint64_t>(i % 16) * kIo;
                const bool ok =
                    i % 3 == 0
                        ? co_await device.write(offset, kIo, buf)
                        : co_await device.read(offset, kIo, buf);
                if (ok)
                    ++out;
                co_await s.sleep(sim::usecs(500));
            }
        }(bed_->sim(), bed_->device(), buffer_, count, succeeded));
        bed_->sim().runUntil(bed_->sim().now() + bound);
        return succeeded;
    }

    /** One I/O through the mirror; returns its status. */
    bool
    oneIo(bool write, uint64_t offset, Addr buf)
    {
        bool ok = false;
        sim::spawn([](BlockDevice &device, bool w, uint64_t off,
                      Addr b, bool &out) -> Task<> {
            out = w ? co_await device.write(off, kIo, b)
                    : co_await device.read(off, kIo, b);
        }(bed_->device(), write, offset, buf, ok));
        bed_->sim().runUntil(bed_->sim().now() + sim::msecs(200));
        return ok;
    }

    Addr
    patternBuffer(uint8_t salt)
    {
        const Addr buffer = bed_->host().memory().allocate(kIo);
        std::vector<uint8_t> data(kIo);
        for (uint64_t i = 0; i < kIo; ++i)
            data[i] = static_cast<uint8_t>((i * 7 + salt) & 0xFF);
        bed_->host().memory().write(buffer, data.data(), kIo);
        return buffer;
    }

    bool
    checkPattern(Addr buffer, uint8_t salt)
    {
        std::vector<uint8_t> data(kIo);
        bed_->host().memory().read(buffer, data.data(), kIo);
        for (uint64_t i = 0; i < kIo; ++i) {
            if (data[i] !=
                static_cast<uint8_t>((i * 7 + salt) & 0xFF)) {
                return false;
            }
        }
        return true;
    }

    std::unique_ptr<Testbed> bed_;
    Addr buffer_ = sim::kNullAddr;
};

TEST_F(MirroredDeviceTest, WritesDuplicateAndReadsRoundRobin)
{
    EXPECT_EQ(runIos(30), 30);

    // 10 of the 30 I/Os are writes: every replica applied each one.
    EXPECT_EQ(server(0).writeCount(), 10u);
    EXPECT_EQ(server(1).writeCount(), 10u);

    // The 20 reads round-robin across both replicas.
    EXPECT_EQ(server(0).readCount() + server(1).readCount(), 20u);
    EXPECT_GT(server(0).readCount(), 0u);
    EXPECT_GT(server(1).readCount(), 0u);

    EXPECT_EQ(mirror().activeReplicas(), 2u);
    EXPECT_FALSE(mirror().degraded());
    EXPECT_EQ(mirror().failoverCount(), 0u);
}

TEST_F(MirroredDeviceTest, NodeCrashFailoverResyncReadmit)
{
    // Crash node 0 shortly into the workload, restart it while the
    // workload is still running. Client-side death takes at most
    // ~12*2 (retransmit exhaustion) + 2*(3+1) ms (reconnect
    // attempts), well inside the 60 ms outage.
    bed_->faults().scheduleNodeOutage(
        bed_->sim().now() + sim::msecs(5),
        bed_->sim().now() + sim::msecs(65), server(0));

    // ~150 ms of I/O: outage, degraded operation, resync, readmit.
    EXPECT_EQ(runIos(100), 100);

    EXPECT_EQ(server(0).crashCount(), 1u);
    EXPECT_EQ(server(0).restartCount(), 1u);
    EXPECT_GE(mirror().failoverCount(), 1u);
    EXPECT_EQ(mirror().readmitCount(), 1u);
    EXPECT_EQ(mirror().activeReplicas(), 2u);
    EXPECT_FALSE(mirror().degraded());
    EXPECT_EQ(mirror().dirtyBytes(), 0u);
    EXPECT_GT(mirror().resyncBytes(), 0u);
}

TEST_F(MirroredDeviceTest, ResyncedReplicaServesLatestData)
{
    // Seed every block with pattern A, mirrored to both nodes.
    const Addr buf_a = patternBuffer(1);
    for (uint64_t b = 0; b < 8; ++b)
        EXPECT_TRUE(oneIo(true, b * kIo, buf_a));

    // Crash node 0 and let its client die (a read cycles through it).
    server(0).crash();
    EXPECT_EQ(runIos(12), 12);
    ASSERT_TRUE(mirror().degraded());

    // Overwrite half the blocks with pattern B while degraded: only
    // the survivor sees these, the mirror logs them dirty.
    const Addr buf_b = patternBuffer(2);
    for (uint64_t b = 0; b < 4; ++b)
        EXPECT_TRUE(oneIo(true, b * kIo, buf_b));
    EXPECT_GT(mirror().dirtyBytes(), 0u);

    // Restart; background resync replays the missed writes and
    // readmits the node. Idle time only — no foreground I/O.
    server(0).restart();
    bed_->sim().runUntil(bed_->sim().now() + sim::msecs(200));
    ASSERT_EQ(mirror().readmitCount(), 1u);
    ASSERT_EQ(mirror().dirtyBytes(), 0u);

    // Kill the survivor: reads can now only come from the resynced
    // node 1... which must serve pattern B, not the stale pattern A.
    server(1).crash();
    const Addr rbuf = bed_->host().memory().allocate(kIo);
    for (uint64_t b = 0; b < 4; ++b) {
        ASSERT_TRUE(oneIo(false, b * kIo, rbuf));
        EXPECT_TRUE(checkPattern(rbuf, 2)) << "stale block " << b;
    }
    for (uint64_t b = 4; b < 8; ++b) {
        ASSERT_TRUE(oneIo(false, b * kIo, rbuf));
        EXPECT_TRUE(checkPattern(rbuf, 1)) << "stale block " << b;
    }
}

/**
 * Double fault: the healthy leg crashes while it is the resync
 * source for the other leg, with a write still in flight — so *both*
 * legs end up failed with non-empty dirty logs. Without the
 * fallback-source rule in resyncTask this wedges permanently (each
 * leg waits for an *active* source that can only appear when the
 * other readmits); with it, the earlier-failed leg drains from the
 * later-failed one, readmits, and the mirror heals. The whole
 * scenario is driven at fixed step sizes and fingerprinted so it can
 * be checked for tie-shuffle invariance (DESIGN.md §8).
 */
struct DoubleFaultOutcome
{
    bool connect_ok = false;
    bool degraded_after_crash0 = false;
    bool mid_resync_at_crash1 = false;
    bool w_ok = true;
    uint64_t leg1_dirty_after_w = 0;
    uint64_t failovers = 0;
    uint64_t readmits = 0;
    size_t active_end = 0;
    uint64_t dirty_end = 0;
    uint64_t resync_bytes = 0;
    int stale_blocks_leg0 = -1;
    uint32_t metrics_crc = 0;
};

DoubleFaultOutcome
runDoubleFault(uint64_t tie_seed)
{
    constexpr uint64_t kBlocks = 256;    // pattern-B range, 2 MiB
    constexpr uint64_t kSeedBase = 256;  // pattern-A range start
    constexpr uint64_t kStray = 512;     // the in-flight write W

    DoubleFaultOutcome out;

    dsa::DsaConfig dsa_config;
    dsa_config.retransmit_timeout = sim::msecs(12);
    dsa_config.max_retransmits = 1;
    dsa_config.reconnect_delay = sim::msecs(1);
    dsa_config.max_reconnect_attempts = 2;
    dsa_config.connect_timeout = sim::msecs(3);

    StorageParams storage_params;
    storage_params.v3_nodes = 2;
    storage_params.disks_per_node = 2;
    storage_params.cache_bytes_per_node = 4 * util::kMiB;
    storage_params.layout = scenarios::Layout::Mirrored;
    storage_params.mirror.probe_interval = sim::msecs(2);

    Testbed bed(Backend::Cdsa, HostParams::midSize(),
                storage_params, dsa_config, /*seed=*/11);
    bed.sim().queue().setTieShuffle(tie_seed);
    out.connect_ok = bed.connectAll();
    if (!out.connect_ok)
        return out;
    sim::Simulation &sim = bed.sim();
    MirroredDevice &mirror = *bed.mirrors().front();

    const auto pattern = [&bed](uint8_t salt) {
        const Addr buffer = bed.host().memory().allocate(kIo);
        std::vector<uint8_t> data(kIo);
        for (uint64_t i = 0; i < kIo; ++i)
            data[i] = static_cast<uint8_t>((i * 7 + salt) & 0xFF);
        bed.host().memory().write(buffer, data.data(), kIo);
        return buffer;
    };
    // Sequential block I/Os; returns how many succeeded.
    const auto runBlocks = [&bed](bool write, uint64_t first,
                                  uint64_t count, Addr buf,
                                  sim::Tick bound) {
        int succeeded = 0;
        sim::spawn([](BlockDevice &device, bool w, uint64_t from,
                      uint64_t n, Addr b, int &ok) -> Task<> {
            for (uint64_t i = 0; i < n; ++i) {
                const uint64_t off = (from + i) * kIo;
                const bool good =
                    w ? co_await device.write(off, kIo, b)
                      : co_await device.read(off, kIo, b);
                if (good)
                    ++ok;
            }
        }(bed.device(), write, first, count, buf, succeeded));
        bed.sim().runUntil(bed.sim().now() + bound);
        return succeeded;
    };

    const Addr buf_a = pattern(1);
    const Addr buf_b = pattern(2);
    const Addr buf_c = pattern(3);
    const Addr scratch = bed.host().memory().allocate(kIo);

    // Healthy seeding: pattern A on [kSeedBase, kSeedBase+kBlocks).
    if (runBlocks(true, kSeedBase, kBlocks, buf_a,
                  sim::msecs(400)) != static_cast<int>(kBlocks)) {
        return out;
    }

    // Crash node 0; churn reads until its client dies and the mirror
    // fails the leg over.
    bed.servers()[0]->crash();
    runBlocks(false, 600, 8, scratch, sim::msecs(300));
    out.degraded_after_crash0 =
        mirror.degraded() && !mirror.legActive(0);
    if (!out.degraded_after_crash0)
        return out;

    // Degraded writes: pattern B on [0, kBlocks) lands only on leg 1
    // and fills leg 0's dirty log (2 MiB — several resync batches).
    if (runBlocks(true, 0, kBlocks, buf_b, sim::msecs(400)) !=
        static_cast<int>(kBlocks)) {
        return out;
    }

    // Restart node 0 and step until its resync enters catch-up (the
    // revive probe backs off, so the instant isn't fixed — but it is
    // deterministic, so stepping to the condition keeps both runs of
    // a determinism pair aligned).
    bed.servers()[0]->restart();
    for (int guard = 0; guard < 400 && !mirror.legCatchingUp(0);
         ++guard) {
        sim.runUntil(sim.now() + sim::usecs(500));
    }
    out.mid_resync_at_crash1 =
        mirror.legCatchingUp(0) && mirror.dirtyBytes() > 0;

    // Put a write in flight (it will be reported failed: leg 1 dies
    // under it, and leg 0 is only catching up) and crash the resync
    // source mid-replay.
    bool w_ok = true;
    sim::spawn([](BlockDevice &device, Addr b, bool &ok) -> Task<> {
        ok = co_await device.write(kStray * kIo, kIo, b);
    }(bed.device(), buf_c, w_ok));
    sim.runUntil(sim.now() + sim::usecs(50));
    bed.servers()[1]->crash();

    // Let the crash propagate: W fails, the replay reads fail, leg 1
    // fails over with W's region dirty. Both legs are now down.
    sim.runUntil(sim.now() + sim::msecs(60));
    out.w_ok = w_ok;
    out.leg1_dirty_after_w = mirror.legDirtyBytes(1);

    // Restart node 1: leg 0 drains from the later-failed leg 1 (the
    // fallback source), readmits, then serves as the active source
    // for leg 1's own residue.
    bed.servers()[1]->restart();
    sim.runUntil(sim.now() + sim::msecs(500));

    out.failovers = mirror.failoverCount();
    out.readmits = mirror.readmitCount();
    out.active_end = mirror.activeReplicas();
    out.dirty_end = mirror.dirtyBytes();
    out.resync_bytes = mirror.resyncBytes();

    // No write lost: leg 0 alone must serve pattern B on [0, kBlocks)
    // and pattern A on the seeded range. (W is excluded: it was
    // *reported failed*, so either content is within contract.)
    bed.servers()[1]->crash();
    runBlocks(false, 600, 4, scratch, sim::msecs(300));
    const auto checkRange = [&](uint64_t first, uint64_t count,
                                uint8_t salt) {
        int stale = 0;
        for (uint64_t b = 0; b < count; ++b) {
            if (runBlocks(false, first + b, 1, scratch,
                          sim::msecs(20)) != 1) {
                ++stale;
                continue;
            }
            std::vector<uint8_t> data(kIo);
            bed.host().memory().read(scratch, data.data(), kIo);
            for (uint64_t i = 0; i < kIo; ++i) {
                if (data[i] != static_cast<uint8_t>(
                                   (i * 7 + salt) & 0xFF)) {
                    ++stale;
                    break;
                }
            }
        }
        return stale;
    };
    out.stale_blocks_leg0 = checkRange(0, kBlocks, 2) +
                            checkRange(kSeedBase, kBlocks, 1);

    const std::string metrics = sim.metrics().toJson();
    out.metrics_crc = util::crc32c(metrics.data(), metrics.size());
    return out;
}

TEST(MirroredDeviceDoubleFault, SourceCrashMidResyncConverges)
{
    const DoubleFaultOutcome out = runDoubleFault(1);
    ASSERT_TRUE(out.connect_ok);
    ASSERT_TRUE(out.degraded_after_crash0);
    // Scenario validity: the second crash really hit mid-resync and
    // left the later-failed leg with a dirty log of its own.
    EXPECT_TRUE(out.mid_resync_at_crash1);
    EXPECT_FALSE(out.w_ok);
    EXPECT_GT(out.leg1_dirty_after_w, 0u);
    // Both legs failed over once and both came back.
    EXPECT_EQ(out.failovers, 2u);
    EXPECT_EQ(out.readmits, 2u);
    EXPECT_EQ(out.active_end, 2u);
    EXPECT_EQ(out.dirty_end, 0u);
    EXPECT_GT(out.resync_bytes, 0u);
    // No committed write lost on the leg rebuilt via the fallback.
    EXPECT_EQ(out.stale_blocks_leg0, 0);
}

TEST(MirroredDeviceDoubleFault, DeterministicUnderTieShuffle)
{
    const DoubleFaultOutcome a = runDoubleFault(1);
    const DoubleFaultOutcome b = runDoubleFault(20020817);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.readmits, b.readmits);
    EXPECT_EQ(a.resync_bytes, b.resync_bytes);
    EXPECT_EQ(a.dirty_end, b.dirty_end);
    EXPECT_EQ(a.stale_blocks_leg0, b.stale_blocks_leg0);
    EXPECT_EQ(a.metrics_crc, b.metrics_crc);
}

} // namespace
} // namespace v3sim::dsa
