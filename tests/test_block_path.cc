/**
 * @file
 * Cache coherence of the storage-node block path (storage::BlockPath)
 * through both front ends that share it: V3Server behind a cDSA
 * client, and iscsi::Target behind an initiator.
 *
 * Race tests, over front end x cache policy x the delay between a
 * cold read (whose disk fill is then in flight) and a second I/O on
 * the same block:
 *  (a) a write racing the fill wins: a quiesced re-read returns the
 *      written bytes, not the pre-write bytes the fill captured;
 *  (b) a read racing the fill returns the block's bytes, never the
 *      previous contents of the frame being filled;
 *  (c) two cold reads of one block cost one disk read (miss
 *      coalescing).
 *
 * Stamped-content property test, over every backend (kDSA, wDSA,
 * cDSA, iSCSI and local): seeded concurrent 70/30 read/write mixes
 * over a hot set larger than the cache, every write stamped by
 * cluster::DurabilityAudit. Every good read must carry a stamp that
 * was written to that block and is no older than the block's settled
 * floor when the read was issued, and the quiesced audit must find
 * no lost or foreign block.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/write_audit.hh"
#include "dsa/dsa_client.hh"
#include "iscsi/initiator.hh"
#include "iscsi/target.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "scenarios/testbed.hh"
#include "sim/simulation.hh"
#include "single_node_rig.hh"
#include "storage/v3_server.hh"

namespace v3sim::storage
{
namespace
{

using sim::Addr;
using sim::Task;

constexpr uint64_t kBlock = 8192;

const char *
policyName(CachePolicy policy)
{
    return policy == CachePolicy::Mq ? "MQ" : "LRU";
}

using scenarios::Backend;

/** One storage node with a small cache on one disk, and one client
 *  session to it: a V3Server behind a cDSA client, or an
 *  iscsi::Target behind an initiator. */
class Rig
{
  public:
    Rig(Backend backend, CachePolicy policy)
        : sim_(21),
          fabric_(sim_.queue()),
          host_(sim_, osmodel::NodeConfig{.name = "db", .cpus = 4})
    {
        constexpr uint64_t kCacheBytes = 16 * kBlock;
        if (backend == Backend::Cdsa) {
            V3ServerConfig config;
            config.cache_bytes = kCacheBytes;
            config.cache_policy = policy;
            config.disk_count = 1;
            auto server = std::make_unique<V3Server>(sim_, fabric_, config);
            nic_ = std::make_unique<vi::ViNic>(sim_, fabric_,
                                               host_.memory(), "nic");
            session_ = std::make_unique<dsa::DsaClient>(
                dsa::DsaImpl::Cdsa, host_, *nic_, server->nic().port());
            node_ = std::move(server);
        } else {
            iscsi::TargetConfig config;
            config.cache_bytes = kCacheBytes;
            config.cache_policy = policy;
            config.disk_count = 1;
            auto target =
                std::make_unique<iscsi::Target>(sim_, fabric_, config);
            session_ = std::make_unique<iscsi::Initiator>(
                host_, fabric_, target->port(), iscsi::InitiatorConfig{});
            node_ = std::move(target);
        }
        sim::spawn([](dsa::Session &session, bool &out) -> Task<> {
            out = co_await session.connect();
        }(*session_, connected_));
        sim_.run();
    }

    bool connected() const { return connected_; }
    BlockCache &cache() { return *node_->cache(); }
    CacheKey key(uint64_t block) const { return CacheKey{0, block}; }
    uint64_t diskOps() const { return test::diskOps(*node_); }

    /** A block-sized host buffer filled with @p byte. */
    Addr
    buffer(uint8_t byte)
    {
        const Addr buf = host_.memory().allocate(kBlock);
        host_.memory().fill(buf, byte, kBlock);
        return buf;
    }

    /** True if every byte of the block-sized @p buf is @p byte. */
    bool
    holds(Addr buf, uint8_t byte)
    {
        std::vector<uint8_t> data(kBlock);
        host_.memory().read(buf, data.data(), kBlock);
        for (uint8_t b : data) {
            if (b != byte)
                return false;
        }
        return true;
    }

    /** One I/O of @p block, run to completion. */
    bool
    io(bool is_write, uint64_t block, Addr buf)
    {
        bool ok = false;
        sim::spawn([](dsa::BlockDevice &dev, bool w, uint64_t blk,
                      Addr b, bool &out) -> Task<> {
            out = co_await ioTask(dev, w, blk, b);
        }(*session_, is_write, block, buf, ok));
        sim_.run();
        return ok;
    }

    struct Race
    {
        bool first_ok = false;
        bool second_ok = false;
        /** The second I/O was issued before the first completed. */
        bool overlapped = false;
    };

    /** Issues a read of @p block into @p first_buf and, @p delay
     *  later, a second I/O of the same block; runs both to
     *  completion. */
    Race
    race(uint64_t block, Addr first_buf, bool second_is_write,
         Addr second_buf, sim::Tick delay)
    {
        Race result;
        bool first_done = false;
        sim::spawn([](dsa::BlockDevice &dev, uint64_t blk, Addr buf,
                      bool &ok, bool &done) -> Task<> {
            ok = co_await ioTask(dev, false, blk, buf);
            done = true;
        }(*session_, block, first_buf, result.first_ok, first_done));
        sim::spawn([](sim::Simulation &sim, dsa::BlockDevice &dev,
                      sim::Tick wait, bool is_write, uint64_t blk,
                      Addr buf, const bool &first_done,
                      Race &out) -> Task<> {
            co_await sim.sleep(wait);
            out.overlapped = !first_done;
            out.second_ok = co_await ioTask(dev, is_write, blk, buf);
        }(sim_, *session_, delay, second_is_write, block, second_buf,
          first_done, result));
        sim_.run();
        return result;
    }

  private:
    static Task<bool>
    ioTask(dsa::BlockDevice &dev, bool is_write, uint64_t block,
           Addr buf)
    {
        // One co_await per statement: built by g++ 12, a
        // `co_return c ? co_await x : co_await y` ran both arms.
        const uint64_t offset = block * kBlock;
        if (is_write)
            co_return co_await dev.write(offset, kBlock, buf);
        co_return co_await dev.read(offset, kBlock, buf);
    }

    sim::Simulation sim_;
    net::Fabric fabric_;
    osmodel::Node host_;
    std::unique_ptr<StorageNode> node_;
    std::unique_ptr<vi::ViNic> nic_;
    std::unique_ptr<dsa::Session> session_;
    bool connected_ = false;
};

/** Both front ends build config.disk_count disks named
 *  "<name>.d.<i>" and stripe them, in whole stripe units, into volume
 *  0, the only volume they have. */
TEST(NodeDisks, EachFrontEndBuildsItsDisksAndOneVolume)
{
    constexpr int kDisks = 3;
    constexpr uint64_t kUnit = 40 * util::kKiB;
    const uint64_t disk_bytes = disk::DiskSpec::scsi10k().capacity_bytes;
    ASSERT_NE(disk_bytes % kUnit, 0u) << "the unit must not divide a disk";
    for (const Backend backend : {Backend::Kdsa, Backend::Iscsi}) {
        sim::Simulation sim(5);
        net::Fabric fabric(sim.queue());
        std::unique_ptr<StorageNode> node;
        if (backend == Backend::Kdsa) {
            V3ServerConfig config;
            config.disk_count = kDisks;
            config.stripe_unit = kUnit;
            node = std::make_unique<V3Server>(sim, fabric, config);
        } else {
            iscsi::TargetConfig config;
            config.disk_count = kDisks;
            config.stripe_unit = kUnit;
            node = std::make_unique<iscsi::Target>(sim, fabric, config);
        }
        const std::string name = backend == Backend::Kdsa ? "v3" : "tgt";
        ASSERT_EQ(node->volume().diskCount(), size_t{kDisks});
        for (size_t i = 0; i < node->volume().diskCount(); ++i) {
            EXPECT_EQ(node->volume().disk(i).name(),
                      name + ".d." + std::to_string(i));
        }
        EXPECT_EQ(node->volume().capacity(),
                  kDisks * (disk_bytes / kUnit) * kUnit);
        EXPECT_EQ(node->volumeCapacity(0), node->volume().capacity());
        EXPECT_EQ(node->volumeCapacity(1), 0u) << name;
    }
}

using RaceParam = std::tuple<Backend, CachePolicy, sim::Tick>;

class BlockPathRace : public ::testing::TestWithParam<RaceParam>
{
  protected:
    BlockPathRace()
        : rig_(std::get<0>(GetParam()), std::get<1>(GetParam()))
    {
        EXPECT_TRUE(rig_.connected());
    }

    sim::Tick delay() const { return std::get<2>(GetParam()); }

    Rig rig_;
};

TEST_P(BlockPathRace, WriteRacingColdFillWins)
{
    // (a) The fill's disk read may capture the pre-write bytes; the
    // cache must not keep them once the write has completed.
    constexpr uint64_t kX = 5;
    const Rig::Race race = rig_.race(kX, rig_.buffer(0xEE), true,
                                     rig_.buffer(0xC3), delay());
    ASSERT_TRUE(race.overlapped);
    EXPECT_TRUE(race.first_ok);
    EXPECT_TRUE(race.second_ok);

    const Addr reread = rig_.buffer(0xEE);
    ASSERT_TRUE(rig_.io(false, kX, reread));
    EXPECT_TRUE(rig_.holds(reread, 0xC3))
        << "quiesced re-read returned pre-write bytes";
}

TEST_P(BlockPathRace, ReadRacingColdFillSeesBlockBytes)
{
    // (b) Make X cold while the frame it last used holds other bytes:
    // write X, drop it, then write Y, which takes over the freed
    // frame. A frame handed to X's fill therefore never holds X's
    // bytes by coincidence.
    constexpr uint64_t kX = 3;
    constexpr uint64_t kY = 9;
    ASSERT_TRUE(rig_.io(true, kX, rig_.buffer(0xC3)));
    rig_.cache().invalidate(rig_.key(kX));
    ASSERT_FALSE(rig_.cache().contains(rig_.key(kX)));
    ASSERT_TRUE(rig_.io(true, kY, rig_.buffer(0x5A)));

    const Addr first = rig_.buffer(0xEE);
    const Addr second = rig_.buffer(0xEE);
    const Rig::Race race = rig_.race(kX, first, false, second, delay());
    ASSERT_TRUE(race.overlapped);
    EXPECT_TRUE(race.first_ok);
    EXPECT_TRUE(race.second_ok);
    EXPECT_TRUE(rig_.holds(first, 0xC3));
    EXPECT_TRUE(rig_.holds(second, 0xC3))
        << "racing read was served a frame before its fill landed";
}

TEST_P(BlockPathRace, ConcurrentColdReadsShareOneDiskRead)
{
    // (c) The second reader waits for the first reader's fill.
    constexpr uint64_t kX = 7;
    const uint64_t before = rig_.diskOps();
    const Rig::Race race = rig_.race(kX, rig_.buffer(0xEE), false,
                                     rig_.buffer(0xEE), delay());
    ASSERT_TRUE(race.overlapped);
    EXPECT_TRUE(race.first_ok);
    EXPECT_TRUE(race.second_ok);
    EXPECT_EQ(rig_.diskOps() - before, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FrontEndPolicyDelay, BlockPathRace,
    ::testing::Combine(::testing::Values(Backend::Cdsa, Backend::Iscsi),
                       ::testing::Values(CachePolicy::Mq, CachePolicy::Lru),
                       ::testing::Values(sim::usecs(1), sim::usecs(50),
                                         sim::usecs(500), sim::msecs(2))),
    [](const ::testing::TestParamInfo<RaceParam> &info) {
        return std::string(scenarios::backendName(std::get<0>(info.param))) +
               "_" + policyName(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<2>(info.param) / sim::usecs(1)) +
               "us";
    });

// ---------------------------------------------------------------------
// Stamped-content property test
// ---------------------------------------------------------------------

constexpr uint64_t kHotBlocks = 8;
constexpr uint64_t kPropertyCacheBlocks = 4; ///< smaller than the hot set
constexpr int kWorkers = 6;
constexpr int kOpsPerWorker = 60;

/** Sits below the audit and logs every stamp written to each block,
 *  so a read can be told apart from a foreign one even after the
 *  audit has pruned the stamp as superseded. */
class StampLog : public dsa::BlockDevice
{
  public:
    StampLog(sim::MemorySpace &memory, dsa::BlockDevice &under)
        : memory_(memory), under_(under)
    {}

    Task<bool>
    read(uint64_t offset, uint64_t len, Addr buffer) override
    {
        co_return co_await under_.read(offset, len, buffer);
    }

    Task<bool>
    write(uint64_t offset, uint64_t len, Addr buffer) override
    {
        for (uint64_t b = 0; b < len / kBlock; ++b) {
            written_[offset / kBlock + b].insert(
                memory_.readU64(buffer + b * kBlock));
        }
        co_return co_await under_.write(offset, len, buffer);
    }

    uint64_t capacity() const override { return under_.capacity(); }

    bool
    written(uint64_t block, uint64_t stamp) const
    {
        const auto it = written_.find(block);
        return it != written_.end() && it->second.count(stamp) > 0;
    }

  private:
    sim::MemorySpace &memory_;
    dsa::BlockDevice &under_;
    std::map<uint64_t, std::set<uint64_t>> written_;
};

struct MixStats
{
    int done = 0;
    uint64_t good_reads = 0;
    uint64_t failed = 0;
    uint64_t violations = 0;
};

/** One closed-loop worker: seeded 70/30 reads/writes over the hot
 *  set, checking each good read against the block's floor at
 *  issue. */
Task<>
mixWorker(cluster::DurabilityAudit &audit, const StampLog &log,
          sim::MemorySpace &memory, sim::Rng rng, MixStats &stats)
{
    const Addr buf = memory.allocate(kBlock);
    for (int i = 0; i < kOpsPerWorker; ++i) {
        const uint64_t block = rng.uniformInt(0, kHotBlocks - 1);
        if (rng.bernoulli(0.3)) {
            const bool ok =
                co_await audit.write(block * kBlock, kBlock, buf);
            stats.failed += ok ? 0 : 1;
            continue;
        }
        const uint64_t floor = audit.settledVersion(block);
        const bool ok = co_await audit.read(block * kBlock, kBlock, buf);
        if (!ok) {
            ++stats.failed;
            continue;
        }
        ++stats.good_reads;
        const uint64_t stamp = memory.readU64(buf);
        if (stamp < floor || (stamp != 0 && !log.written(block, stamp)))
            ++stats.violations;
    }
    memory.free(buf);
    ++stats.done;
}

using PropertyParam = std::tuple<Backend, CachePolicy, uint64_t>;

class StampedContent : public ::testing::TestWithParam<PropertyParam>
{};

TEST_P(StampedContent, ReadsNeverGoStaleAndAuditIsClean)
{
    const auto [backend, policy, seed] = GetParam();
    scenarios::StorageParams storage;
    storage.v3_nodes = 1;
    storage.disks_per_node = 1;
    storage.cache_bytes_per_node = kPropertyCacheBlocks * kBlock;
    storage.cache_policy = policy;
    scenarios::Testbed bed(backend, scenarios::HostParams{}, storage,
                           {}, seed);
    ASSERT_TRUE(bed.connectAll());

    sim::MemorySpace &memory = bed.host().memory();
    StampLog log(memory, bed.device());
    cluster::DurabilityAudit audit(bed.sim(), memory, log, kBlock);
    MixStats stats;
    for (int w = 0; w < kWorkers; ++w)
        sim::spawn(mixWorker(audit, log, memory, bed.sim().forkRng(),
                             stats));
    bed.sim().run();
    ASSERT_EQ(stats.done, kWorkers);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.good_reads, 0u);
    EXPECT_GT(audit.stampedWrites(), 0u);
    EXPECT_EQ(stats.violations, 0u);

    bool clean = false;
    sim::spawn([](cluster::DurabilityAudit &a, bool &out) -> Task<> {
        out = co_await a.audit(1);
    }(audit, clean));
    bed.sim().run();
    EXPECT_TRUE(clean);
    EXPECT_EQ(audit.lostBlocks(), 0u);
    EXPECT_EQ(audit.foreignBlocks(), 0u);
    EXPECT_EQ(audit.auditedBlocks(), kHotBlocks);
}

std::string
propertyName(const ::testing::TestParamInfo<PropertyParam> &info)
{
    const Backend backend = std::get<0>(info.param);
    std::string name = scenarios::backendName(backend);
    if (backend != Backend::Local)
        name += std::string("_") + policyName(std::get<1>(info.param));
    return name + "_seed" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    BackendPolicySeed, StampedContent,
    ::testing::Combine(::testing::Values(Backend::Kdsa, Backend::Wdsa,
                                         Backend::Cdsa, Backend::Iscsi),
                       ::testing::Values(CachePolicy::Mq, CachePolicy::Lru),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})),
    propertyName);

// Local disks have no storage-node cache, so the policy is moot: one
// run per seed.
INSTANTIATE_TEST_SUITE_P(
    LocalSeed, StampedContent,
    ::testing::Combine(::testing::Values(Backend::Local),
                       ::testing::Values(CachePolicy::Mq),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})),
    propertyName);

} // namespace
} // namespace v3sim::storage
