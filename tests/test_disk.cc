/**
 * @file
 * Unit tests for the disk model: service times, scheduling, data
 * store integrity, and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "disk/disk.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace v3sim::disk
{
namespace
{

using sim::msecs;
using sim::Task;
using sim::Tick;

TEST(DiskSpec, RotationAndSeekSanity)
{
    const DiskSpec scsi = DiskSpec::scsi10k();
    EXPECT_EQ(scsi.rotationTime(), msecs(6)); // 10K RPM
    EXPECT_EQ(scsi.avgRotationalLatency(), msecs(3));
    EXPECT_EQ(scsi.seekTime(0), 0);
    EXPECT_EQ(scsi.seekTime(1.0), scsi.full_stroke_seek);
    EXPECT_GT(scsi.seekTime(0.5), scsi.track_to_track_seek);
    // Average seek for 10K-class drives is ~5 ms.
    EXPECT_GE(scsi.avgSeek(), msecs(4));
    EXPECT_LE(scsi.avgSeek(), msecs(6));

    const DiskSpec fc = DiskSpec::fc15k();
    EXPECT_EQ(fc.rotationTime(), msecs(4)); // 15K RPM
    EXPECT_LT(fc.avgSeek(), scsi.avgSeek());
}

TEST(Disk, RandomReadLatencyInRealisticBand)
{
    sim::Simulation sim(7);
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d0");
    sim::Rng rng(99);

    sim::spawn([](Disk &d, sim::Rng &r) -> Task<> {
        for (int i = 0; i < 200; ++i) {
            const uint64_t offset =
                r.uniformInt(0, (d.spec().capacity_bytes - 8192) /
                                    8192) *
                8192;
            co_await d.read(offset, 8192);
        }
    }(disk, rng));
    sim.run();

    // Random 8K reads on a 10K RPM disk: ~5-15 ms average.
    const double mean_ms = disk.serviceStats().mean() / 1e6;
    EXPECT_GE(mean_ms, 4.0);
    EXPECT_LE(mean_ms, 15.0);
    EXPECT_EQ(disk.completedCount(), 200u);
}

TEST(Disk, SequentialRunsFasterThanRandom)
{
    sim::Simulation sim(11);
    Disk seq_disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "seq");
    Disk rnd_disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "rnd");
    sim::Rng rng(5);

    sim::spawn([](Disk &d) -> Task<> {
        for (int i = 0; i < 100; ++i)
            co_await d.write(static_cast<uint64_t>(i) * 8192, 8192);
    }(seq_disk));
    sim::spawn([](Disk &d, sim::Rng &r) -> Task<> {
        for (int i = 0; i < 100; ++i) {
            const uint64_t offset =
                r.uniformInt(0, (d.spec().capacity_bytes - 8192) /
                                    8192) *
                8192;
            co_await d.write(offset, 8192);
        }
    }(rnd_disk, rng));
    sim.run();

    // Sequential log-style writes avoid seek+rotation entirely after
    // the first command.
    EXPECT_LT(seq_disk.serviceStats().mean() * 5,
              rnd_disk.serviceStats().mean());
}

TEST(Disk, ElevatorBeatsFifoOnBacklog)
{
    auto run_policy = [](SchedPolicy policy) {
        sim::Simulation sim(3);
        Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d",
                  policy);
        sim::Rng rng(42);
        int outstanding = 64;
        for (int i = 0; i < 64; ++i) {
            const uint64_t offset =
                rng.uniformInt(0, (disk.spec().capacity_bytes - 8192) /
                                      8192) *
                8192;
            disk.submit(offset, 8192, false, [&] { --outstanding; });
        }
        sim.run();
        EXPECT_EQ(outstanding, 0);
        return disk.serviceStats().mean();
    };
    EXPECT_LT(run_policy(SchedPolicy::Elevator),
              run_policy(SchedPolicy::Fifo));
}

TEST(Disk, QueueingAddsLatency)
{
    sim::Simulation sim(13);
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d",
              SchedPolicy::Fifo);
    int done = 0;
    for (int i = 0; i < 8; ++i)
        disk.submit(static_cast<uint64_t>(i) * 1024 * 1024 * 128, 8192,
                    false, [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 8);
    // Total latency (wait+service) exceeds pure service on average.
    EXPECT_GT(disk.latencyStats().mean(),
              disk.serviceStats().mean() * 2);
}

TEST(DiskStore, DataRoundTripsThroughDisk)
{
    sim::Simulation sim;
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d");
    sim::MemorySpace mem;
    const sim::Addr src = mem.allocate(8192);
    const sim::Addr dst = mem.allocate(8192);
    std::vector<uint8_t> pattern(8192);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 13);
    mem.write(src, pattern.data(), pattern.size());

    ASSERT_TRUE(disk.store().writeFrom(4096, 8192, mem, src));
    ASSERT_TRUE(disk.store().readInto(4096, 8192, mem, dst));
    std::vector<uint8_t> out(8192);
    mem.read(dst, out.data(), out.size());
    EXPECT_EQ(out, pattern);
}

TEST(DiskStore, UnwrittenSectorsReadZero)
{
    sim::Simulation sim;
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d");
    sim::MemorySpace mem;
    const sim::Addr dst = mem.allocate(1024);
    mem.fill(dst, 0xEE, 1024);
    ASSERT_TRUE(disk.store().readInto(0, 1024, mem, dst));
    std::vector<uint8_t> out(1024);
    mem.read(dst, out.data(), out.size());
    for (const uint8_t v : out)
        EXPECT_EQ(v, 0);
}

TEST(DiskStore, RejectsUnalignedAccess)
{
    sim::Simulation sim;
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d");
    sim::MemorySpace mem;
    const sim::Addr buf = mem.allocate(1024);
    EXPECT_FALSE(disk.store().readInto(100, 512, mem, buf));
    EXPECT_FALSE(disk.store().writeFrom(0, 100, mem, buf));
}

TEST(DiskStore, MatchesPerSectorModelUnderRandomOps)
{
    // A 1 MiB region, so random sector-aligned accesses of
    // 512 B - 64 KiB overlap each other and straddle 4 KiB page edges.
    constexpr uint64_t kSector = DiskStore::kSectorSize;
    constexpr uint64_t kRegionSectors = 2048;
    constexpr uint64_t kMaxSectors = 128;
    using Sector = std::array<uint8_t, kSector>;
    constexpr Sector kZeros{};

    DiskStore store(/*phantom=*/false);
    DiskStore phantom(/*phantom=*/true); // tracks the marks only
    std::map<uint64_t, Sector> model;    // absent = never written
    std::set<uint64_t> corrupt;
    sim::MemorySpace mem;
    const sim::Addr buf = mem.allocate(kMaxSectors * kSector);
    std::vector<uint8_t> bytes(kMaxSectors * kSector);
    sim::Rng rng(2002);
    int marked_unwritten = 0;
    int marked_written = 0;
    int healed = 0;

    for (int op = 0; op < 3000; ++op) {
        const uint64_t sectors = rng.uniformInt(1, kMaxSectors);
        const uint64_t first = rng.uniformInt(0, kRegionSectors - sectors);
        const uint64_t offset = first * kSector;
        const uint64_t len = sectors * kSector;
        switch (rng.uniformInt(0, 3)) {
          case 0: { // write
            for (uint8_t &b : bytes)
                b = static_cast<uint8_t>(rng.next());
            ASSERT_TRUE(mem.write(buf, bytes.data(), len));
            ASSERT_TRUE(store.writeFrom(offset, len, mem, buf));
            ASSERT_TRUE(phantom.writeFrom(offset, len, mem, buf));
            for (uint64_t i = 0; i < sectors; ++i) {
                std::copy_n(bytes.begin() + i * kSector, kSector,
                            model[first + i].begin());
                healed += static_cast<int>(corrupt.erase(first + i));
            }
            break;
          }
          case 1: { // read, over a buffer full of garbage
            ASSERT_TRUE(mem.fill(buf, 0xEE, len));
            ASSERT_TRUE(store.readInto(offset, len, mem, buf));
            ASSERT_TRUE(mem.read(buf, bytes.data(), len));
            for (uint64_t i = 0; i < sectors; ++i) {
                const auto it = model.find(first + i);
                const Sector &expect =
                    it != model.end() ? it->second : kZeros;
                ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                                       bytes.begin() + i * kSector))
                    << "op " << op << " sector " << first + i;
            }
            break;
          }
          case 2: { // corrupt an arbitrary byte range
            const uint64_t at =
                rng.uniformInt(0, kRegionSectors * kSector - 1);
            const uint64_t n = rng.uniformInt(1, 3 * kSector);
            store.markCorrupt(at, n);
            phantom.markCorrupt(at, n);
            for (uint64_t s = at / kSector; s <= (at + n - 1) / kSector;
                 ++s) {
                corrupt.insert(s);
                if (model.count(s) > 0)
                    ++marked_written;
                else
                    ++marked_unwritten;
                model[s][kSector / 2] ^= 0x40;
            }
            break;
          }
          default: { // oracle view
            const uint64_t at = rng.uniformInt(0, kRegionSectors * kSector);
            const uint64_t n = rng.uniformInt(0, 4 * kSector);
            bool expect = false;
            for (uint64_t s = at / kSector; n > 0 && !expect &&
                                            s <= (at + n - 1) / kSector;
                 ++s) {
                expect = corrupt.count(s) > 0;
            }
            ASSERT_EQ(store.rangeCorrupt(at, n), expect) << "op " << op;
            ASSERT_EQ(phantom.rangeCorrupt(at, n), expect) << "op " << op;
            break;
          }
        }
        ASSERT_EQ(store.corruptSectorCount(), corrupt.size());
        ASSERT_EQ(phantom.corruptSectorCount(), corrupt.size());
    }
    // The sequence exercised every path the model distinguishes.
    EXPECT_GT(marked_unwritten, 0);
    EXPECT_GT(marked_written, 0);
    EXPECT_GT(healed, 0);
}

TEST(Disk, UtilizationAndReset)
{
    sim::Simulation sim;
    Disk disk(sim, DiskSpec::scsi10k(), sim.forkRng(), "d");
    sim::spawn([](Disk &d) -> Task<> {
        co_await d.read(1024 * 1024, 8192);
    }(disk));
    sim.run();
    EXPECT_GT(disk.utilization(), 0.9); // busy the whole run
    sim.metrics().resetEpoch();
    EXPECT_EQ(disk.completedCount(), 0u);
}

} // namespace
} // namespace v3sim::disk
