/**
 * @file
 * Unit tests for RAID volumes: mapping, parallelism, data integrity
 * across concatenation, striping and mirroring.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "disk/volume.hh"
#include "sim/simulation.hh"

namespace v3sim::disk
{
namespace
{

using sim::Task;
using sim::Tick;

class VolumeTest : public ::testing::Test
{
  protected:
    VolumeTest() : sim_(17)
    {
        for (int i = 0; i < 4; ++i) {
            std::string name("d");
            name.append(std::to_string(i));
            disks_.push_back(std::make_unique<Disk>(
                sim_, DiskSpec::scsi10k(), sim_.forkRng(), name));
            single_.push_back(
                std::make_unique<SingleDiskVolume>(*disks_.back()));
        }
        buf_ = mem_.allocate(kBufLen);
        out_ = mem_.allocate(kBufLen);
        pattern_.resize(kBufLen);
        for (size_t i = 0; i < kBufLen; ++i)
            pattern_[i] = static_cast<uint8_t>((i * 7) & 0xFF);
        mem_.write(buf_, pattern_.data(), kBufLen);
    }

    std::vector<Volume *>
    volumes(int n)
    {
        std::vector<Volume *> v;
        for (int i = 0; i < n; ++i)
            v.push_back(single_[static_cast<size_t>(i)].get());
        return v;
    }

    /** Writes then reads back through @p volume; checks the data. */
    void
    roundTrip(Volume &volume, uint64_t offset, uint64_t len)
    {
        bool write_ok = false, read_ok = false;
        sim::spawn([](Volume &v, uint64_t off, uint64_t n,
                      sim::MemorySpace &mem, sim::Addr src,
                      sim::Addr dst, bool &wok, bool &rok) -> Task<> {
            wok = co_await v.write(off, n, mem, src);
            rok = co_await v.read(off, n, mem, dst);
        }(volume, offset, len, mem_, buf_, out_, write_ok, read_ok));
        sim_.run();
        ASSERT_TRUE(write_ok);
        ASSERT_TRUE(read_ok);
        std::vector<uint8_t> out(len);
        mem_.read(out_, out.data(), len);
        for (uint64_t i = 0; i < len; ++i)
            ASSERT_EQ(out[i], pattern_[i]) << "mismatch at " << i;
    }

    static constexpr uint64_t kBufLen = 256 * 1024;

    sim::Simulation sim_;
    sim::MemorySpace mem_;
    std::vector<std::unique_ptr<Disk>> disks_;
    std::vector<std::unique_ptr<SingleDiskVolume>> single_;
    sim::Addr buf_, out_;
    std::vector<uint8_t> pattern_;
};

TEST_F(VolumeTest, SingleDiskRoundTrip)
{
    roundTrip(*single_[0], 8192, 8192);
}

TEST_F(VolumeTest, SingleDiskRejectsOutOfRange)
{
    bool ok = true;
    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  bool &result) -> Task<> {
        result = co_await v.read(v.capacity() - 512, 1024, mem, buf);
    }(*single_[0], mem_, out_, ok));
    sim_.run();
    EXPECT_FALSE(ok);
}

TEST_F(VolumeTest, ConcatCapacityAndMapping)
{
    ConcatVolume concat(volumes(3));
    EXPECT_EQ(concat.capacity(), 3 * single_[0]->capacity());
    // A read spanning the seam between child 0 and child 1.
    roundTrip(concat, single_[0]->capacity() - 8192, 16384);
    // The spanning op touched both disks.
    EXPECT_GT(disks_[0]->completedCount(), 0u);
    EXPECT_GT(disks_[1]->completedCount(), 0u);
}

TEST_F(VolumeTest, StripeDistributesAcrossDisks)
{
    StripeVolume stripe(volumes(4), 64 * 1024);
    roundTrip(stripe, 0, 256 * 1024); // exactly one unit per disk
    for (const auto &disk : disks_)
        EXPECT_EQ(disk->completedCount(), 2u); // 1 write + 1 read
}

TEST_F(VolumeTest, StripeParallelismBeatsSingleDisk)
{
    // 256K across 4 disks in parallel vs 256K on one disk.
    StripeVolume stripe(volumes(4), 64 * 1024);
    Tick striped_time = 0, single_time = 0;

    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  sim::Simulation &s, Tick &out) -> Task<> {
        const Tick start = s.now();
        co_await v.write(0, 256 * 1024, mem, buf);
        out = s.now() - start;
    }(stripe, mem_, buf_, sim_, striped_time));
    sim_.run();

    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  sim::Simulation &s, Tick &out) -> Task<> {
        const Tick start = s.now();
        co_await v.write(0, 256 * 1024, mem, buf);
        out = s.now() - start;
    }(*single_[3], mem_, buf_, sim_, single_time));
    sim_.run();

    EXPECT_LT(striped_time, single_time);
}

TEST_F(VolumeTest, StripeUnalignedSpanRoundTrip)
{
    StripeVolume stripe(volumes(3), 64 * 1024);
    // Start mid-unit, cross several units.
    roundTrip(stripe, 32 * 1024 + 512, 150 * 1024);
}

TEST_F(VolumeTest, MirrorWritesAllReplicas)
{
    MirrorVolume mirror(volumes(2));
    EXPECT_EQ(mirror.capacity(), single_[0]->capacity());
    roundTrip(mirror, 4096, 8192);
    // Write hit both disks; the read hit exactly one.
    const uint64_t total =
        disks_[0]->completedCount() + disks_[1]->completedCount();
    EXPECT_EQ(total, 3u);
}

TEST_F(VolumeTest, MirrorReadsRoundRobin)
{
    MirrorVolume mirror(volumes(2));
    sim::spawn([](Volume &v, sim::MemorySpace &mem,
                  sim::Addr buf) -> Task<> {
        for (int i = 0; i < 4; ++i)
            co_await v.read(0, 8192, mem, buf);
    }(mirror, mem_, out_));
    sim_.run();
    EXPECT_EQ(disks_[0]->completedCount(), 2u);
    EXPECT_EQ(disks_[1]->completedCount(), 2u);
}

TEST_F(VolumeTest, Raid10Composition)
{
    // Stripe over two mirrored pairs: RAID-10.
    MirrorVolume pair_a({single_[0].get(), single_[1].get()});
    MirrorVolume pair_b({single_[2].get(), single_[3].get()});
    StripeVolume raid10({&pair_a, &pair_b}, 64 * 1024);
    roundTrip(raid10, 0, 128 * 1024);
    // The write fanned out to all four spindles.
    for (const auto &disk : disks_)
        EXPECT_GE(disk->completedCount(), 1u);
}

} // namespace
} // namespace v3sim::disk
