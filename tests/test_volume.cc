/**
 * @file
 * Unit tests for the striped volume: mapping, parallelism and data
 * integrity over one disk and over several.
 */

#include <gtest/gtest.h>

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
        buf_ = mem_.allocate(kBufLen);
        out_ = mem_.allocate(kBufLen);
        pattern_.resize(kBufLen);
        for (size_t i = 0; i < kBufLen; ++i)
            pattern_[i] = static_cast<uint8_t>((i * 7) & 0xFF);
        mem_.write(buf_, pattern_.data(), kBufLen);
    }

    /** @p n SCSI 10K disks "d<i>" striped in 64 KiB units. */
    StripeVolume
    stripe(int n)
    {
        return StripeVolume(sim_, DiskSpec::scsi10k(), n, "d", false,
                            64 * 1024);
    }

    /** One disk as a one-disk stripe whose unit is the whole disk, so
     *  no I/O splits. */
    StripeVolume
    oneDisk()
    {
        const DiskSpec spec = DiskSpec::scsi10k();
        return StripeVolume(sim_, spec, 1, "single", false,
                            spec.capacity_bytes);
    }

    /** Simulated time one write of [offset, offset+len) takes. */
    Tick
    writeTime(StripeVolume &volume, uint64_t offset, uint64_t len)
    {
        const Tick start = sim_.now();
        sim::spawn([](StripeVolume &v, uint64_t off, uint64_t n,
                      sim::MemorySpace &mem, sim::Addr buf) -> Task<> {
            co_await v.write(off, n, mem, buf);
        }(volume, offset, len, mem_, buf_));
        sim_.run();
        return sim_.now() - start;
    }

    /** Writes then reads back through @p volume; checks the data. */
    void
    roundTrip(StripeVolume &volume, uint64_t offset, uint64_t len)
    {
        bool write_ok = false, read_ok = false;
        sim::spawn([](StripeVolume &v, uint64_t off, uint64_t n,
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
    sim::Addr buf_, out_;
    std::vector<uint8_t> pattern_;
};

TEST_F(VolumeTest, SingleDiskRoundTrip)
{
    StripeVolume single = oneDisk();
    roundTrip(single, 8192, 8192);
}

TEST_F(VolumeTest, SingleDiskRejectsOutOfRange)
{
    StripeVolume single = oneDisk();
    bool ok = true;
    sim::spawn([](StripeVolume &v, sim::MemorySpace &mem, sim::Addr buf,
                  bool &result) -> Task<> {
        result = co_await v.read(v.capacity() - 512, 1024, mem, buf);
    }(single, mem_, out_, ok));
    sim_.run();
    EXPECT_FALSE(ok);
}

TEST_F(VolumeTest, StripeDistributesAcrossDisks)
{
    StripeVolume four = stripe(4);
    roundTrip(four, 0, 256 * 1024); // exactly one unit per disk
    for (size_t i = 0; i < four.diskCount(); ++i)
        EXPECT_EQ(four.disk(i).completedCount(), 2u); // 1 write + 1 read
}

TEST_F(VolumeTest, StripeParallelismBeatsSingleDisk)
{
    // 256K across 4 disks in parallel vs 256K on one disk.
    StripeVolume four = stripe(4);
    StripeVolume single = oneDisk();
    const Tick striped_time = writeTime(four, 0, 256 * 1024);
    EXPECT_LT(striped_time, writeTime(single, 0, 256 * 1024));
}

TEST_F(VolumeTest, StripeUnalignedSpanRoundTrip)
{
    StripeVolume three = stripe(3);
    // Start mid-unit, cross several units.
    roundTrip(three, 32 * 1024 + 512, 150 * 1024);
}

} // namespace
} // namespace v3sim::disk
