/**
 * @file
 * Unit tests for MemorySpace: allocation, bounds, data integrity,
 * phantom mode, cross-space copies and in-place byte access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/memory.hh"

namespace v3sim::sim
{
namespace
{

TEST(MemorySpace, AllocateReturnsDistinctAddresses)
{
    MemorySpace mem;
    const Addr a = mem.allocate(100);
    const Addr b = mem.allocate(100);
    EXPECT_NE(a, kNullAddr);
    EXPECT_NE(b, kNullAddr);
    EXPECT_NE(a, b);
    EXPECT_EQ(mem.allocationCount(), 2u);
    EXPECT_EQ(mem.allocatedBytes(), 200u);
}

TEST(MemorySpace, ZeroLengthAllocationRejected)
{
    MemorySpace mem;
    EXPECT_EQ(mem.allocate(0), kNullAddr);
}

TEST(MemorySpace, WriteReadRoundTrip)
{
    MemorySpace mem;
    const Addr a = mem.allocate(64);
    const char src[] = "hello, storage world";
    ASSERT_TRUE(mem.write(a + 8, src, sizeof(src)));
    char dst[sizeof(src)] = {};
    ASSERT_TRUE(mem.read(a + 8, dst, sizeof(src)));
    EXPECT_STREQ(dst, src);
}

TEST(MemorySpace, OutOfBoundsRejected)
{
    MemorySpace mem;
    const Addr a = mem.allocate(64);
    char buf[8] = {};
    EXPECT_FALSE(mem.write(a + 60, buf, 8));   // crosses the end
    EXPECT_FALSE(mem.read(a + 64, buf, 1));    // starts past the end
    EXPECT_FALSE(mem.read(kNullAddr, buf, 1)); // null
    EXPECT_TRUE(mem.write(a + 56, buf, 8));    // exactly at the end
}

TEST(MemorySpace, ContainsChecksLiveAllocations)
{
    MemorySpace mem;
    const Addr a = mem.allocate(4096);
    EXPECT_TRUE(mem.contains(a, 4096));
    EXPECT_TRUE(mem.contains(a + 100, 100));
    EXPECT_FALSE(mem.contains(a, 4097));
    mem.free(a);
    EXPECT_FALSE(mem.contains(a, 1));
}

TEST(MemorySpace, FreeIsIdempotent)
{
    MemorySpace mem;
    const Addr a = mem.allocate(16);
    mem.free(a);
    mem.free(a);
    EXPECT_EQ(mem.allocatedBytes(), 0u);
}

TEST(MemorySpace, AddressesNeverReused)
{
    MemorySpace mem;
    const Addr a = mem.allocate(kPageSize);
    mem.free(a);
    const Addr b = mem.allocate(kPageSize);
    EXPECT_NE(a, b);
}

TEST(MemorySpace, FillWritesPattern)
{
    MemorySpace mem;
    const Addr a = mem.allocate(32);
    ASSERT_TRUE(mem.fill(a, 0xAB, 32));
    uint8_t buf[32];
    ASSERT_TRUE(mem.read(a, buf, 32));
    for (const uint8_t v : buf)
        EXPECT_EQ(v, 0xAB);
}

TEST(MemorySpace, CopyBetweenSpaces)
{
    MemorySpace src, dst;
    const Addr a = src.allocate(10000);
    const Addr b = dst.allocate(10000);
    std::vector<uint8_t> pattern(10000);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 31);
    ASSERT_TRUE(src.write(a, pattern.data(), pattern.size()));
    ASSERT_TRUE(MemorySpace::copy(src, a, dst, b, pattern.size()));
    std::vector<uint8_t> out(10000);
    ASSERT_TRUE(dst.read(b, out.data(), out.size()));
    EXPECT_EQ(out, pattern);
}

TEST(MemorySpace, CopyRejectsBadRanges)
{
    MemorySpace src, dst;
    const Addr a = src.allocate(100);
    const Addr b = dst.allocate(50);
    EXPECT_FALSE(MemorySpace::copy(src, a, dst, b, 100));
}

TEST(MemorySpace, PhantomDiscardsWritesReadsZero)
{
    MemorySpace mem(/*phantom=*/true);
    const Addr a = mem.allocate(64);
    const char src[] = "data";
    EXPECT_TRUE(mem.write(a, src, sizeof(src)));
    char dst[4] = {1, 2, 3, 4};
    EXPECT_TRUE(mem.read(a, dst, 4));
    for (const char c : dst)
        EXPECT_EQ(c, 0);
    // Bounds still enforced.
    EXPECT_FALSE(mem.write(a + 60, src, sizeof(src)));
}

TEST(MemorySpace, PhantomToRealCopyZeroFills)
{
    MemorySpace src(/*phantom=*/true), dst;
    const Addr a = src.allocate(16);
    const Addr b = dst.allocate(16);
    ASSERT_TRUE(dst.fill(b, 0xFF, 16));
    ASSERT_TRUE(MemorySpace::copy(src, a, dst, b, 16));
    uint8_t out[16];
    ASSERT_TRUE(dst.read(b, out, 16));
    for (const uint8_t v : out)
        EXPECT_EQ(v, 0);
}

TEST(MemorySpace, RealToPhantomCopyDiscards)
{
    MemorySpace src, dst(/*phantom=*/true);
    const Addr a = src.allocate(16);
    const Addr b = dst.allocate(16);
    ASSERT_TRUE(src.fill(a, 0xFF, 16));
    ASSERT_TRUE(MemorySpace::copy(src, a, dst, b, 16));
    uint8_t out[16];
    ASSERT_TRUE(dst.read(b, out, 16));
    for (const uint8_t v : out)
        EXPECT_EQ(v, 0);
    // Bounds are still checked on the phantom side.
    EXPECT_FALSE(MemorySpace::copy(src, a, dst, b + 8, 16));
}

TEST(MemorySpace, LargeAllocationReadsZero)
{
    // Past glibc's largest mmap threshold (32 MiB), so the bytes are
    // zero pages the OS supplies on first touch.
    constexpr uint64_t kLen = 40ull << 20;
    MemorySpace mem;
    const Addr a = mem.allocate(kLen);
    const uint8_t *bytes = mem.bytesAt(a, kLen);
    ASSERT_NE(bytes, nullptr);
    EXPECT_TRUE(std::all_of(bytes, bytes + kLen,
                            [](uint8_t v) { return v == 0; }));
    ASSERT_TRUE(mem.fill(a + kLen / 2, 0x5A, 1));
    EXPECT_EQ(bytes[kLen / 2], 0x5A);
}

TEST(MemorySpace, BytesAtChecksRanges)
{
    MemorySpace mem;
    const Addr a = mem.allocate(100);
    const Addr b = mem.allocate(kPageSize); // the next page up
    ASSERT_EQ(b, a + kPageSize);
    ASSERT_TRUE(mem.write(a, "abc", 3));
    const uint8_t *at = mem.bytesAt(a + 1, 2);
    ASSERT_NE(at, nullptr);
    EXPECT_EQ(at[0], 'b');
    EXPECT_EQ(mem.bytesAt(a, 100), at - 1);

    EXPECT_EQ(mem.bytesAt(a + 50, 51), nullptr);     // past the end
    EXPECT_EQ(mem.bytesAt(kNullAddr, 1), nullptr);   // never allocated
    EXPECT_EQ(mem.bytesAt(b + kPageSize, 1), nullptr);
    EXPECT_EQ(mem.bytesAt(b - 8, 16), nullptr);      // straddles a, b
    mem.free(a);
    EXPECT_EQ(mem.bytesAt(a, 1), nullptr);

    MemorySpace phantom(/*phantom=*/true);
    const Addr p = phantom.allocate(64);
    EXPECT_TRUE(phantom.contains(p, 64));
    EXPECT_EQ(phantom.bytesAt(p, 64), nullptr);
}

TEST(MemorySpace, U64FlagHelpers)
{
    MemorySpace mem;
    const Addr a = mem.allocate(8);
    EXPECT_EQ(mem.readU64(a), 0u);
    EXPECT_TRUE(mem.writeU64(a, 0xDEADBEEFCAFEF00Dull));
    EXPECT_EQ(mem.readU64(a), 0xDEADBEEFCAFEF00Dull);
}

TEST(MemorySpace, PageSpanComputation)
{
    EXPECT_EQ(pageSpan(0, 0), 0u);
    EXPECT_EQ(pageSpan(0, 1), 1u);
    EXPECT_EQ(pageSpan(0, kPageSize), 1u);
    EXPECT_EQ(pageSpan(0, kPageSize + 1), 2u);
    EXPECT_EQ(pageSpan(kPageSize - 1, 2), 2u); // straddles a boundary
    EXPECT_EQ(pageSpan(0, 8192), 2u);          // the paper's 8K buffer
}

} // namespace
} // namespace v3sim::sim
