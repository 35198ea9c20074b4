/**
 * @file
 * Unit tests for the LRU block cache: residency, eviction order,
 * pinning, and statistics.
 */

#include <gtest/gtest.h>

#include "sim/memory.hh"
#include "storage/block_cache.hh"

namespace v3sim::storage
{
namespace
{

CacheKey
key(uint64_t block)
{
    return CacheKey{0, block};
}

class LruCacheTest : public ::testing::Test
{
  protected:
    LruCacheTest() : cache_(mem_, 8192, 4) {}

    sim::MemorySpace mem_;
    LruCache cache_;
};

TEST_F(LruCacheTest, MissThenHit)
{
    EXPECT_FALSE(cache_.lookupAndPin(key(1)).has_value());
    EXPECT_EQ(cache_.misses(), 1u);
    auto frame = cache_.insertAndPin(key(1));
    ASSERT_TRUE(frame.has_value());
    cache_.unpin(key(1));
    auto again = cache_.lookupAndPin(key(1));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *frame);
    EXPECT_EQ(cache_.hits(), 1u);
    cache_.unpin(key(1));
}

TEST_F(LruCacheTest, FramesAreDistinctAndSized)
{
    auto a = cache_.insertAndPin(key(1));
    auto b = cache_.insertAndPin(key(2));
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(static_cast<uint64_t>(std::abs(
                  static_cast<int64_t>(*a) - static_cast<int64_t>(*b))) %
                  8192,
              0u);
    // Frames live inside the declared pool.
    EXPECT_GE(*a, cache_.frameBase());
    EXPECT_LT(*a, cache_.frameBase() + cache_.frameBytes());
}

TEST_F(LruCacheTest, EvictsLeastRecentlyUsed)
{
    for (uint64_t b = 0; b < 4; ++b) {
        cache_.insertAndPin(key(b));
        cache_.unpin(key(b));
    }
    // Touch 0 so 1 becomes LRU.
    cache_.lookupAndPin(key(0));
    cache_.unpin(key(0));
    cache_.insertAndPin(key(10));
    cache_.unpin(key(10));
    EXPECT_TRUE(cache_.contains(key(0)));
    EXPECT_FALSE(cache_.contains(key(1)));
    EXPECT_TRUE(cache_.contains(key(10)));
}

TEST_F(LruCacheTest, PinnedBlocksAreNotEvicted)
{
    for (uint64_t b = 0; b < 4; ++b)
        cache_.insertAndPin(key(b)); // all pinned
    // Eviction must skip pinned frames; with all pinned, insert fails.
    EXPECT_FALSE(cache_.insertAndPin(key(99)).has_value());
    cache_.unpin(key(2));
    auto frame = cache_.insertAndPin(key(99));
    ASSERT_TRUE(frame.has_value());
    EXPECT_FALSE(cache_.contains(key(2)));
    EXPECT_TRUE(cache_.contains(key(0)));
}

TEST_F(LruCacheTest, InsertExistingJustPins)
{
    auto a = cache_.insertAndPin(key(5));
    auto b = cache_.insertAndPin(key(5));
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(cache_.residentBlocks(), 1u);
    cache_.unpin(key(5));
    cache_.unpin(key(5));
}

TEST_F(LruCacheTest, InvalidateRespectsPins)
{
    cache_.insertAndPin(key(7));
    cache_.invalidate(key(7)); // pinned: no-op
    EXPECT_TRUE(cache_.contains(key(7)));
    cache_.unpin(key(7));
    cache_.invalidate(key(7));
    EXPECT_FALSE(cache_.contains(key(7)));
}

TEST_F(LruCacheTest, HitRatioMath)
{
    cache_.lookupAndPin(key(1)); // miss
    cache_.insertAndPin(key(1));
    cache_.unpin(key(1));
    cache_.lookupAndPin(key(1)); // hit
    cache_.unpin(key(1));
    cache_.lookupAndPin(key(2)); // miss
    EXPECT_NEAR(cache_.hitRatio(), 1.0 / 3.0, 1e-9);
    cache_.resetStats();
    EXPECT_EQ(cache_.hits() + cache_.misses(), 0u);
}

TEST_F(LruCacheTest, DifferentVolumesDistinct)
{
    cache_.insertAndPin(CacheKey{1, 42});
    cache_.unpin(CacheKey{1, 42});
    EXPECT_FALSE(cache_.contains(CacheKey{2, 42}));
    EXPECT_TRUE(cache_.contains(CacheKey{1, 42}));
}

} // namespace
} // namespace v3sim::storage
