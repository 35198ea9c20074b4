/**
 * @file
 * Unit tests for the Multi-Queue cache: frequency promotion, ghost
 * memory, lifetime demotion, and the headline property from the MQ
 * paper — beating LRU on second-level (frequency-skewed, recency-
 * weak) access patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <vector>

#include "sim/memory.hh"
#include "sim/random.hh"
#include "storage/mq_cache.hh"

namespace v3sim::storage
{
namespace
{

CacheKey
key(uint64_t block)
{
    return CacheKey{0, block};
}

/** Touch helper: lookup, insert on miss, unpin. Returns hit. */
bool
touch(BlockCache &cache, uint64_t block)
{
    if (cache.lookupAndPin(key(block))) {
        cache.unpin(key(block));
        return true;
    }
    cache.insertAndPin(key(block));
    cache.unpin(key(block));
    return false;
}

TEST(MqCache, BasicResidency)
{
    sim::MemorySpace mem;
    MqCache cache(mem, 8192, 8);
    EXPECT_FALSE(touch(cache, 1));
    EXPECT_TRUE(touch(cache, 1));
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(MqCache, PinnedNeverEvicted)
{
    sim::MemorySpace mem;
    MqCache cache(mem, 8192, 2);
    cache.insertAndPin(key(1));
    cache.insertAndPin(key(2));
    EXPECT_FALSE(cache.insertAndPin(key(3)).has_value());
    cache.unpin(key(1));
    EXPECT_TRUE(cache.insertAndPin(key(3)).has_value());
    EXPECT_FALSE(cache.contains(key(1)));
    EXPECT_TRUE(cache.contains(key(2)));
}

TEST(MqCache, FrequentBlocksSurviveScan)
{
    // A hot set accessed repeatedly, then a one-shot scan larger
    // than the cache: MQ must keep (most of) the hot set because it
    // lives in higher-frequency queues; the scan churns only Q0.
    sim::MemorySpace mem;
    MqCache cache(mem, 8192, 16);

    for (int round = 0; round < 8; ++round) {
        for (uint64_t b = 0; b < 8; ++b)
            touch(cache, b);
    }
    for (uint64_t b = 100; b < 140; ++b)
        touch(cache, b); // the scan

    int hot_survivors = 0;
    for (uint64_t b = 0; b < 8; ++b)
        hot_survivors += cache.contains(key(b));
    EXPECT_GE(hot_survivors, 6);
}

TEST(MqCache, GhostRemembersEvictedFrequency)
{
    sim::MemorySpace mem;
    MqConfig config;
    config.ghost_ratio = 16.0;
    // Short lifetime so the idle hot block demotes and can be
    // evicted by the scan (queues protect it otherwise).
    config.life_time = 6;
    MqCache cache(mem, 8192, 4, config);

    // Make block 1 frequent, then evict it with a long scan during
    // which it sits idle and demotes queue by queue.
    for (int i = 0; i < 16; ++i)
        touch(cache, 1);
    for (uint64_t b = 50; b < 110; ++b)
        touch(cache, b);
    ASSERT_FALSE(cache.contains(key(1)));
    EXPECT_GT(cache.ghostSize(), 0u);

    // On return, block 1 resumes high standing (ghost hit): it is
    // re-inserted into a high queue, so a short burst of fresh
    // traffic evicts the scan blocks, not block 1.
    touch(cache, 1);
    for (uint64_t b = 200; b < 206; ++b)
        touch(cache, b);
    EXPECT_TRUE(cache.contains(key(1)));
}

TEST(MqCache, BeatsLruOnSecondLevelPattern)
{
    // Second-level pattern per the MQ paper: a first-level cache
    // absorbs recency, so the server cache sees accesses whose value
    // signal is *frequency*. Model: 20% hot blocks get 80% of
    // accesses, but interleaved with a long uniform tail that would
    // flush an LRU.
    constexpr uint64_t kCapacity = 64;
    constexpr uint64_t kUniverse = 1024;
    sim::Rng rng(2024);

    sim::MemorySpace mem_lru, mem_mq;
    LruCache lru(mem_lru, 8192, kCapacity);
    MqCache mq(mem_mq, 8192, kCapacity);

    for (int i = 0; i < 60000; ++i) {
        uint64_t block;
        if (rng.bernoulli(0.5)) {
            block = rng.uniformInt(0, kCapacity - 1); // hot set
        } else {
            block = kCapacity + rng.uniformInt(0, kUniverse); // tail
        }
        touch(lru, block);
        touch(mq, block);
    }
    EXPECT_GT(mq.hitRatio(), lru.hitRatio());
}

TEST(MqCache, LifetimeDemotionAllowsEviction)
{
    // With a short lifetime, a once-hot block that goes idle demotes
    // down the queues and becomes evictable by fresh traffic.
    sim::MemorySpace mem;
    MqConfig config;
    config.life_time = 8;
    MqCache cache(mem, 8192, 4, config);

    for (int i = 0; i < 32; ++i)
        touch(cache, 1); // very hot
    // Now a long stretch of other traffic with block 1 idle.
    for (uint64_t b = 10; b < 60; ++b)
        touch(cache, b);
    EXPECT_FALSE(cache.contains(key(1)));
}

TEST(MqCache, StatsAccumulate)
{
    sim::MemorySpace mem;
    MqCache cache(mem, 8192, 4);
    touch(cache, 1);
    touch(cache, 1);
    touch(cache, 2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

/**
 * The reference MQ implementation: the same policy in its plainest
 * form, with the queues in std::list nodes, a map of list iterators
 * and a std::deque ghost FIFO. The flat MqCache must match it call
 * for call.
 */
class ListMqCache : public BlockCache
{
  public:
    ListMqCache(sim::MemorySpace &memory, uint64_t block_size,
                uint64_t capacity_blocks, MqConfig config)
        : BlockCache(memory, block_size, capacity_blocks),
          config_(config),
          life_time_(config.life_time ? config.life_time
                                      : 2 * capacity_blocks),
          queues_(config.queue_count),
          ghost_capacity_(static_cast<uint64_t>(
              static_cast<double>(capacity_blocks) * config.ghost_ratio))
    {
        for (uint64_t i = 0; i < capacity_; ++i)
            free_frames_.push_back(capacity_ - 1 - i);
    }

    std::optional<sim::Addr>
    lookupAndPin(CacheKey key) override
    {
        ++now_;
        adjust();
        auto it = map_.find(key);
        if (it == map_.end()) {
            recordMiss();
            return std::nullopt;
        }
        recordHit();
        auto entry = it->second;
        ++entry->freq;
        requeue(entry);
        ++entry->pins;
        return frameAddr(entry->frame);
    }

    std::optional<sim::Addr>
    insertAndPin(CacheKey key) override
    {
        ++now_;
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++it->second->pins;
            return frameAddr(it->second->frame);
        }
        uint64_t frame;
        if (!free_frames_.empty()) {
            frame = free_frames_.back();
            free_frames_.pop_back();
        } else {
            const auto victim = evictOne();
            if (!victim.has_value())
                return std::nullopt;
            frame = *victim;
        }
        Entry entry;
        entry.key = key;
        entry.frame = frame;
        entry.pins = 1;
        auto ghost = ghost_map_.find(key);
        entry.freq = ghost != ghost_map_.end() ? ghost->second + 1 : 1;
        entry.expire = now_ + life_time_;
        entry.queue = queueFor(entry.freq);
        QueueList &queue = queues_[entry.queue];
        queue.push_back(entry);
        map_[key] = std::prev(queue.end());
        return frameAddr(frame);
    }

    void
    unpin(CacheKey key) override
    {
        auto it = map_.find(key);
        if (it != map_.end())
            --it->second->pins;
    }

    void
    invalidate(CacheKey key) override
    {
        auto it = map_.find(key);
        if (it == map_.end() || it->second->pins > 0)
            return;
        free_frames_.push_back(it->second->frame);
        queues_[it->second->queue].erase(it->second);
        map_.erase(it);
    }

    void
    invalidateAll() override
    {
        for (auto &queue : queues_) {
            for (auto it = queue.begin(); it != queue.end();) {
                if (it->pins > 0) {
                    ++it;
                    continue;
                }
                free_frames_.push_back(it->frame);
                map_.erase(it->key);
                it = queue.erase(it);
            }
        }
        ghost_map_.clear();
        ghost_fifo_.clear();
    }

    bool
    contains(CacheKey key) const override
    {
        return map_.find(key) != map_.end();
    }

    uint64_t residentBlocks() const override { return map_.size(); }
    uint64_t ghostSize() const { return ghost_map_.size(); }

    /** The frequency the ghost queue remembers for @p key. */
    std::optional<uint64_t>
    ghostFrequency(CacheKey key) const
    {
        auto it = ghost_map_.find(key);
        if (it == ghost_map_.end())
            return std::nullopt;
        return it->second;
    }

    /** The queue a resident @p key sits in. */
    std::optional<uint32_t>
    queueOf(CacheKey key) const
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return std::nullopt;
        return it->second->queue;
    }

  private:
    struct Entry
    {
        CacheKey key;
        uint64_t frame;
        uint32_t pins = 0;
        uint64_t freq = 1;
        uint64_t expire = 0;
        uint32_t queue = 0;
    };

    using QueueList = std::list<Entry>;

    uint32_t
    queueFor(uint64_t freq) const
    {
        uint32_t q = 0;
        while (freq > 1 && q + 1 < config_.queue_count) {
            freq >>= 1;
            ++q;
        }
        return q;
    }

    void
    adjust()
    {
        for (uint32_t q = 1; q < queues_.size(); ++q) {
            QueueList &queue = queues_[q];
            if (queue.empty())
                continue;
            Entry &head = queue.front();
            if (head.expire < now_ && head.pins == 0) {
                head.queue = q - 1;
                head.expire = now_ + life_time_;
                QueueList &lower = queues_[q - 1];
                lower.splice(lower.end(), queue, queue.begin());
                map_[lower.back().key] = std::prev(lower.end());
            }
        }
    }

    void
    requeue(QueueList::iterator it)
    {
        const uint32_t target = queueFor(it->freq);
        it->expire = now_ + life_time_;
        QueueList &from = queues_[it->queue];
        QueueList &to = queues_[target];
        it->queue = target;
        to.splice(to.end(), from, it);
        map_[it->key] = it;
    }

    std::optional<uint64_t>
    evictOne()
    {
        for (auto &queue : queues_) {
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                if (it->pins != 0)
                    continue;
                const uint64_t frame = it->frame;
                remember(it->key, it->freq);
                map_.erase(it->key);
                queue.erase(it);
                return frame;
            }
        }
        return std::nullopt;
    }

    void
    remember(CacheKey key, uint64_t freq)
    {
        if (ghost_capacity_ == 0)
            return;
        if (ghost_map_.find(key) == ghost_map_.end()) {
            while (ghost_fifo_.size() >= ghost_capacity_) {
                ghost_map_.erase(ghost_fifo_.front());
                ghost_fifo_.pop_front();
            }
            ghost_fifo_.push_back(key);
        }
        ghost_map_[key] = freq;
    }

    MqConfig config_;
    uint64_t life_time_;
    uint64_t now_ = 0;
    std::vector<QueueList> queues_;
    util::FlatMap<CacheKey, QueueList::iterator, CacheKeyHash> map_;
    std::vector<uint64_t> free_frames_;
    util::FlatMap<CacheKey, uint64_t, CacheKeyHash> ghost_map_;
    std::deque<CacheKey> ghost_fifo_;
    uint64_t ghost_capacity_;
};

/** Frame index of a returned address, or -1 for nullopt. */
int64_t
frameOf(const BlockCache &cache, std::optional<sim::Addr> addr)
{
    if (!addr.has_value())
        return -1;
    return static_cast<int64_t>((*addr - cache.frameBase()) / 8192);
}

/**
 * Drives MqCache and the list oracle with one seeded random stream of
 * lookups, inserts, unpins and invalidations over a key universe a
 * few times the capacity, so eviction, demotion, ghost hits and the
 * ghost ring's wrap all happen; every result must agree.
 */
void
runAgainstOracle(uint64_t seed, uint64_t capacity, MqConfig config)
{
    sim::MemorySpace mem_flat, mem_list;
    MqCache flat(mem_flat, 8192, capacity, config);
    ListMqCache list(mem_list, 8192, capacity, config);
    sim::Rng rng(seed);
    const uint64_t universe = capacity * 5;
    const uint64_t ghost_capacity = static_cast<uint64_t>(
        static_cast<double>(capacity) * config.ghost_ratio);
    std::vector<CacheKey> pinned;
    uint64_t ghost_full_ops = 0;
    uint64_t failed_inserts = 0;

    for (int op = 0; op < 120000; ++op) {
        // Skewed keys: half the accesses go to a hot tenth.
        const uint64_t block = rng.bernoulli(0.5)
                                   ? rng.uniformInt(0, universe / 10)
                                   : rng.uniformInt(0, universe - 1);
        const CacheKey k = key(block);
        const uint64_t dice = rng.uniformInt(0, 999);
        std::optional<sim::Addr> got_flat, got_list;
        if (dice < 400) {
            got_flat = flat.lookupAndPin(k);
            got_list = list.lookupAndPin(k);
        } else if (dice < 700) {
            got_flat = flat.insertAndPin(k);
            got_list = list.insertAndPin(k);
            failed_inserts += got_flat.has_value() ? 0 : 1;
        } else if (dice < 980) {
            if (!pinned.empty()) {
                const size_t i = rng.uniformInt(0, pinned.size() - 1);
                flat.unpin(pinned[i]);
                list.unpin(pinned[i]);
                pinned[i] = pinned.back();
                pinned.pop_back();
            }
        } else if (dice < 999) {
            flat.invalidate(k);
            list.invalidate(k);
        } else {
            flat.invalidateAll();
            list.invalidateAll();
        }
        ASSERT_EQ(frameOf(flat, got_flat), frameOf(list, got_list))
            << "op " << op;
        if (got_flat.has_value())
            pinned.push_back(k);
        // Alternate phases of few pins (eviction has free choice)
        // and many (every frame may be pinned, so inserts fail).
        const size_t pin_limit =
            (op / 2000) % 2 == 0 ? capacity / 2 : capacity * 3;
        while (pinned.size() > pin_limit) {
            flat.unpin(pinned.front());
            list.unpin(pinned.front());
            pinned.erase(pinned.begin());
        }
        ASSERT_EQ(flat.hits(), list.hits()) << "op " << op;
        ASSERT_EQ(flat.misses(), list.misses()) << "op " << op;
        ASSERT_EQ(flat.residentBlocks(), list.residentBlocks())
            << "op " << op;
        ASSERT_EQ(flat.ghostSize(), list.ghostSize()) << "op " << op;
        ASSERT_EQ(flat.contains(k), list.contains(k)) << "op " << op;
        ghost_full_ops += flat.ghostSize() == ghost_capacity ? 1 : 0;
        if (op % 4096 == 0) {
            for (uint64_t b = 0; b < universe; ++b)
                ASSERT_EQ(flat.contains(key(b)), list.contains(key(b)));
        }
    }
    // The stream reached the paths the comparison is for.
    EXPECT_GT(ghost_full_ops, 1000u); // ghost ring full and wrapping
    EXPECT_GT(failed_inserts, 0u);    // every frame pinned
    EXPECT_GT(flat.hits(), 10000u);
    EXPECT_GT(flat.misses(), 10000u);
}

TEST(MqCache, MatchesListOracleDefaultConfig)
{
    runAgainstOracle(7, 24, MqConfig{});
}

TEST(MqCache, MatchesListOracleWhenHotBlocksReturnFromFullGhost)
{
    // Hot blocks climb past 2^16 accesses, far past 2^7 (the top of
    // the default eight queues), idle until they demote and are
    // evicted into a full ghost queue, and come back. The frequency
    // is 2^16 + 8: kept at any width of 32 bits or more it sends the
    // returning blocks to the top queue again, while one cut to 8 or
    // 16 bits would send them to queue 3, and they would then demote
    // to the bottom and be evicted before the oracle's.
    constexpr uint64_t kCapacity = 16;
    constexpr uint64_t kHotTouches = (uint64_t{1} << 16) + 8;
    const std::vector<uint64_t> hot = {0, 1, 2};
    sim::MemorySpace mem_flat, mem_list;
    MqConfig config;
    MqCache flat(mem_flat, 8192, kCapacity, config);
    ListMqCache list(mem_list, 8192, kCapacity, config);
    const uint64_t ghost_capacity = kCapacity * 2;
    uint64_t next_cold = 1000;

    // One access to both caches: lookup, insert on a miss, unpin.
    const auto step = [&](uint64_t block) {
        const CacheKey k = key(block);
        std::optional<sim::Addr> got_flat = flat.lookupAndPin(k);
        std::optional<sim::Addr> got_list = list.lookupAndPin(k);
        ASSERT_EQ(frameOf(flat, got_flat), frameOf(list, got_list));
        if (!got_flat.has_value()) {
            got_flat = flat.insertAndPin(k);
            got_list = list.insertAndPin(k);
            ASSERT_EQ(frameOf(flat, got_flat), frameOf(list, got_list));
        }
        flat.unpin(k);
        list.unpin(k);
        ASSERT_EQ(flat.hits(), list.hits());
        ASSERT_EQ(flat.misses(), list.misses());
        ASSERT_EQ(flat.residentBlocks(), list.residentBlocks());
        ASSERT_EQ(flat.ghostSize(), list.ghostSize());
        for (const uint64_t b : hot)
            ASSERT_EQ(flat.contains(key(b)), list.contains(key(b)));
    };
    const auto anyHotResident = [&] {
        return std::any_of(hot.begin(), hot.end(), [&](uint64_t b) {
            return list.contains(key(b));
        });
    };

    // Climb, with a cold block every eighth round so the cache stays
    // full and the ghost ring wraps.
    for (uint64_t round = 0; round < kHotTouches; ++round) {
        for (const uint64_t b : hot)
            ASSERT_NO_FATAL_FAILURE(step(b)) << "climb " << round;
        if (round % 8 == 0) {
            ASSERT_NO_FATAL_FAILURE(step(next_cold++));
        }
    }
    ASSERT_EQ(list.queueOf(key(0)), config.queue_count - 1);

    // Idle: cold traffic until every hot block has been evicted.
    for (int i = 0; anyHotResident(); ++i) {
        ASSERT_LT(i, 10000);
        ASSERT_NO_FATAL_FAILURE(step(next_cold++)) << "idle " << i;
    }
    ASSERT_EQ(list.ghostSize(), ghost_capacity);
    for (const uint64_t b : hot)
        ASSERT_EQ(list.ghostFrequency(key(b)), kHotTouches);

    // Return: each hot block resumes in the top queue.
    for (const uint64_t b : hot) {
        ASSERT_NO_FATAL_FAILURE(step(b));
        ASSERT_EQ(list.queueOf(key(b)), config.queue_count - 1);
    }
    // And idles out again in step with the oracle.
    for (int i = 0; anyHotResident(); ++i) {
        ASSERT_LT(i, 10000);
        ASSERT_NO_FATAL_FAILURE(step(next_cold++)) << "return " << i;
    }
}

TEST(MqCache, MatchesListOracleShortLifetime)
{
    // Short lifetimes demote idle heads on most accesses; four queues
    // cap promotion early; a 1.5x ghost ring wraps quickly.
    MqConfig config;
    config.queue_count = 4;
    config.life_time = 10;
    config.ghost_ratio = 1.5;
    runAgainstOracle(2024, 32, config);
}

} // namespace
} // namespace v3sim::storage
