/**
 * @file
 * The V3 cache manager's block cache.
 *
 * Section 2.1: "V3 uses large main memories as disk buffer caches to
 * help reduce disk latencies." The cache manages a fixed pool of
 * block-sized frames carved out of the server's memory space (and
 * registered once with the server NIC so frames are valid RDMA
 * sources/targets).
 *
 * The interface uses pin counts because frames are DMA'd from/to
 * while requests are in flight: eviction only ever claims unpinned
 * frames. Two policies are provided: classic LRU (here) and the
 * Multi-Queue algorithm (mq_cache.hh) the V3 authors designed for
 * exactly this second-level buffer cache.
 */

#ifndef V3SIM_STORAGE_BLOCK_CACHE_HH
#define V3SIM_STORAGE_BLOCK_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <vector>

#include "sim/memory.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "util/flat_map.hh"

namespace v3sim::storage
{

/** Identifies one cache block: volume id + block index. */
struct CacheKey
{
    uint32_t volume = 0;
    uint64_t block = 0;

    bool
    operator==(const CacheKey &other) const
    {
        return volume == other.volume && block == other.block;
    }
};

struct CacheKeyHash
{
    size_t
    operator()(const CacheKey &key) const
    {
        return std::hash<uint64_t>()(key.block * 1000003 + key.volume);
    }
};

/** Pluggable replacement policy over a fixed frame pool. */
class BlockCache
{
  public:
    /**
     * Carves @p capacity_blocks frames of @p block_size bytes out of
     * @p memory (one allocation; the server registers it with its
     * NIC once).
     */
    BlockCache(sim::MemorySpace &memory, uint64_t block_size,
               uint64_t capacity_blocks);

    virtual ~BlockCache() = default;

    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    /**
     * Returns the frame address and pins the block if resident;
     * counts a hit or miss either way.
     */
    virtual std::optional<sim::Addr> lookupAndPin(CacheKey key) = 0;

    /**
     * Makes the block resident (evicting an unpinned victim if
     * needed) and pins it. The frame's contents are whatever was
     * there before — the caller fills it. Returns nullopt only when
     * every frame is pinned. Does not count hit/miss statistics.
     */
    virtual std::optional<sim::Addr> insertAndPin(CacheKey key) = 0;

    /** Drops one pin. */
    virtual void unpin(CacheKey key) = 0;

    /** Removes the block if resident and unpinned. */
    virtual void invalidate(CacheKey key) = 0;

    /**
     * Drops every unpinned resident block — the cache comes back
     * cold, as after a node crash (the paper's V3 cache is volatile
     * main memory; section 2.1). Pinned frames survive because
     * in-flight DMA may still reference them; the server drains those
     * requests separately on crash.
     */
    virtual void invalidateAll() = 0;

    /** Residency check without touching recency state. */
    virtual bool contains(CacheKey key) const = 0;

    virtual uint64_t residentBlocks() const = 0;

    uint64_t capacityBlocks() const { return capacity_; }

    /** Base address of the frame pool (for one-shot registration). */
    sim::Addr frameBase() const { return base_; }
    uint64_t frameBytes() const { return capacity_ * block_size_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }

    double
    hitRatio() const
    {
        const uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) / total : 0.0;
    }

    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

    /**
     * Publishes the cache's stats under @p prefix (typically
     * "server.<name>.cache"). The cache keeps owning its counters —
     * it is constructed standalone in unit tests, without a
     * Simulation — so these are gauges plus an epoch hook that
     * clears the hit/miss counts.
     */
    void
    registerMetrics(sim::MetricRegistry &metrics,
                    const std::string &prefix)
    {
        metrics_ = &metrics;
        metrics.gauge(prefix + ".hits", [this] {
            return static_cast<double>(hits());
        }, this);
        metrics.gauge(prefix + ".misses", [this] {
            return static_cast<double>(misses());
        }, this);
        metrics.gauge(prefix + ".hit_ratio",
                      [this] { return hitRatio(); }, this);
        metrics.gauge(prefix + ".resident_blocks", [this] {
            return static_cast<double>(residentBlocks());
        }, this);
        metrics.onEpochReset([this](sim::Tick) { resetStats(); }, this);
    }

  protected:
    /** Retires what registerMetrics() published. Every policy's
     *  destructor calls it: the resident_blocks gauge reads the
     *  policy, which is gone by the time ~BlockCache runs. */
    void
    retireMetrics()
    {
        if (metrics_)
            metrics_->retire(this);
    }

    sim::Addr frameAddr(uint64_t index) const
    {
        return base_ + index * block_size_;
    }

    void recordHit() { hits_.increment(); }
    void recordMiss() { misses_.increment(); }

    uint64_t block_size_;
    uint64_t capacity_;
    sim::Addr base_;

  private:
    sim::Counter hits_;
    sim::Counter misses_;
    /** Where registerMetrics() published; null until then. */
    sim::MetricRegistry *metrics_ = nullptr;
};

/** Classic LRU with pinning. */
class LruCache : public BlockCache
{
  public:
    LruCache(sim::MemorySpace &memory, uint64_t block_size,
             uint64_t capacity_blocks);
    ~LruCache() override { retireMetrics(); }

    std::optional<sim::Addr> lookupAndPin(CacheKey key) override;
    std::optional<sim::Addr> insertAndPin(CacheKey key) override;
    void unpin(CacheKey key) override;
    void invalidate(CacheKey key) override;
    void invalidateAll() override;
    bool contains(CacheKey key) const override;
    uint64_t residentBlocks() const override { return map_.size(); }

  private:
    struct Entry
    {
        CacheKey key;
        uint64_t frame;
        uint32_t pins = 0;
    };

    using LruList = std::list<Entry>;

    /** Evicts the least-recent unpinned entry; returns its frame. */
    std::optional<uint64_t> evictOne();

    LruList lru_; ///< front = LRU, back = MRU
    util::FlatMap<CacheKey, LruList::iterator, CacheKeyHash> map_;
    std::vector<uint64_t> free_frames_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_BLOCK_CACHE_HH
