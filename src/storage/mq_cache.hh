/**
 * @file
 * Multi-Queue (MQ) replacement for the V3 server cache.
 *
 * The paper's V3 cache design cites the authors' own second-level
 * buffer-cache work (Zhou, Philbin, Li, "The Multi-Queue Replacement
 * Algorithm for Second Level Buffer Caches", USENIX ATC 2001). The
 * key observation: a storage server's cache sits *below* the
 * database's own buffer pool, so it sees accesses with weak recency
 * but meaningful frequency — plain LRU keeps the wrong blocks.
 *
 * MQ as implemented here, following the published algorithm:
 *  - m LRU queues Q0..Q(m-1); a block with access frequency f lives
 *    in queue min(log2(f), m-1);
 *  - on hit, frequency increments and the block moves to the tail of
 *    its (possibly higher) queue with expiry now + lifeTime;
 *  - Adjust(): when the block at the head of a queue expires, it
 *    demotes one queue down (amortized one check per access);
 *  - eviction takes the head of the lowest non-empty queue (skipping
 *    pinned frames);
 *  - a ghost FIFO Qout remembers the frequencies of recently evicted
 *    blocks so re-fetched blocks resume their old standing.
 */

#ifndef V3SIM_STORAGE_MQ_CACHE_HH
#define V3SIM_STORAGE_MQ_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <vector>

#include "storage/block_cache.hh"

namespace v3sim::storage
{

/** MQ policy configuration. */
struct MqConfig
{
    /** Number of LRU queues (the paper's m; 8 covers f up to 2^7). */
    uint32_t queue_count = 8;

    /**
     * Accesses a block may sit idle before demotion. 0 means "use
     * the heuristic default" of 2x capacity accesses.
     */
    uint64_t life_time = 0;

    /**
     * Ghost-queue capacity as a multiple of cache capacity (the MQ
     * paper's Kout; it recommends on the order of the cache size).
     */
    double ghost_ratio = 2.0;
};

/** The Multi-Queue block cache. */
class MqCache : public BlockCache
{
  public:
    MqCache(sim::MemorySpace &memory, uint64_t block_size,
            uint64_t capacity_blocks, MqConfig config = {});
    ~MqCache() override { retireMetrics(); }

    std::optional<sim::Addr> lookupAndPin(CacheKey key) override;
    std::optional<sim::Addr> insertAndPin(CacheKey key) override;
    void unpin(CacheKey key) override;
    void invalidate(CacheKey key) override;
    void invalidateAll() override;
    bool contains(CacheKey key) const override;
    uint64_t residentBlocks() const override { return map_.size(); }

    uint64_t ghostSize() const { return ghost_map_.size(); }

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

    /** Queue index for a frequency. */
    uint32_t queueFor(uint64_t freq) const;

    /** Demotes expired queue heads (amortized; one pass per call). */
    void adjust();

    /** Moves an entry to the tail of the queue its frequency maps
     *  to, refreshing its expiry. */
    void requeue(QueueList::iterator it);

    /** Evicts from the head of the lowest non-empty queue; returns
     *  the freed frame or nullopt if all entries are pinned. */
    std::optional<uint64_t> evictOne();

    /** Remembers an evicted block's frequency in the ghost queue. */
    void remember(CacheKey key, uint64_t freq);

    MqConfig config_;
    uint64_t life_time_;
    uint64_t now_ = 0; ///< access clock

    std::vector<QueueList> queues_;
    util::FlatMap<CacheKey, QueueList::iterator, CacheKeyHash>
        map_;
    std::vector<uint64_t> free_frames_;

    /** Ghost entries: key -> remembered frequency, FIFO-bounded. */
    util::FlatMap<CacheKey, uint64_t, CacheKeyHash> ghost_map_;
    std::deque<CacheKey> ghost_fifo_;
    uint64_t ghost_capacity_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_MQ_CACHE_HH
