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
 *
 * Storage is flat (DESIGN.md §10.2): one entry per frame in an array
 * indexed by frame, the m queues threaded through the entries as
 * intrusive doubly-linked lists, a FlatMap from key to frame, and the
 * ghost FIFO in a ring. The entry array grows only as frames are
 * first used, so a large, mostly idle cache stays small; the ghost
 * ring is allocated once, at its full capacity, when the first block
 * is evicted, and its pages become resident as its slots are first
 * used.
 */

#ifndef V3SIM_STORAGE_MQ_CACHE_HH
#define V3SIM_STORAGE_MQ_CACHE_HH

#include <cstdint>
#include <vector>

#include "storage/block_cache.hh"

namespace v3sim::storage
{

/** MQ policy configuration. */
struct MqConfig
{
    /** Number of LRU queues (the paper's m; 8 covers f up to 2^7),
     *  1 to 32. */
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
    /** Link value for "no frame". */
    static constexpr uint32_t kNil = UINT32_MAX;

    /** A resident block, stored at its frame's index. */
    struct Entry
    {
        CacheKey key;
        uint64_t freq = 1;
        uint64_t expire = 0;
        uint32_t pins = 0;
        uint32_t queue = 0;
        /** Neighbours in the entry's queue (head = least recent). */
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };

    struct Queue
    {
        uint32_t head = kNil;
        uint32_t tail = kNil;
    };

    /** Queue index for a frequency. */
    uint32_t queueFor(uint64_t freq) const;

    /** Appends @p frame's entry to the tail of its queue. */
    void pushBack(uint32_t frame);

    /** Unlinks @p frame's entry from its queue. */
    void unlink(uint32_t frame);

    /** Demotes expired queue heads (amortized; one pass per call). */
    void adjust();

    /** Moves an entry to the tail of the queue its frequency maps
     *  to, refreshing its expiry. */
    void requeue(uint32_t frame);

    /** Takes a free frame: the last one invalidated, else the lowest
     *  never used; nullopt once every frame is resident. */
    std::optional<uint32_t> freeFrame();

    /** Evicts from the head of the lowest non-empty queue; returns
     *  the freed frame or nullopt if all entries are pinned. */
    std::optional<uint32_t> evictOne();

    /** Drops @p frame's resident block (its entry stays, unused). */
    void release(uint32_t frame);

    /** Remembers an evicted block's frequency in the ghost queue. */
    void remember(CacheKey key, uint64_t freq);

    MqConfig config_;
    uint64_t life_time_;
    uint64_t now_ = 0; ///< access clock

    std::vector<Queue> queues_;
    /** Entries by frame; frames at and past its size were never used. */
    std::vector<Entry> entries_;
    util::FlatMap<CacheKey, uint32_t, CacheKeyHash> map_;
    /** Frames freed by invalidation, reused last-in first-out. */
    std::vector<uint32_t> free_frames_;

    /** Ghost entries: key -> remembered frequency, FIFO-bounded.
     *  The frequency saturates at UINT32_MAX, which maps to the same
     *  queue as any higher one (queue_count is at most 32). */
    util::FlatMap<CacheKey, uint32_t, CacheKeyHash> ghost_map_;
    /** Ghost FIFO as a ring of ghost_capacity_ slots, oldest at
     *  ghost_head_; reserved whole on the first eviction, and slots
     *  past its size were never used. */
    std::vector<CacheKey> ghost_ring_;
    uint64_t ghost_head_ = 0;
    uint64_t ghost_count_ = 0;
    uint64_t ghost_capacity_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_MQ_CACHE_HH
