#include "mq_cache.hh"

#include <algorithm>
#include <cassert>

namespace v3sim::storage
{

MqCache::MqCache(sim::MemorySpace &memory, uint64_t block_size,
                 uint64_t capacity_blocks, MqConfig config)
    : BlockCache(memory, block_size, capacity_blocks),
      config_(config),
      life_time_(config.life_time ? config.life_time
                                  : 2 * capacity_blocks),
      queues_(config.queue_count),
      ghost_capacity_(static_cast<uint64_t>(
          static_cast<double>(capacity_blocks) * config.ghost_ratio))
{
    assert(config_.queue_count >= 1);
    // Every frequency from 2^31 up maps to the top queue, so a ghost
    // frequency saturated at UINT32_MAX resumes in the same queue.
    assert(config_.queue_count <= 32);
    assert(capacity_ < kNil);
}

uint32_t
MqCache::queueFor(uint64_t freq) const
{
    uint32_t q = 0;
    while (freq > 1 && q + 1 < config_.queue_count) {
        freq >>= 1;
        ++q;
    }
    return q;
}

void
MqCache::pushBack(uint32_t frame)
{
    Entry &entry = entries_[frame];
    Queue &queue = queues_[entry.queue];
    entry.prev = queue.tail;
    entry.next = kNil;
    if (queue.tail != kNil)
        entries_[queue.tail].next = frame;
    else
        queue.head = frame;
    queue.tail = frame;
}

void
MqCache::unlink(uint32_t frame)
{
    Entry &entry = entries_[frame];
    Queue &queue = queues_[entry.queue];
    if (entry.prev != kNil)
        entries_[entry.prev].next = entry.next;
    else
        queue.head = entry.next;
    if (entry.next != kNil)
        entries_[entry.next].prev = entry.prev;
    else
        queue.tail = entry.prev;
}

void
MqCache::adjust()
{
    // Amortized demotion: inspect the head of each non-bottom queue
    // once per access, demoting it if its lifetime expired.
    for (uint32_t q = 1; q < queues_.size(); ++q) {
        const uint32_t frame = queues_[q].head;
        if (frame == kNil)
            continue;
        Entry &head = entries_[frame];
        if (head.expire < now_ && head.pins == 0) {
            unlink(frame);
            head.queue = q - 1;
            head.expire = now_ + life_time_;
            pushBack(frame);
        }
    }
}

void
MqCache::requeue(uint32_t frame)
{
    Entry &entry = entries_[frame];
    entry.expire = now_ + life_time_;
    unlink(frame);
    entry.queue = queueFor(entry.freq);
    pushBack(frame);
}

std::optional<sim::Addr>
MqCache::lookupAndPin(CacheKey key)
{
    ++now_;
    adjust();
    auto it = map_.find(key);
    if (it == map_.end()) {
        recordMiss();
        return std::nullopt;
    }
    recordHit();
    const uint32_t frame = it->second;
    Entry &entry = entries_[frame];
    ++entry.freq;
    requeue(frame);
    ++entry.pins;
    return frameAddr(frame);
}

std::optional<uint32_t>
MqCache::freeFrame()
{
    if (!free_frames_.empty()) {
        const uint32_t frame = free_frames_.back();
        free_frames_.pop_back();
        return frame;
    }
    if (entries_.size() < capacity_) {
        entries_.emplace_back();
        return static_cast<uint32_t>(entries_.size() - 1);
    }
    return std::nullopt;
}

std::optional<uint32_t>
MqCache::evictOne()
{
    for (const Queue &queue : queues_) {
        for (uint32_t frame = queue.head; frame != kNil;
             frame = entries_[frame].next) {
            const Entry &entry = entries_[frame];
            if (entry.pins != 0)
                continue;
            remember(entry.key, entry.freq);
            release(frame);
            return frame;
        }
    }
    return std::nullopt;
}

void
MqCache::release(uint32_t frame)
{
    unlink(frame);
    map_.erase(entries_[frame].key);
}

void
MqCache::remember(CacheKey key, uint64_t freq)
{
    if (ghost_capacity_ == 0)
        return;
    if (ghost_ring_.capacity() == 0)
        ghost_ring_.reserve(ghost_capacity_);
    if (ghost_map_.find(key) == ghost_map_.end()) {
        if (ghost_count_ == ghost_capacity_) {
            ghost_map_.erase(ghost_ring_[ghost_head_]);
            if (++ghost_head_ == ghost_capacity_)
                ghost_head_ = 0;
            --ghost_count_;
        }
        uint64_t tail = ghost_head_ + ghost_count_;
        if (tail >= ghost_capacity_)
            tail -= ghost_capacity_;
        if (tail == ghost_ring_.size())
            ghost_ring_.push_back(key);
        else
            ghost_ring_[tail] = key;
        ++ghost_count_;
    }
    ghost_map_[key] =
        static_cast<uint32_t>(std::min<uint64_t>(freq, UINT32_MAX));
}

std::optional<sim::Addr>
MqCache::insertAndPin(CacheKey key)
{
    ++now_;
    auto it = map_.find(key);
    if (it != map_.end()) {
        ++entries_[it->second].pins;
        return frameAddr(it->second);
    }

    std::optional<uint32_t> frame = freeFrame();
    if (!frame.has_value())
        frame = evictOne();
    if (!frame.has_value())
        return std::nullopt;

    Entry &entry = entries_[*frame];
    entry.key = key;
    entry.pins = 1;
    // Resume the block's remembered standing, if any (ghost hit).
    auto ghost = ghost_map_.find(key);
    entry.freq =
        ghost != ghost_map_.end() ? uint64_t{ghost->second} + 1 : 1;
    entry.expire = now_ + life_time_;
    entry.queue = queueFor(entry.freq);
    pushBack(*frame);
    map_[key] = *frame;
    return frameAddr(*frame);
}

void
MqCache::unpin(CacheKey key)
{
    auto it = map_.find(key);
    if (it == map_.end())
        return;
    assert(entries_[it->second].pins > 0);
    --entries_[it->second].pins;
}

void
MqCache::invalidate(CacheKey key)
{
    auto it = map_.find(key);
    if (it == map_.end() || entries_[it->second].pins > 0)
        return;
    const uint32_t frame = it->second;
    free_frames_.push_back(frame);
    release(frame);
}

void
MqCache::invalidateAll()
{
    for (const Queue &queue : queues_) {
        uint32_t frame = queue.head;
        while (frame != kNil) {
            const uint32_t next = entries_[frame].next;
            if (entries_[frame].pins == 0) {
                free_frames_.push_back(frame);
                release(frame);
            }
            frame = next;
        }
    }
    // A crash also forgets ghost history: the restarted node has no
    // memory of pre-crash access frequencies.
    ghost_map_.clear();
    ghost_head_ = 0;
    ghost_count_ = 0;
}

bool
MqCache::contains(CacheKey key) const
{
    return map_.find(key) != map_.end();
}

} // namespace v3sim::storage
