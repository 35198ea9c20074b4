/**
 * @file
 * Ordered key -> value index for simulator hot paths.
 *
 * std::map pays a node allocation per insert and a pointer chase per
 * tree level on every lookup. OrderedIndex keeps its items sorted in
 * chunks of at most kChunkMax contiguous items, plus one contiguous
 * array of each chunk's first key: find() and floor() are two binary
 * searches over contiguous memory, and insert() / erase() move at
 * most one chunk's items, plus the chunk array on a split, merge or
 * emptied chunk. A single sorted array would move every item on
 * each insert and erase, which is quadratic when thousands of
 * distinct keys retire at once (a batched deregistration of a large
 * translation-table region).
 *
 * Iteration (forEach, findIf) runs in ascending key order,
 * so model code may walk the index (DESIGN.md §8). Value pointers
 * are invalidated by any insert or erase; call sites use them at
 * once.
 */

#ifndef V3SIM_UTIL_ORDERED_INDEX_HH
#define V3SIM_UTIL_ORDERED_INDEX_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace v3sim::util
{

template <typename K, typename V>
class OrderedIndex
{
  public:
    struct Item
    {
        K key;
        V value;
    };

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The value stored under @p key, or nullptr. */
    V *
    find(const K &key)
    {
        if (chunks_.empty())
            return nullptr;
        std::vector<Item> &chunk = chunks_[chunkOf(key)];
        auto it = lowerBound(chunk, key);
        return it != chunk.end() && it->key == key ? &it->value
                                                   : nullptr;
    }

    /** The item with the greatest key <= @p key, or nullptr. */
    const Item *
    floor(const K &key) const
    {
        auto next = std::upper_bound(firsts_.begin(), firsts_.end(), key);
        if (next == firsts_.begin())
            return nullptr;
        const std::vector<Item> &chunk =
            chunks_[static_cast<std::size_t>(next - firsts_.begin()) - 1];
        // The chunk's first key is <= key, so the item exists.
        auto it = std::upper_bound(
            chunk.begin(), chunk.end(), key,
            [](const K &k, const Item &item) { return k < item.key; });
        return &*std::prev(it);
    }

    /** The item with the smallest key; the index must not be empty. */
    const Item &
    front() const
    {
        assert(size_ > 0);
        return chunks_.front().front();
    }

    /** Inserts @p key, which must be absent; returns its value. */
    V &
    insert(const K &key, V value)
    {
        if (chunks_.empty()) {
            chunks_.push_back(newChunk());
            firsts_.push_back(key);
        }
        const std::size_t c = chunkOf(key);
        std::vector<Item> &chunk = chunks_[c];
        auto it = lowerBound(chunk, key);
        assert(it == chunk.end() || it->key != key);
        std::size_t pos = static_cast<std::size_t>(it - chunk.begin());
        chunk.insert(it, Item{key, std::move(value)});
        if (pos == 0)
            firsts_[c] = key;
        ++size_;
        if (chunk.size() <= kChunkMax)
            return chunk[pos].value;

        // Split the full chunk in halves.
        const std::size_t half = chunk.size() / 2;
        std::vector<Item> upper = newChunk();
        std::move(chunk.begin() + half, chunk.end(),
                  std::back_inserter(upper));
        chunk.erase(chunk.begin() + half, chunk.end());
        firsts_.insert(firsts_.begin() + c + 1, upper.front().key);
        chunks_.insert(chunks_.begin() + c + 1, std::move(upper));
        return pos < half ? chunks_[c][pos].value
                          : chunks_[c + 1][pos - half].value;
    }

    /** Removes @p key; false if it was absent. */
    bool
    erase(const K &key)
    {
        if (chunks_.empty())
            return false;
        const std::size_t c = chunkOf(key);
        std::vector<Item> &chunk = chunks_[c];
        auto it = lowerBound(chunk, key);
        if (it == chunk.end() || it->key != key)
            return false;
        const bool was_first = it == chunk.begin();
        chunk.erase(it);
        --size_;
        if (chunk.empty()) {
            removeChunk(c);
            return true;
        }
        if (was_first)
            firsts_[c] = chunk.front().key;
        if (chunk.size() < kChunkMax / 4)
            mergeSmall(c);
        return true;
    }

    /** Calls @p fn(item) for every item, in ascending key order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const std::vector<Item> &chunk : chunks_) {
            for (const Item &item : chunk)
                fn(item);
        }
    }

    /** The first item, in ascending key order, for which
     *  @p pred(item) holds; nullptr if none does. */
    template <typename Pred>
    Item *
    findIf(Pred pred)
    {
        for (std::vector<Item> &chunk : chunks_) {
            for (Item &item : chunk) {
                if (pred(item))
                    return &item;
            }
        }
        return nullptr;
    }

  private:
    /** Items per chunk before it splits. A chunk that shrinks below a
     *  quarter of this merges into a neighbour when the two fit in
     *  one chunk, so no two adjacent chunks are both that small and
     *  the chunk count stays O(size / kChunkMax). */
    static constexpr std::size_t kChunkMax = 128;

    static typename std::vector<Item>::iterator
    lowerBound(std::vector<Item> &chunk, const K &key)
    {
        return std::lower_bound(
            chunk.begin(), chunk.end(), key,
            [](const Item &item, const K &k) { return item.key < k; });
    }

    /** The last chunk whose first key is <= @p key; chunk 0 when
     *  @p key precedes every chunk. The index must not be empty. */
    std::size_t
    chunkOf(const K &key) const
    {
        auto next = std::upper_bound(firsts_.begin(), firsts_.end(), key);
        return next == firsts_.begin()
                   ? 0
                   : static_cast<std::size_t>(next - firsts_.begin()) - 1;
    }

    /** Merges small chunk @p c into a neighbour when both fit. */
    void
    mergeSmall(std::size_t c)
    {
        if (c > 0 && chunks_[c - 1].size() + chunks_[c].size() <= kChunkMax)
            --c; // merge c into c - 1
        else if (c + 1 >= chunks_.size() ||
                 chunks_[c].size() + chunks_[c + 1].size() > kChunkMax)
            return;
        std::vector<Item> &into = chunks_[c];
        std::vector<Item> &from = chunks_[c + 1];
        std::move(from.begin(), from.end(), std::back_inserter(into));
        removeChunk(c + 1);
    }

    /** An empty chunk that holds kChunkMax + 1 items without growing:
     *  a spare one when there is, so churn reuses chunk storage. */
    std::vector<Item>
    newChunk()
    {
        if (spare_.empty()) {
            std::vector<Item> chunk;
            chunk.reserve(kChunkMax + 1);
            return chunk;
        }
        std::vector<Item> chunk = std::move(spare_.back());
        spare_.pop_back();
        return chunk;
    }

    /** Drops chunk @p c, keeping its storage as a spare. */
    void
    removeChunk(std::size_t c)
    {
        chunks_[c].clear();
        spare_.push_back(std::move(chunks_[c]));
        chunks_.erase(chunks_.begin() + c);
        firsts_.erase(firsts_.begin() + c);
    }

    /** Sorted chunks, each non-empty; chunk c's keys all precede
     *  chunk c + 1's. */
    std::vector<std::vector<Item>> chunks_;
    /** firsts_[c] == chunks_[c].front().key. */
    std::vector<K> firsts_;
    /** Storage of removed chunks, reused by the next splits: a table
     *  whose size only churns allocates nothing once warm. */
    std::vector<std::vector<Item>> spare_;
    std::size_t size_ = 0;
};

} // namespace v3sim::util

#endif // V3SIM_UTIL_ORDERED_INDEX_HH
