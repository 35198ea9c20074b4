/**
 * @file
 * A map from sequence numbers to values, for keys that live in a
 * sliding window (a retransmission filter's outstanding sequences).
 *
 * Live keys sit in [base, base + span): a power-of-two ring indexed
 * by seq & mask, so find/set/erase are an index and a flag test, and
 * pruning everything below an acknowledgement watermark clears the
 * slots it passes. Both window ends always hold live keys. A key
 * below the base (a late duplicate after a prune) widens the window
 * downward; the ring grows to the window's span, never to the key
 * count, so keys should be dense.
 */

#ifndef V3SIM_UTIL_SEQ_WINDOW_HH
#define V3SIM_UTIL_SEQ_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace v3sim::util
{

template <typename V>
class SeqWindow
{
  public:
    std::size_t size() const { return count_; }

    /** The value stored under @p seq, or nullptr. */
    V *
    find(uint64_t seq)
    {
        if (seq < base_ || seq - base_ >= span_)
            return nullptr;
        Slot &slot = at(seq);
        return slot.used ? &slot.value : nullptr;
    }

    /** Stores @p value under @p seq (inserting or overwriting). */
    void
    set(uint64_t seq, V value)
    {
        if (span_ == 0) {
            base_ = seq;
            reserve(1);
            span_ = 1;
        } else if (seq < base_) {
            reserve(base_ + span_ - seq);
            span_ += base_ - seq;
            base_ = seq;
        } else if (seq - base_ >= span_) {
            reserve(seq - base_ + 1);
            span_ = seq - base_ + 1;
        }
        Slot &slot = at(seq);
        if (!slot.used)
            ++count_;
        slot.value = std::move(value);
        slot.used = true;
    }

    /** Removes @p seq if present. */
    void
    erase(uint64_t seq)
    {
        V *value = find(seq);
        if (value == nullptr)
            return;
        clear(at(seq));
        // Keep both window ends live.
        while (span_ > 0 && !at(base_).used) {
            ++base_;
            --span_;
        }
        while (span_ > 0 && !at(base_ + span_ - 1).used)
            --span_;
    }

    /** Removes every key below @p seq. */
    void
    eraseBelow(uint64_t seq)
    {
        while (span_ > 0 && base_ < seq) {
            clear(at(base_));
            ++base_;
            --span_;
        }
        while (span_ > 0 && !at(base_).used) {
            ++base_;
            --span_;
        }
    }

  private:
    struct Slot
    {
        V value{};
        bool used = false;
    };

    Slot &at(uint64_t seq) { return ring_[seq & (ring_.size() - 1)]; }

    void
    clear(Slot &slot)
    {
        if (slot.used)
            --count_;
        slot = Slot{};
    }

    /** Grows the ring to hold a window of @p span slots. Every slot
     *  outside the window is kept clear, so a window that widens
     *  only finds free slots. */
    void
    reserve(uint64_t span)
    {
        if (span <= ring_.size())
            return;
        std::size_t capacity = ring_.empty() ? 16 : ring_.size();
        while (capacity < span)
            capacity *= 2;
        std::vector<Slot> old = std::move(ring_);
        ring_.assign(capacity, Slot{});
        for (uint64_t seq = base_; seq - base_ < span_; ++seq) {
            Slot &from = old[seq & (old.size() - 1)];
            if (from.used)
                at(seq) = std::move(from);
        }
    }

    std::vector<Slot> ring_;
    uint64_t base_ = 0;
    uint64_t span_ = 0;
    std::size_t count_ = 0;
};

} // namespace v3sim::util

#endif // V3SIM_UTIL_SEQ_WINDOW_HH
