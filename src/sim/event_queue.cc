#include "event_queue.hh"

#include <algorithm>

namespace v3sim::sim
{

namespace
{

/** SplitMix64 finalizer: the same-tick rank under tie-shuffle. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
EventQueue::tieRank(Tick when, uint64_t seq) const
{
    // Hashed ranks live below 2^63; zero-delay events keep FIFO
    // order above it, after every already-queued same-tick event
    // (see the class comment's tie-shuffle model).
    if (!tie_shuffle_)
        return seq;
    if (when <= now_)
        return kSequencedBase | seq;
    return mix64(tie_seed_ ^ seq) >> 1;
}

void
EventQueue::growPool()
{
    pool_.emplace_back(new Event[kPoolChunk]);
    Event *chunk = pool_.back().get();
    for (size_t i = 0; i < kPoolChunk; ++i) {
        chunk[i].next = free_events_;
        free_events_ = &chunk[i];
    }
}

void
EventQueue::releaseEvent(Event *event)
{
    event->fn.reset();
    event->next = free_events_;
    free_events_ = event;
}

uint32_t
EventQueue::allocControl()
{
    if (free_control_ != kNoControl) {
        const uint32_t slot = free_control_;
        free_control_ = controls_[slot].next_free;
        controls_[slot].next_free = kNoControl;
        return slot;
    }
    controls_.push_back(ControlSlot{});
    return static_cast<uint32_t>(controls_.size() - 1);
}

void
EventQueue::releaseControl(uint32_t slot)
{
    ControlSlot &ctl = controls_[slot];
    // The generation bump is what retires outstanding handles.
    ++ctl.gen;
    ctl.next_free = free_control_;
    free_control_ = slot;
}

void
EventQueue::drop(Event *event)
{
    // Popping the event at its tick would have moved now() there; a
    // draining run() still ends no earlier (see run()).
    dropped_until_ = std::max(dropped_until_, event->when);
    releaseEvent(event);
}

void
EventQueue::cancelSlot(uint32_t slot, uint32_t gen)
{
    if (!slotPending(slot, gen))
        return;
    --pending_;
    Event *event = controls_[slot].event;
    releaseControl(slot);
    if (event->heap_index == kNotInHeap) {
        // In the ring or the sorted region: freed when its bucket
        // melts or when it reaches the back of bottom_.
        event->control = kCancelled;
        return;
    }
    drop(heapRemove(event->heap_index));
}

void
EventQueue::siftUp(size_t index)
{
    const BottomItem item = overflow_[index];
    while (index > 0) {
        const size_t parent = (index - 1) / 2;
        if (!LaterItem{}(overflow_[parent], item))
            break;
        heapSet(index, overflow_[parent]);
        index = parent;
    }
    heapSet(index, item);
}

void
EventQueue::siftDown(size_t index)
{
    const BottomItem item = overflow_[index];
    const size_t size = overflow_.size();
    for (;;) {
        size_t child = 2 * index + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            LaterItem{}(overflow_[child], overflow_[child + 1]))
            ++child;
        if (!LaterItem{}(item, overflow_[child]))
            break;
        heapSet(index, overflow_[child]);
        index = child;
    }
    heapSet(index, item);
}

EventQueue::Event *
EventQueue::heapRemove(size_t index)
{
    Event *event = overflow_[index].event;
    event->heap_index = kNotInHeap;
    const BottomItem last = overflow_.back();
    overflow_.pop_back();
    if (index < overflow_.size()) {
        // The last item fills the hole and sifts whichever way its
        // key sends it.
        overflow_[index] = last;
        if (index > 0 && LaterItem{}(overflow_[(index - 1) / 2], last))
            siftUp(index);
        else
            siftDown(index);
    }
    return event;
}

void
EventQueue::place(Event *event)
{
    const uint64_t bucket =
        static_cast<uint64_t>(event->when) >> kBucketShift;
    if (event->when < bottomLimit()) {
        // Sorted insert (descending; earliest at the back). New
        // arrivals here are same-tick or near-future events, which
        // land a few slots from the back, so insertion from the back
        // moves a handful of flat keys and compares nothing else.
        const BottomItem item{event->when, event->tie, event->seq,
                              event};
        bottom_.push_back(item);
        auto slot = bottom_.end() - 1;
        while (slot != bottom_.begin() && LaterItem{}(item, slot[-1])) {
            *slot = slot[-1];
            --slot;
        }
        *slot = item;
    } else if (bucket < windowEnd()) {
        Event *&head = buckets_[bucket & (kBucketCount - 1)];
        event->next = head;
        head = event;
        ++in_buckets_;
    } else {
        overflow_.push_back(
            BottomItem{event->when, event->tie, event->seq, event});
        siftUp(overflow_.size() - 1);
    }
}

void
EventQueue::enqueue(Event *event, Tick when, uint32_t control)
{
    if (when < now_)
        when = now_;
    const uint64_t seq = next_seq_++;
    event->when = when;
    event->tie = tieRank(when, seq);
    event->seq = seq;
    event->next = nullptr;
    event->control = control;
    event->heap_index = kNotInHeap;
    place(event);
    ++pending_;
}

void
EventQueue::enqueueFinal(Event *event)
{
    // A final event follows every regular event of its tick (any tie
    // rank, shuffled or not) and the final events queued before it;
    // the FIFO is that order. It draws a seq like any event, so later
    // events' seqs, and their tie-shuffle hashes, do not depend on
    // which band an earlier event took.
    ++next_seq_;
    event->when = now_;
    event->next = nullptr;
    event->control = kNoControl;
    if (final_tail_ != nullptr)
        final_tail_->next = event;
    else
        final_head_ = event;
    final_tail_ = event;
    ++pending_;
}

void
EventQueue::pullFromOverflow(uint64_t limit)
{
    // Adopt the overflow events whose bucket the melt has reached.
    // Pulling lazily — only when `limit` catches up with an event's
    // bucket — keeps far-future timers in the compact heap instead of
    // spreading them across the ring, while advance()'s scan cap
    // guarantees a bucket is never melted past an unpulled event.
    while (!overflow_.empty() &&
           (static_cast<uint64_t>(overflow_.front().when) >>
            kBucketShift) <= limit) {
        Event *event = heapRemove(0);
        const uint64_t bucket =
            static_cast<uint64_t>(event->when) >> kBucketShift;
        Event *&head = buckets_[bucket & (kBucketCount - 1)];
        event->next = head;
        head = event;
        ++in_buckets_;
    }
}

bool
EventQueue::advance()
{
    for (;;) {
        // A cancelled event that made it into bottom_ is skipped here,
        // once it reaches the back.
        while (!bottom_.empty()) {
            Event *back = bottom_.back().event;
            if (back->control != kCancelled)
                return true;
            bottom_.pop_back();
            drop(back);
        }
        // Ring and overflow events lie at or past bottomLimit(); below
        // it the final band's head has no regular event left to wait
        // for.
        if (final_head_ != nullptr && final_head_->when < bottomLimit())
            return true;
        if (in_buckets_ == 0 && overflow_.empty())
            return final_head_ != nullptr;
        melt();
        // A melt of cancelled events only leaves bottom_ empty: look
        // again, final band first.
    }
}

void
EventQueue::melt()
{
    const uint64_t overflow_min =
        overflow_.empty()
            ? UINT64_MAX
            : static_cast<uint64_t>(overflow_.front().when) >>
                  kBucketShift;
    // Pick the next bucket to melt: the first non-empty ring bucket,
    // but never past the earliest overflow event — overflow events
    // always sit at or after next_bucket_ (the window never rebases
    // backward), so capping the scan preserves global order.
    uint64_t index;
    if (in_buckets_ == 0) {
        // Ring empty: jump the window straight to the overflow
        // minimum, no scan.
        index = overflow_min;
        next_bucket_ = overflow_min;
    } else {
        index = next_bucket_;
        while (index < overflow_min &&
               buckets_[index & (kBucketCount - 1)] == nullptr)
            ++index;
    }
    if (index >= overflow_min)
        pullFromOverflow(index);
    Event *head = buckets_[index & (kBucketCount - 1)];
    buckets_[index & (kBucketCount - 1)] = nullptr;
    next_bucket_ = index + 1;
    // bottom_ is empty here, so one sort of the bucket's live events
    // replaces per-event heap maintenance; fireNext then pops from
    // the back for free. Keys are copied into the flat array once so
    // the sort never touches the events again. Cancelled events are
    // freed instead, unsorted.
    while (head != nullptr) {
        Event *next = head->next;
        --in_buckets_;
        if (head->control == kCancelled)
            drop(head);
        else
            bottom_.push_back(
                BottomItem{head->when, head->tie, head->seq, head});
        head = next;
    }
    if (bottom_.size() > 1)
        std::sort(bottom_.begin(), bottom_.end(), LaterItem{});
}

void
EventQueue::fireNext()
{
    Event *event;
    if (finalNext()) {
        event = final_head_;
        final_head_ = event->next;
        if (final_head_ == nullptr)
            final_tail_ = nullptr;
    } else {
        event = bottom_.back().event;
        bottom_.pop_back();
    }
    --pending_;
    now_ = event->when;
    if (event->when == last_fired_at_)
        ++same_tick_fired_;
    last_fired_at_ = event->when;
    if (event->control != kNoControl)
        releaseControl(event->control);
    ++fired_total_;
    // The event is already detached from every structure, so the
    // callback may freely schedule (and pool-allocate) more events;
    // its storage is recycled only after it returns.
    event->fn();
    releaseEvent(event);
}

size_t
EventQueue::run(size_t max_events)
{
    size_t fired = 0;
    while (fired < max_events) {
        if (!advance()) {
            // Drained: end where popping every cancelled event at its
            // tick would have, so cancelling never moves the clock.
            now_ = std::max(now_, dropped_until_);
            break;
        }
        fireNext();
        ++fired;
    }
    return fired;
}

size_t
EventQueue::runUntil(Tick until)
{
    size_t fired = 0;
    while (advance() && nextWhen() <= until) {
        fireNext();
        ++fired;
    }
    if (now_ < until)
        now_ = until;
    return fired;
}

} // namespace v3sim::sim
