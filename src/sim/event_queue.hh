/**
 * @file
 * The discrete-event queue at the core of the simulator.
 *
 * Events are (time, callback) pairs ordered by time with FIFO
 * tie-breaking via a monotonically increasing sequence number, which
 * makes runs fully deterministic for a given seed. The total order
 * is (when, tie, seq) — identical to the original binary-heap
 * implementation — but the storage is a two-tier ladder queue tuned
 * for the simulator's near-future-heavy schedule mix:
 *
 *  - a small sorted "bottom" region of events below the drained-
 *    bucket horizon (the events that can still fire before the next
 *    bucket is touched); sorted once per bucket melt, popped from
 *    the back, with mid-drain arrivals placed by insertion from the
 *    back,
 *  - a ring of fixed-width buckets (unsorted intrusive lists)
 *    covering the near future; a bucket is sorted only when it
 *    becomes the next to fire, by melting it into the bottom heap,
 *  - an overflow min-heap for live events beyond the bucket window,
 *    pulled into buckets when the window rebases past them; each
 *    event knows its heap position, so a cancel removes it at once,
 *  - beside them, the final band: an intrusive FIFO of the current
 *    tick's scheduleFinal() events, each fired once no regular event
 *    is left at its tick.
 *
 * Every region orders (or defers ordering of) events by the same
 * (when, tie, seq) key and region boundaries are pure functions of
 * `when`, so the queue pops the exact sequence the single heap did —
 * see DESIGN.md §10 for the invariants. Events themselves are
 * pool-allocated and intrusive (the bucket link lives in the event),
 * and callbacks are built inside the pooled event via sim::EventFn,
 * so the `schedule()` fast path performs no allocation and no
 * callback relocation once the pool is warm. Cancellation handles
 * are opt-in (`scheduleCancelable`) and use generation-counted slots
 * instead of shared_ptr control blocks. A cancelled event is
 * forgotten rather than carried to its deadline: it leaves the
 * overflow heap at the cancel, and the ring when its bucket melts.
 *
 * Tie-shuffle debug mode (DESIGN.md §8): setTieShuffle(seed)
 * randomizes the ordering of *independently scheduled* events that
 * land on the same tick — the sim-domain analog of a data-race
 * detector. Any simulation state whose final value depends on the
 * unspecified same-timestamp tiebreak shows up as a metrics diff
 * between runs with different shuffle seeds (see abl_determinism).
 * Zero-delay events keep their documented ordering ("fires this
 * tick, after already-queued same-time events") so intra-operation
 * continuation chains stay causally sequenced; only events scheduled
 * for a then-future tick — true cross-source races — are permuted.
 */

#ifndef V3SIM_SIM_EVENT_QUEUE_HH
#define V3SIM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace v3sim::sim
{

/** Deterministic ladder queue of timed callbacks. */
class EventQueue
{
  public:
    /**
     * Cancellation handle for an event scheduled through one of the
     * *Cancelable entry points. Default-constructed handles are
     * inert; copies all refer to the same event. Cancelling an
     * already-fired event is a harmless no-op: the handle carries a
     * generation counter and goes stale the moment its event fires or
     * is cancelled (or its slot is reused), so no shared control
     * block exists.
     *
     * Lifetime rule: a Handle must not outlive its EventQueue (it
     * holds a plain pointer back to it). Every in-tree holder is a
     * component owned by the same Simulation, which satisfies this
     * by construction; see DESIGN.md §10.3.
     */
    class Handle
    {
      public:
        Handle() = default;

        /** Prevents the event from firing if it has not fired yet. */
        void
        cancel()
        {
            if (queue_ != nullptr)
                queue_->cancelSlot(slot_, gen_);
        }

        /** True if the event is still scheduled and not cancelled. */
        bool
        pending() const
        {
            return queue_ != nullptr &&
                   queue_->slotPending(slot_, gen_);
        }

      private:
        friend class EventQueue;

        Handle(EventQueue *queue, uint32_t slot, uint32_t gen)
            : queue_(queue), slot_(slot), gen_(gen)
        {}

        EventQueue *queue_ = nullptr;
        uint32_t slot_ = 0;
        uint32_t gen_ = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedules @p fn to run @p delay after now. Negative delays
     * clamp to zero (fires this tick, after already-queued same-time
     * events). Fire-and-forget: no cancellation handle, no control
     * slot, and no allocation.
     */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
    }

    /** Schedules @p fn at absolute time @p when (>= now, else
     *  clamped). Fire-and-forget, like schedule(). */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        Event *event = allocEvent();
        event->fn.emplace(std::forward<F>(fn));
        enqueue(event, when, kNoControl);
    }

    /**
     * Schedules @p fn in the current tick's *final band*: it fires
     * after every other event of this tick — already queued or yet to
     * be scheduled, zero-delay chains included — with FIFO order
     * among final events themselves. Zero-delay events spawned *by* a
     * final event still precede the remaining final events of the
     * tick, so an arbitration callback sees the effects of the chains
     * it races with.
     *
     * This is the hook for contention arbitration points (disk queue
     * pick, CPU admission): deciding in the final band makes
     * the decision a function of the *set* of same-tick contenders
     * rather than of their (unspecified, tie-shuffled) arrival order.
     * See DESIGN.md §8.3.
     */
    template <typename F>
    void
    scheduleFinal(F &&fn)
    {
        Event *event = allocEvent();
        event->fn.emplace(std::forward<F>(fn));
        enqueueFinal(event);
    }

    /**
     * Awaitable form of scheduleFinal(): resumes the coroutine in the
     * current tick's final band. Lets a level-sensitive check — "is
     * the receive queue really empty before I re-arm?" — defer its
     * decision until every same-tick event has run, so the answer is
     * a function of the tick's full event set rather than of the
     * shuffled order between the check and a same-tick arrival
     * (DESIGN.md §8.3).
     */
    auto
    finalBand()
    {
        struct Awaiter
        {
            EventQueue *queue;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                queue->scheduleFinal([h] { h.resume(); });
            }

            void await_resume() const {}
        };
        return Awaiter{this};
    }

    /** Like schedule(), but returns a cancellation Handle (this is
     *  the only path that touches a control slot). */
    template <typename F>
    Handle
    scheduleCancelable(Tick delay, F &&fn)
    {
        return scheduleAtCancelable(now_ + (delay < 0 ? 0 : delay),
                                    std::forward<F>(fn));
    }

    /** Like scheduleAt(), but returns a cancellation Handle. */
    template <typename F>
    Handle
    scheduleAtCancelable(Tick when, F &&fn)
    {
        Event *event = allocEvent();
        event->fn.emplace(std::forward<F>(fn));
        const uint32_t slot = allocControl();
        controls_[slot].event = event;
        enqueue(event, when, slot);
        return Handle(this, slot, controls_[slot].gen);
    }

    /** Number of events scheduled but not yet fired or cancelled: a
     *  cancelled event leaves the count at its cancel. */
    size_t pendingCount() const { return pending_; }

    /** True when no runnable events remain. */
    bool empty() const { return pending_ == 0; }

    /**
     * Runs events until the queue drains or @p max_events fire. A
     * run that drains the queue leaves now() at the latest tick any
     * event was scheduled for, cancelled ones included, as if each
     * cancelled event had been popped at its tick.
     * @return the number of events fired.
     */
    size_t run(size_t max_events = SIZE_MAX);

    /**
     * Runs all events with time <= @p until; afterwards now() == until
     * (unless the queue drained past it first, in which case now() is
     * still advanced to @p until).
     * @return the number of events fired.
     */
    size_t runUntil(Tick until);

    /** Total events fired over the queue's lifetime. */
    uint64_t firedCount() const { return fired_total_; }

    /** Fired events that shared their tick with the previously fired
     *  event — the same-tick ties whose order tie-shuffle permutes.
     *  A function of the multiset of fired events' ticks only, so
     *  invariant across shuffle seeds; abl_determinism reports it as
     *  evidence the shuffled runs had races to permute. */
    uint64_t sameTickFired() const { return same_tick_fired_; }

    /**
     * Enables tie-shuffle mode: events scheduled for a future tick
     * get a seed-derived pseudo-random same-tick rank instead of the
     * FIFO sequence rank. Deterministic for a given seed. Affects
     * events scheduled after the call; zero-delay events (when <=
     * now) always keep FIFO ordering after already-queued same-tick
     * events. Debug/CI feature — see DESIGN.md §8.
     */
    void setTieShuffle(uint64_t seed)
    {
        tie_shuffle_ = true;
        tie_seed_ = seed;
    }

    /** Returns to pure-FIFO tie-breaking for future events. */
    void clearTieShuffle() { tie_shuffle_ = false; }

    bool tieShuffleEnabled() const { return tie_shuffle_; }

    /** Control slots ever created — grows only on scheduleCancelable
     *  (slots are recycled), never on the fire-and-forget path. Test
     *  introspection backing the "schedule() allocates no control
     *  block" guarantee. */
    size_t controlSlotCount() const { return controls_.size(); }

    /** Events currently parked in the far-future overflow heap.
     *  Test introspection for ladder<->overflow migration. */
    size_t overflowCount() const { return overflow_.size(); }

    /** Event pool chunks ever allocated (kPoolChunk events each).
     *  Test introspection backing "a cancelled far timer frees its
     *  node at the cancel". */
    size_t poolChunkCount() const { return pool_.size(); }

  private:
    /** Pooled intrusive event: two cache lines including the inline
     *  callback buffer. Never relocated once allocated. */
    struct Event
    {
        Tick when;
        /** Same-tick rank: FIFO sequence number, or a seed-derived
         *  hash under tie-shuffle (always < 2^63 for hashed ranks,
         *  >= 2^63 for zero-delay events so they stay last). Unset
         *  (like seq) for final events: the final band orders them. */
        uint64_t tie;
        uint64_t seq;
        /** Bucket chain / final band / free-list link. */
        Event *next;
        /** Index into controls_, kNoControl (fast path), or
         *  kCancelled: cancelled in the ring or the sorted region,
         *  where it waits to be freed. */
        uint32_t control;
        /** Position in overflow_, or kNotInHeap. */
        uint32_t heap_index;
        EventFn fn;
    };
    static_assert(sizeof(Event) == 128);

    /** Generation-counted cancellation slot. The slot is freed, and
     *  its generation bumped, when its event fires or is cancelled,
     *  so outstanding handles with the old generation go inert. */
    struct ControlSlot
    {
        /** The slot's event while it is pending. */
        Event *event = nullptr;
        uint32_t gen = 0;
        uint32_t next_free = kNoControl;
    };

    static constexpr uint32_t kNoControl = UINT32_MAX;
    static constexpr uint32_t kCancelled = UINT32_MAX - 1;
    static constexpr uint32_t kNotInHeap = UINT32_MAX;

    /** Bucket geometry: 8192 buckets x 8.192us ≈ a 67ms window. Wide
     *  enough that service times, wire delays and poll intervals land
     *  directly in the ring. Timers longer than the window wait in the
     *  overflow heap: DSA's 500 ms retransmit timeout for every I/O,
     *  failure injections and end-of-run timers. Most are cancelled
     *  there (a retransmit timer when its reply lands) and leave the
     *  heap at the cancel, so it holds only the few that stay live.
     *  (The ring is 64KiB of pointers — still cache-friendly because
     *  the melt scan only touches the populated stretch.) */
    static constexpr int kBucketShift = 13;
    static constexpr Tick kBucketWidth = Tick(1) << kBucketShift;
    static constexpr size_t kBucketCount = size_t(1) << 13;

    /** Events per pool chunk. */
    static constexpr size_t kPoolChunk = 256;

    /** Tie rank of zero-delay events under tie-shuffle: above every
     *  hashed rank (see the tie-shuffle model above). */
    static constexpr uint64_t kSequencedBase = 1ULL << 63;

    /** Bottom/overflow element: the sort key copied out of the
     *  event, so melt sorts, sorted inserts and heap sifts compare
     *  locally instead of dereferencing scattered pool storage. */
    struct BottomItem
    {
        Tick when;
        uint64_t tie;
        uint64_t seq;
        Event *event;
    };

    /** Later-than on the inlined keys: the (when, tie, seq) total
     *  order, inverted so descending-sorted vectors (bottom_) keep
     *  the earliest event at the back and min-heaps (overflow_) at
     *  the front. seq is unique, so this is a strict total order and
     *  unstable sorts cannot reorder equals. */
    struct LaterItem
    {
        bool
        operator()(const BottomItem &a, const BottomItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.tie != b.tie)
                return a.tie > b.tie;
            return a.seq > b.seq;
        }
    };

    /** First absolute tick that is NOT in the bottom heap's region:
     *  everything below has either fired or sits sorted in bottom_. */
    Tick
    bottomLimit() const
    {
        return static_cast<Tick>(next_bucket_) << kBucketShift;
    }

    /** One-past-the-last absolute bucket index the window covers. */
    uint64_t
    windowEnd() const
    {
        return next_bucket_ + kBucketCount;
    }

    uint64_t tieRank(Tick when, uint64_t seq) const;

    /** Pops a pooled event; its callback is empty. */
    Event *
    allocEvent()
    {
        if (free_events_ == nullptr)
            growPool();
        Event *event = free_events_;
        free_events_ = event->next;
        return event;
    }

    void growPool();
    void releaseEvent(Event *event);
    uint32_t allocControl();
    /** Frees the slot and bumps its generation. */
    void releaseControl(uint32_t slot);

    /** Frees a cancelled event and records its tick for the end of
     *  a draining run(). */
    void drop(Event *event);

    /** Stamps @p event (callback already built) with its time, seq
     *  and tie rank, and places it. */
    void enqueue(Event *event, Tick when, uint32_t control);
    /** Appends @p event to the final band at now(). */
    void enqueueFinal(Event *event);
    /** Region dispatch: bottom heap / bucket ring / overflow. */
    void place(Event *event);
    /** Moves overflow events with bucket index <= @p limit into the
     *  ring. Called by advance() when the melt reaches the overflow
     *  minimum, so far-future events stay in the compact heap until
     *  they are actually due. */
    void pullFromOverflow(uint64_t limit);

    /** Overflow heap primitives. The heap is position-indexed: every
     *  store records the item's index in its event, which is what
     *  lets a cancel remove an event from the middle. */
    void
    heapSet(size_t index, const BottomItem &item)
    {
        overflow_[index] = item;
        item.event->heap_index = static_cast<uint32_t>(index);
    }
    void siftUp(size_t index);
    void siftDown(size_t index);
    /** Removes the item at @p index and returns its event. */
    Event *heapRemove(size_t index);
    /** Ensures the next event to fire is reachable: bottom_ holds the
     *  regular minimum, live, whenever a regular event could precede
     *  or share the final band's tick (melting buckets, pulling
     *  overflow and freeing cancelled events as needed).
     *  @return false iff no live events. */
    bool advance();
    /** Melts the next ring bucket (pulling overflow events due by
     *  then) into bottom_. Precondition: bottom_ is empty and the
     *  ring or the overflow heap is not. */
    void melt();

    /** True when the final band's head fires next: no regular event
     *  is left at its tick. Precondition: advance(). */
    bool
    finalNext() const
    {
        return final_head_ != nullptr &&
               (bottom_.empty() || bottom_.back().when > final_head_->when);
    }

    /** Tick of the next event to fire. Precondition: advance(). */
    Tick
    nextWhen() const
    {
        return finalNext() ? final_head_->when : bottom_.back().when;
    }

    /** Pops and fires the next event. Precondition: advance(). */
    void fireNext();

    bool
    slotPending(uint32_t slot, uint32_t gen) const
    {
        return slot < controls_.size() && controls_[slot].gen == gen;
    }

    void cancelSlot(uint32_t slot, uint32_t gen);

    /** Chunked arena owning every Event; chunks never move. */
    std::vector<std::unique_ptr<Event[]>> pool_;
    Event *free_events_ = nullptr;

    std::vector<ControlSlot> controls_;
    uint32_t free_control_ = kNoControl;

    /** Sorted region: events with when < bottomLimit(), descending
     *  (earliest at the back — fireNext pops from the back). */
    std::vector<BottomItem> bottom_;
    /** Near-future ring; slot = absolute bucket index mod size. */
    std::vector<Event *> buckets_ =
        std::vector<Event *>(kBucketCount, nullptr);
    size_t in_buckets_ = 0;
    /** Lowest absolute bucket index not yet melted into bottom_. */
    uint64_t next_bucket_ = 0;
    /** Far region: min-heap of live events at/after the window end.
     *  Keys are inlined (BottomItem) so heap sifts compare locally. */
    std::vector<BottomItem> overflow_;
    /** Final band: scheduleFinal() events in seq order, linked
     *  through Event::next. All share one tick (now() when they were
     *  scheduled): time cannot pass a pending final event. */
    Event *final_head_ = nullptr;
    Event *final_tail_ = nullptr;

    Tick now_ = 0;
    /** Latest tick of a cancelled event freed unfired: a draining
     *  run() ends there if no fired event ends it later. */
    Tick dropped_until_ = 0;
    uint64_t next_seq_ = 0;
    size_t pending_ = 0;
    uint64_t fired_total_ = 0;
    uint64_t same_tick_fired_ = 0;
    Tick last_fired_at_ = -1;
    bool tie_shuffle_ = false;
    uint64_t tie_seed_ = 0;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_EVENT_QUEUE_HH
