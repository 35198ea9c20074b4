/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, and time-bounded execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace v3sim::sim
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(usecs(30), [&] { order.push_back(3); });
    q.schedule(usecs(10), [&] { order.push_back(1); });
    q.schedule(usecs(20), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), usecs(30));
}

TEST(EventQueue, SameTimeEventsFireFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(usecs(5), [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NegativeDelayClampsToNow)
{
    EventQueue q;
    q.schedule(usecs(10), [] {});
    q.run();
    Tick fired_at = -1;
    q.schedule(-usecs(5), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, usecs(10));
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue q;
    Tick fired_at = -1;
    q.scheduleAt(msecs(2), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, msecs(2));
}

TEST(EventQueue, ScheduleAtPastClampsToNow)
{
    EventQueue q;
    q.schedule(usecs(100), [] {});
    q.run();
    Tick fired_at = -1;
    q.scheduleAt(usecs(50), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, usecs(100));
}

TEST(EventQueue, EventsScheduledDuringRunAreProcessed)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.schedule(usecs(1), chain);
    };
    q.schedule(usecs(1), chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), usecs(5));
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(usecs(10), [&] { ++fired; });
    q.schedule(usecs(20), [&] { ++fired; });
    q.schedule(usecs(21), [&] { ++fired; });
    q.runUntil(usecs(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), usecs(20));
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty)
{
    EventQueue q;
    q.runUntil(secs(1));
    EXPECT_EQ(q.now(), secs(1));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.scheduleCancelable(usecs(10), [&] { fired = true; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.scheduleCancelable(usecs(10), [&] { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_FALSE(handle.pending());
    handle.cancel(); // must not crash or alter anything
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventQueue::Handle handle;
    EXPECT_FALSE(handle.pending());
    handle.cancel();
}

TEST(EventQueue, RunWithMaxEventsStopsEarly)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(usecs(i), [&] { ++fired; });
    q.run(4);
    EXPECT_EQ(fired, 4);
    q.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, FiredCountSkipsCancelled)
{
    EventQueue q;
    auto h1 = q.scheduleCancelable(usecs(1), [] {});
    q.schedule(usecs(2), [] {});
    h1.cancel();
    q.run();
    EXPECT_EQ(q.firedCount(), 1u);
}

// --- Cancellation handles (generation-counted slots) -----------------

TEST(EventQueue, HandleDestructionDoesNotCancel)
{
    EventQueue q;
    bool fired = false;
    {
        auto h = q.scheduleCancelable(usecs(1), [&] { fired = true; });
        EXPECT_TRUE(h.pending());
    } // Handle destroyed: the event must stay scheduled.
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, HandleCopiesShareTheEvent)
{
    EventQueue q;
    bool fired = false;
    auto h = q.scheduleCancelable(usecs(1), [&] { fired = true; });
    auto copy = h;
    h.cancel();
    EXPECT_FALSE(copy.pending());
    q.run();
    EXPECT_FALSE(fired);
    copy.cancel(); // Stale after the pop: harmless no-op.
}

TEST(EventQueue, PendingTracksFireAndCancel)
{
    EventQueue q;
    auto fires = q.scheduleCancelable(usecs(1), [] {});
    auto cancelled = q.scheduleCancelable(usecs(2), [] {});
    EXPECT_TRUE(fires.pending());
    EXPECT_TRUE(cancelled.pending());
    cancelled.cancel();
    EXPECT_FALSE(cancelled.pending());
    q.run();
    EXPECT_FALSE(fires.pending());
    EXPECT_FALSE(cancelled.pending());
}

TEST(EventQueue, StaleHandleIsInertAfterSlotReuse)
{
    EventQueue q;
    auto h1 = q.scheduleCancelable(usecs(1), [] {});
    q.run(); // Frees the slot and bumps its generation.
    bool fired = false;
    auto h2 = q.scheduleCancelable(usecs(1), [&] { fired = true; });
    ASSERT_EQ(q.controlSlotCount(), 1u); // Same slot, new generation.
    EXPECT_FALSE(h1.pending());
    h1.cancel(); // Must not cancel the slot's new occupant.
    EXPECT_TRUE(h2.pending());
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, FastPathAllocatesNoControlSlots)
{
    EventQueue q;
    for (int i = 0; i < 1000; ++i)
        q.schedule(usecs(i), [] {});
    q.scheduleAt(msecs(2), [] {});
    q.scheduleFinal([] {});
    q.run();
    // The acceptance guarantee: fire-and-forget scheduling never
    // touches a control slot.
    EXPECT_EQ(q.controlSlotCount(), 0u);

    // Cancelable events recycle one slot rather than growing the pool.
    for (int i = 0; i < 100; ++i) {
        auto h = q.scheduleCancelable(usecs(1), [] {});
        EXPECT_TRUE(h.pending());
        q.run();
    }
    EXPECT_EQ(q.controlSlotCount(), 1u);
}

// --- Ladder regions: bucket window and overflow migration ------------

namespace
{

/** Absolute tick width of the bucket window from a fresh queue:
 *  8192 buckets x 8192 ns (see EventQueue's geometry constants). */
constexpr Tick kWindow = Tick(8192) * 8192;

} // namespace

TEST(EventQueue, OverflowStartsAtTheWindowBoundary)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.scheduleAt(kWindow - 1, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 0u); // Last in-window tick.
    q.scheduleAt(kWindow, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 1u); // First out-of-window tick.
    q.scheduleAt(kWindow + 1, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 2u);
    q.scheduleAt(1, [&] { fired.push_back(q.now()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1, kWindow - 1, kWindow,
                                        kWindow + 1}));
    EXPECT_EQ(q.overflowCount(), 0u);
}

TEST(EventQueue, OverflowIsNotOvertakenByTheAdvancingWindow)
{
    // Regression: an overflow event whose bucket the advancing window
    // catches up with must still fire before any later bucket event.
    EventQueue q;
    std::vector<Tick> fired;
    const Tick far = kWindow;           // Just past the initial window.
    const Tick later = kWindow + msecs(1); // In-window once it grows.
    q.scheduleAt(far, [&] { fired.push_back(q.now()); });
    ASSERT_EQ(q.overflowCount(), 1u);
    // Fire an event near the window's end so melting it slides the
    // window past `far` and `later`.
    q.scheduleAt(kWindow - 1, [&] { fired.push_back(q.now()); });
    q.runUntil(kWindow - 1);
    // runUntil's stop-check peeked at the next event, which already
    // migrated `far` out of the overflow heap (via the bucket ring)
    // into the sorted bottom region.
    EXPECT_EQ(q.overflowCount(), 0u);
    q.scheduleAt(later, [&] { fired.push_back(q.now()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{kWindow - 1, far, later}));
}

TEST(EventQueue, ManyWindowRebasesKeepGlobalOrder)
{
    // Pseudorandom times across ~10 windows force repeated
    // bucket-ring wraps, overflow migrations and rebases; the firing
    // sequence must still be (when, seq)-sorted.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    uint64_t x = 12345;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Tick when = static_cast<Tick>(x % (10 * kWindow));
        q.scheduleAt(when, [&fired, &q, i] {
            fired.emplace_back(q.now(), i);
        });
    }
    q.run();
    ASSERT_EQ(fired.size(), 2000u);
    for (size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first) {
            ASSERT_LT(fired[i - 1].second, fired[i].second);
        }
    }
}

// --- Cancellation frees the event ------------------------------------

TEST(EventQueue, CancelledFarTimersFreeTheirNodes)
{
    // A retransmit-style timer armed and cancelled long before its
    // deadline leaves the queue at the cancel: node, slot and heap
    // entry are reused, so memory does not grow with the deadline.
    EventQueue q;
    for (int i = 0; i < 200000; ++i) {
        auto h = q.scheduleCancelable(msecs(500), [] {});
        h.cancel();
    }
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.overflowCount(), 0u);
    EXPECT_EQ(q.poolChunkCount(), 1u);
    EXPECT_EQ(q.controlSlotCount(), 1u);
}

TEST(EventQueue, HeapRemovalKeepsOrder)
{
    // Cancels remove far timers from anywhere in the overflow heap;
    // the survivors must still fire in (when, seq) order.
    EventQueue q;
    constexpr size_t kTimers = 10000;
    std::vector<Tick> when(kTimers);
    std::vector<EventQueue::Handle> handles;
    std::vector<size_t> fired;
    Rng rng(2718);
    for (size_t i = 0; i < kTimers; ++i) {
        // Timer 0 is the earliest, so it sits at the root; the last
        // is the latest, so it stays in the last slot.
        if (i == 0)
            when[i] = kWindow;
        else if (i == kTimers - 1)
            when[i] = 3 * kWindow;
        else
            when[i] = kWindow + 1 +
                      static_cast<Tick>(rng.uniformInt(
                          0, static_cast<uint64_t>(kWindow)));
        handles.push_back(q.scheduleAtCancelable(
            when[i], [&fired, i] { fired.push_back(i); }));
    }
    ASSERT_EQ(q.overflowCount(), kTimers);

    std::vector<bool> cancelled(kTimers, false);
    auto cancel = [&](size_t i) {
        handles[i].cancel();
        cancelled[i] = true;
    };
    cancel(kTimers - 1); // the last slot
    cancel(0);           // the root
    // Then a seeded half of the rest, in random order.
    std::vector<size_t> order;
    for (size_t i = 1; i < kTimers - 1; ++i)
        order.push_back(i);
    for (size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(0, i)]);
    for (size_t i = 0; i < kTimers / 2 - 2; ++i)
        cancel(order[i]);
    EXPECT_EQ(q.overflowCount(), kTimers / 2);
    EXPECT_EQ(q.pendingCount(), kTimers / 2);

    std::vector<size_t> expect;
    for (size_t i = 0; i < kTimers; ++i) {
        EXPECT_EQ(handles[i].pending(), !cancelled[i]);
        if (!cancelled[i])
            expect.push_back(i);
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [&](size_t a, size_t b) { return when[a] < when[b]; });
    EXPECT_EQ(q.run(), expect.size());
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, DrainEndsAtLastCancelledTick)
{
    // Cancelling never moves the clock: a draining run() ends where
    // popping the cancelled events at their ticks would have, from
    // every region a cancelled event can be freed in.
    EventQueue q;
    q.schedule(msecs(1), [] {});
    auto ring = q.scheduleCancelable(msecs(30), [] {});
    EXPECT_EQ(q.overflowCount(), 0u); // both in the ring
    ring.cancel();
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.now(), msecs(30));

    q.schedule(msecs(1), [] {});
    auto far = q.scheduleCancelable(msecs(500), [] {});
    EXPECT_EQ(q.overflowCount(), 1u);
    far.cancel();
    EXPECT_EQ(q.overflowCount(), 0u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.now(), msecs(530));

    // Sorted region: one melt moves both events there; the first
    // fires and the second is cancelled where it waits.
    q.schedule(10, [] {});
    auto near = q.scheduleCancelable(20, [] {});
    EXPECT_EQ(q.run(1), 1u);
    near.cancel();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(q.now(), msecs(530) + 20);
    EXPECT_EQ(q.firedCount(), 3u);
}

// --- Tie-shuffle mode (DESIGN.md §8) ---------------------------------

namespace
{

/** Schedules @p n same-tick events from distinct sources and returns
 *  the order they fired in. */
std::vector<int>
shuffledOrder(uint64_t seed, int n)
{
    EventQueue q;
    q.setTieShuffle(seed);
    std::vector<int> order;
    for (int i = 0; i < n; ++i)
        q.schedule(usecs(5), [&order, i] { order.push_back(i); });
    q.run();
    return order;
}

} // namespace

TEST(EventQueueTieShuffle, SameSeedSameOrder)
{
    const auto a = shuffledOrder(42, 32);
    const auto b = shuffledOrder(42, 32);
    EXPECT_EQ(a, b);
}

TEST(EventQueueTieShuffle, RankIsIndependentOfStorageRegion)
{
    // The shuffled rank is a pure function of (seed, seq): events
    // that migrate through the overflow heap (far-future tick) must
    // fire in the same permutation as bucket-resident ones.
    auto orderAt = [](Tick when, uint64_t seed) {
        EventQueue q;
        q.setTieShuffle(seed);
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            q.scheduleAt(when, [&order, i] { order.push_back(i); });
        return (q.run(), order);
    };
    const auto near = orderAt(usecs(5), 99);     // Bucket region.
    const auto far = orderAt(msecs(500), 99);    // Overflow region.
    EXPECT_EQ(near, far);
    EXPECT_NE(near, orderAt(usecs(5), 100)); // ... and is a shuffle.
}

TEST(EventQueueTieShuffle, DifferentSeedsPermute)
{
    const auto a = shuffledOrder(1, 32);
    const auto b = shuffledOrder(2, 32);
    // Both are permutations of 0..31 ...
    auto sorted_a = a;
    auto sorted_b = b;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_b.begin(), sorted_b.end());
    std::vector<int> expect(32);
    for (int i = 0; i < 32; ++i)
        expect[static_cast<size_t>(i)] = i;
    EXPECT_EQ(sorted_a, expect);
    EXPECT_EQ(sorted_b, expect);
    // ... but different ones (32! orderings; a collision would mean
    // the seed is not reaching the rank hash).
    EXPECT_NE(a, b);
    // And neither is plain FIFO.
    EXPECT_NE(a, expect);
}

TEST(EventQueueTieShuffle, TimeOrderStillRespected)
{
    EventQueue q;
    q.setTieShuffle(7);
    Tick last = -1;
    bool monotone = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = usecs((i * 7919) % 50);
        q.scheduleAt(when, [&, when] {
            monotone = monotone && when >= last;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueueTieShuffle, ZeroDelayKeepsDocumentedOrdering)
{
    // The schedule(0) contract — "fires this tick, after
    // already-queued same-time events" — must hold under shuffle:
    // zero-delay events are continuations, not races.
    EventQueue q;
    q.setTieShuffle(99);
    std::vector<int> order;
    q.schedule(usecs(5), [&] {
        order.push_back(0);
        q.schedule(0, [&] { order.push_back(2); });
        q.schedule(0, [&] { order.push_back(3); });
    });
    q.schedule(usecs(5), [&] { order.push_back(1); });
    q.run();
    // The two top-level events may fire in either order, but both
    // precede the zero-delay continuations, which stay FIFO.
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 3);
    EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
                (order[0] == 1 && order[1] == 0));
}

TEST(EventQueueTieShuffle, FinalBandClosesOutTheTick)
{
    // scheduleFinal: fires after every other event of the tick —
    // shuffled future-tick arrivals AND their zero-delay continuation
    // chains — with FIFO order among final events themselves. This is
    // the arbitration hook (disk pick, lock grant): by the time a
    // final event runs, the full same-tick contender set is visible.
    EventQueue q;
    q.setTieShuffle(7);
    std::vector<int> order;
    q.schedule(usecs(5), [&] {
        order.push_back(0);
        q.scheduleFinal([&] { order.push_back(10); });
        q.schedule(0, [&] { order.push_back(2); });
    });
    q.schedule(usecs(5), [&] {
        order.push_back(1);
        q.schedule(0, [&] { order.push_back(3); });
        q.scheduleFinal([&] { order.push_back(11); });
    });
    q.run();
    ASSERT_EQ(order.size(), 6u);
    // Final events last, FIFO among themselves by creation order.
    EXPECT_TRUE((order[4] == 10 && order[5] == 11) ||
                (order[4] == 11 && order[5] == 10));
    // Zero-delay continuations still precede the final band.
    EXPECT_TRUE(order[2] == 2 || order[2] == 3);
    EXPECT_TRUE(order[3] == 2 || order[3] == 3);
}

TEST(EventQueueTieShuffle, ZeroDelaySpawnedByFinalPrecedesNextFinal)
{
    // A final event's own zero-delay chains complete before the next
    // final event of the tick: one arbitration point sees the effects
    // of chains another arbitration kicked off.
    EventQueue q;
    q.setTieShuffle(5);
    std::vector<int> order;
    q.schedule(usecs(1), [&] {
        q.scheduleFinal([&] {
            order.push_back(0);
            q.schedule(0, [&] { order.push_back(1); });
        });
        q.scheduleFinal([&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, FinalBandWorksWithoutShuffle)
{
    // Same semantics in plain FIFO mode: the band, not the shuffle,
    // defines "end of tick".
    EventQueue q;
    std::vector<int> order;
    q.schedule(usecs(1), [&] {
        q.scheduleFinal([&] { order.push_back(2); });
        q.schedule(0, [&] { order.push_back(1); });
        order.push_back(0);
    });
    q.schedule(usecs(2), [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTieShuffle, ClearRestoresFifo)
{
    EventQueue q;
    q.setTieShuffle(13);
    EXPECT_TRUE(q.tieShuffleEnabled());
    q.clearTieShuffle();
    EXPECT_FALSE(q.tieShuffleEnabled());
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(usecs(5), [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = -1;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = usecs((i * 7919) % 1000);
        q.scheduleAt(when, [&, when] {
            if (when < last)
                monotone = false;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
}

// --- Differential test against a naive reference ---------------------

namespace
{

/**
 * The firing-order contract in its plainest form: pending events in
 * one array, the next one found by a linear scan for the least
 * (when, final band, tie rank, seq). A final event is scheduled at
 * now(). The tie rank is seq, or under tie-shuffle the model of
 * DESIGN.md §8: a SplitMix64 hash of (seed ^ seq) below 2^63 for a
 * future tick, 2^63 | seq for a zero-delay event. A cancelled event
 * stays in the array and pops at its tick, moving now(), but it
 * leaves pendingCount() at the cancel and counts as neither fired
 * nor popped.
 */
class RefQueue
{
  public:
    class Handle
    {
      public:
        void
        cancel()
        {
            if (cancelled_)
                *cancelled_ = true;
        }

      private:
        friend class RefQueue;
        std::shared_ptr<bool> cancelled_;
    };

    void
    setTieShuffle(uint64_t seed)
    {
        shuffle_ = true;
        seed_ = seed;
    }

    Tick now() const { return now_; }
    uint64_t firedCount() const { return fired_; }
    uint64_t sameTickFired() const { return same_tick_; }

    size_t
    pendingCount() const
    {
        return static_cast<size_t>(
            std::count_if(items_.begin(), items_.end(),
                          [](const Item &item) { return !item.isCancelled(); }));
    }

    void
    schedule(Tick delay, std::function<void()> fn)
    {
        scheduleAt(now_ + std::max<Tick>(delay, 0), std::move(fn));
    }

    void
    scheduleAt(Tick when, std::function<void()> fn)
    {
        add(std::max(when, now_), false, std::move(fn), nullptr);
    }

    void
    scheduleFinal(std::function<void()> fn)
    {
        add(now_, true, std::move(fn), nullptr);
    }

    Handle
    scheduleCancelable(Tick delay, std::function<void()> fn)
    {
        Handle handle;
        handle.cancelled_ = std::make_shared<bool>(false);
        add(now_ + std::max<Tick>(delay, 0), false, std::move(fn),
            handle.cancelled_);
        return handle;
    }

    size_t
    run(size_t max_events)
    {
        size_t fired = 0;
        while (fired < max_events && !items_.empty())
            fired += popNext();
        return fired;
    }

    size_t
    runUntil(Tick until)
    {
        size_t fired = 0;
        while (!items_.empty() && items_[nextIndex()].when <= until)
            fired += popNext();
        now_ = std::max(now_, until);
        return fired;
    }

  private:
    struct Item
    {
        Tick when;
        bool final;
        uint64_t tie;
        uint64_t seq;
        std::function<void()> fn;
        std::shared_ptr<bool> cancelled;

        bool isCancelled() const { return cancelled && *cancelled; }
    };

    uint64_t
    tieRank(Tick when, uint64_t seq) const
    {
        if (!shuffle_)
            return seq;
        if (when <= now_)
            return (1ULL << 63) | seq;
        uint64_t x = seed_ ^ seq;
        x += 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return (x ^ (x >> 31)) >> 1;
    }

    void
    add(Tick when, bool final, std::function<void()> fn,
        std::shared_ptr<bool> cancelled)
    {
        const uint64_t seq = seq_++;
        items_.push_back(Item{when, final, tieRank(when, seq), seq,
                              std::move(fn), std::move(cancelled)});
    }

    size_t
    nextIndex() const
    {
        size_t best = 0;
        for (size_t i = 1; i < items_.size(); ++i) {
            const Item &a = items_[i];
            const Item &b = items_[best];
            if (std::tie(a.when, a.final, a.tie, a.seq) <
                std::tie(b.when, b.final, b.tie, b.seq))
                best = i;
        }
        return best;
    }

    /** Pops the next item; returns 1 if it fired, 0 if cancelled. */
    size_t
    popNext()
    {
        const size_t i = nextIndex();
        Item item = std::move(items_[i]);
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
        now_ = item.when;
        if (item.isCancelled())
            return 0;
        if (item.when == last_fired_at_)
            ++same_tick_;
        last_fired_at_ = item.when;
        ++fired_;
        item.fn();
        return 1;
    }

    std::vector<Item> items_;
    Tick now_ = 0;
    Tick last_fired_at_ = -1;
    uint64_t seq_ = 0;
    uint64_t fired_ = 0;
    uint64_t same_tick_ = 0;
    bool shuffle_ = false;
    uint64_t seed_ = 0;
};

/** One firing: the event's id (its scheduling order), the tick, its
 *  band, and how many firings preceded its scheduling. */
struct Firing
{
    uint64_t id;
    Tick at;
    bool final;
    size_t scheduled_after;

    bool operator==(const Firing &) const = default;
};

/** The queue's observable state after one top-level call. */
struct Observed
{
    size_t returned;
    Tick now;
    uint64_t fired;
    uint64_t same_tick;
    size_t pending;

    bool operator==(const Observed &) const = default;
};

/**
 * A seeded random program over queue @p Q: top-level schedule,
 * runUntil and run(max) calls, and callbacks that schedule more —
 * zero-delay (often from a final pass), near-future inside the
 * current 8 us bucket, clamped past times, in the ring, beyond the
 * 67 ms ring, final events, and cancelable timers, some cancelled.
 * Delays sit on a coarse grid so independent events share ticks.
 * Every random draw happens in firing order, so two queues that
 * fire alike run the same program.
 */
template <typename Q>
class Program
{
  public:
    Program(Q &queue, uint64_t seed) : q_(queue), rng_(seed) {}

    void
    execute()
    {
        // Events scheduled at time 0, finals included, before any run.
        for (int i = 0; i < 6; ++i)
            spawn(false);
        for (int step = 0; step < 80; ++step) {
            switch (rng_.uniformInt(0, 5)) {
            case 0:
                observe(q_.runUntil(
                    q_.now() +
                    static_cast<Tick>(rng_.uniformInt(0, 40)) * 1000));
                break;
            case 1:
                observe(q_.runUntil(
                    q_.now() + msecs(static_cast<Tick>(
                                   rng_.uniformInt(1, 150)))));
                break;
            case 2:
                observe(q_.run(rng_.uniformInt(1, 30)));
                break;
            case 3:
                for (uint64_t i = rng_.uniformInt(1, 4); i > 0; --i)
                    spawn(false);
                break;
            case 4:
                cancelOne();
                break;
            default:
                // Drain, jump past an empty stretch, start again.
                observe(q_.run(SIZE_MAX));
                observe(q_.runUntil(
                    q_.now() +
                    secs(static_cast<Tick>(rng_.uniformInt(1, 3))) +
                    static_cast<Tick>(rng_.uniformInt(0, 9999))));
                for (int i = 0; i < 4; ++i)
                    spawn(false);
                break;
            }
        }
        observe(q_.run(SIZE_MAX));
    }

    std::vector<Firing> firings;
    std::vector<Observed> observed;
    /** Cancels that removed a far timer from the overflow heap. */
    size_t heap_cancels = 0;

  private:
    static constexpr uint64_t kBudget = 6000;

    void
    observe(size_t returned)
    {
        observed.push_back(Observed{returned, q_.now(), q_.firedCount(),
                                    q_.sameTickFired(),
                                    q_.pendingCount()});
    }

    auto
    callback(uint64_t id, bool final)
    {
        const size_t after = firings.size();
        return [this, id, final, after] { fire(id, final, after); };
    }

    void
    fire(uint64_t id, bool final, size_t after)
    {
        firings.push_back(Firing{id, q_.now(), final, after});
        // Critical branching while few events are pending, dying out
        // above that, so programs stay busy without growing.
        const uint64_t children =
            rng_.uniformInt(0, q_.pendingCount() < 100 ? 2 : 1);
        for (uint64_t i = 0; i < children; ++i)
            spawn(final);
    }

    void
    cancelOne()
    {
        if (handles_.empty())
            return;
        auto &handle = handles_[rng_.uniformInt(0, handles_.size() - 1)];
        if constexpr (std::is_same_v<Q, EventQueue>) {
            const size_t before = q_.overflowCount();
            handle.cancel();
            heap_cancels += q_.overflowCount() < before ? 1 : 0;
        } else {
            handle.cancel();
        }
    }

    void
    spawn(bool from_final)
    {
        if (next_id_ >= kBudget)
            return;
        const uint64_t id = next_id_++;
        const Tick now = q_.now();
        // A final pass mostly spawns zero-delay chains and more finals.
        const uint64_t kind =
            from_final && rng_.bernoulli(0.5) ? rng_.uniformInt(0, 1)
                                              : rng_.uniformInt(0, 9);
        switch (kind) {
        case 0:
            q_.schedule(0, callback(id, false));
            break;
        case 1:
            q_.scheduleFinal(callback(id, true));
            break;
        case 2: // near future, inside the current bucket
            q_.schedule(static_cast<Tick>(rng_.uniformInt(0, 4)) * 1000,
                        callback(id, false));
            break;
        case 3: // in the past: clamps to now
            q_.scheduleAt(now - static_cast<Tick>(
                                    rng_.uniformInt(0, 3)) * 1000,
                          callback(id, false));
            break;
        case 4: // negative delay: clamps to now
            q_.schedule(-static_cast<Tick>(rng_.uniformInt(1, 5)),
                        callback(id, false));
            break;
        case 5: // a shared absolute tick on a 50 us grid, in the ring
            q_.scheduleAt(
                (now / usecs(50) +
                 static_cast<Tick>(rng_.uniformInt(1, 400))) * usecs(50),
                callback(id, false));
            break;
        case 6: // beyond the 67 ms ring
            q_.schedule(msecs(70) + static_cast<Tick>(
                                        rng_.uniformInt(0, 40)) * msecs(5),
                        callback(id, false));
            break;
        case 7:
            q_.schedule(usecs(static_cast<Tick>(rng_.uniformInt(1, 60)) *
                              100),
                        callback(id, false));
            break;
        case 8:
            cancelOne();
            [[fallthrough]];
        default: // cancelable, in the ring or beyond it
            handles_.push_back(q_.scheduleCancelable(
                rng_.bernoulli(0.7)
                    ? static_cast<Tick>(rng_.uniformInt(0, 20)) * 1000
                    : msecs(static_cast<Tick>(rng_.uniformInt(60, 400))),
                callback(id, false)));
            break;
        }
    }

    Q &q_;
    Rng rng_;
    uint64_t next_id_ = 0;
    std::vector<typename Q::Handle> handles_;
};

} // namespace

TEST(EventQueueDifferential, FifoMatchesNaiveReference)
{
    size_t heap_cancels = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        EventQueue real;
        RefQueue ref;
        Program<EventQueue> a(real, seed);
        Program<RefQueue> b(ref, seed);
        a.execute();
        b.execute();
        ASSERT_GT(a.firings.size(), 200u) << "seed " << seed;
        ASSERT_EQ(a.firings.size(), b.firings.size()) << "seed " << seed;
        for (size_t i = 0; i < a.firings.size(); ++i)
            ASSERT_EQ(a.firings[i], b.firings[i])
                << "seed " << seed << ", firing " << i;
        ASSERT_EQ(a.observed, b.observed) << "seed " << seed;
        EXPECT_TRUE(real.empty());
        heap_cancels += a.heap_cancels;
    }
    // The programs do cancel far timers where they sit in the heap.
    EXPECT_GT(heap_cancels, 100u);
}

TEST(EventQueueDifferential, TieShuffleRepeatsAndFinalsCloseTheTick)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue q1;
        EventQueue q2;
        RefQueue ref;
        q1.setTieShuffle(seed * 7919);
        q2.setTieShuffle(seed * 7919);
        ref.setTieShuffle(seed * 7919);
        Program<EventQueue> a(q1, seed);
        Program<EventQueue> b(q2, seed);
        Program<RefQueue> c(ref, seed);
        a.execute();
        b.execute();
        c.execute();
        ASSERT_EQ(a.firings, b.firings) << "seed " << seed;
        ASSERT_EQ(a.observed, b.observed) << "seed " << seed;
        // The shuffled order is the documented rank model, not just
        // some repeatable order: seq numbering and hashes included.
        ASSERT_EQ(a.firings, c.firings) << "seed " << seed;
        ASSERT_EQ(a.observed, c.observed) << "seed " << seed;

        // Within a tick, finals fire in scheduling order, and after a
        // final fires, only events scheduled since then (zero-delay
        // chains of the final pass) may still fire at that tick.
        const auto &f = a.firings;
        for (size_t i = 0; i < f.size(); ++i) {
            if (!f[i].final)
                continue;
            for (size_t j = i + 1; j < f.size() && f[j].at == f[i].at;
                 ++j) {
                if (f[j].final)
                    ASSERT_GT(f[j].id, f[i].id) << "seed " << seed;
                else
                    ASSERT_GT(f[j].scheduled_after, i) << "seed " << seed;
            }
        }
    }
}

} // namespace
} // namespace v3sim::sim
