/**
 * @file
 * Unit tests for SimLock: sync-pair costs, batch handoff, spin-time
 * accounting, emergent contention, tie-shuffle invariance of the
 * same-tick batches (DESIGN.md §8.3), and the closed-form grant's
 * event budget and window clipping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "osmodel/sim_lock.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{
namespace
{

using sim::Task;
using sim::Tick;
using sim::usecs;

class SimLockTest : public ::testing::Test
{
  protected:
    SimLockTest()
        : costs_(HostCosts::midSize()),
          pool_(sim_, 8, "cpu"),
          lock_(sim_, costs_, "test")
    {}

    sim::Simulation sim_;
    HostCosts costs_;
    CpuPool pool_;
    SimLock lock_;
};

TEST_F(SimLockTest, UncontendedPairCostsOpsPlusHold)
{
    Tick finished = -1;
    sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                  Tick &out) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa);
        p.release();
        out = s.now();
    }(pool_, lock_, sim_, finished));
    sim_.run();
    EXPECT_EQ(finished, costs_.lock_acquire + costs_.lock_hold +
                            costs_.lock_release);
    EXPECT_EQ(lock_.acquisitionCount(), 1u);
    EXPECT_EQ(lock_.contendedCount(), 0u);
    // Ops charged to Lock, the critical section to the caller's
    // category.
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock),
              costs_.lock_acquire + costs_.lock_release);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), costs_.lock_hold);
}

TEST_F(SimLockTest, SameTickContendersShareOneBatch)
{
    // All three acquire ops land on the same tick: a race whose order
    // the determinism contract leaves unspecified. The lock serves
    // them as one batch — serialized inside (sum of holds + one
    // release each) but exiting together, so no observable depends on
    // which contender "came first".
    std::vector<int> order;
    std::vector<Tick> finished;
    for (int i = 0; i < 3; ++i) {
        sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                      std::vector<int> &out, std::vector<Tick> &when,
                      int id) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
            out.push_back(id);
            when.push_back(s.now());
            p.release();
        }(pool_, lock_, sim_, order, finished, i));
    }
    sim_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    ASSERT_EQ(finished.size(), 3u);
    const Tick batch_exit = costs_.lock_acquire + 3 * usecs(10) +
                            3 * costs_.lock_release;
    for (const Tick t : finished)
        EXPECT_EQ(t, batch_exit);
    // Every member of a multi-member batch spun.
    EXPECT_EQ(lock_.contendedCount(), 3u);
    EXPECT_GT(lock_.totalWait(), 0);
}

TEST_F(SimLockTest, DistinctTickWaitersServeFifoByArrival)
{
    // Contenders arriving on different ticks keep strict FIFO order:
    // the second arrives mid-hold of the first and exits exactly one
    // hold+release later.
    std::vector<Tick> finished;
    auto worker = [](CpuPool &p, SimLock &l, sim::Simulation &s,
                     std::vector<Tick> &when, Tick start) -> Task<> {
        co_await s.sleep(start);
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
        when.push_back(s.now());
        p.release();
    };
    sim::spawn(worker(pool_, lock_, sim_, finished, 0));
    sim::spawn(worker(pool_, lock_, sim_, finished, usecs(1)));
    sim_.run();
    ASSERT_EQ(finished.size(), 2u);
    const Tick first = costs_.lock_acquire + usecs(10) +
                       costs_.lock_release;
    EXPECT_EQ(finished[0], first);
    EXPECT_EQ(finished[1], first + usecs(10) + costs_.lock_release);
    EXPECT_EQ(lock_.contendedCount(), 1u);
}

TEST_F(SimLockTest, BatchExitIsInvariantUnderTieShuffle)
{
    // The arbitration contract, end to end: with tie-shuffle
    // permuting the order in which same-tick acquire ops fire, every
    // contender's exit time must come out the same for any seed.
    auto measure = [&](uint64_t tie_seed) {
        sim::Simulation s;
        s.queue().setTieShuffle(tie_seed);
        CpuPool pool(s, 8, "cpu");
        SimLock lock(s, costs_, "shuffled");
        std::vector<Tick> finished(4, -1);
        for (int i = 0; i < 4; ++i) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p, SimLock &l,
                          std::vector<Tick> &when, int id) -> Task<> {
                // Four independent sleeps converging on one tick:
                // each wake-up is its own future-tick (hashed,
                // shuffled) event.
                co_await ss.sleep(usecs(5));
                CpuLease lease = co_await p.acquire();
                co_await l.syncPair(lease, CpuCat::Dsa,
                                    usecs(1) * (id + 1));
                when[static_cast<size_t>(id)] = ss.now();
                p.release();
            }(s, pool, lock, finished, i));
        }
        s.run();
        return finished;
    };
    const auto a = measure(1);
    const auto b = measure(0xfeedface);
    EXPECT_EQ(a, b);
    for (const Tick t : a)
        EXPECT_GT(t, 0);
}

TEST_F(SimLockTest, SpinTimeChargedToLockCategory)
{
    for (int i = 0; i < 2; ++i) {
        sim::spawn([](CpuPool &p, SimLock &l) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
            p.release();
        }(pool_, lock_));
    }
    sim_.run();
    // Second worker spun while the first held the lock for ~10us
    // (plus release op). All spin time is Lock-category CPU.
    EXPECT_GE(pool_.busyTime(CpuCat::Lock),
              2 * (costs_.lock_acquire + costs_.lock_release) +
                  usecs(10));
    // Both critical sections charged to Dsa.
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(20));
}

TEST_F(SimLockTest, ContentionGrowsWithConcurrency)
{
    // Run the same per-worker workload at two concurrency levels and
    // observe superlinear total wait growth — the emergent mechanism
    // behind the paper's lock-synchronization findings.
    auto measure = [&](int workers) {
        sim::Simulation s;
        CpuPool pool(s, 32, "cpu");
        SimLock lock(s, costs_, "hot");
        for (int w = 0; w < workers; ++w) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p,
                          SimLock &l) -> Task<> {
                for (int i = 0; i < 50; ++i) {
                    CpuLease lease = co_await p.acquire();
                    co_await l.syncPair(lease, CpuCat::Dsa);
                    p.release();
                    co_await ss.sleep(usecs(5));
                }
            }(s, pool, lock));
        }
        s.run();
        return lock.totalWait();
    };
    const Tick wait_low = measure(2);
    const Tick wait_high = measure(16);
    EXPECT_GT(wait_high, 8 * std::max<Tick>(wait_low, 1));
}

TEST_F(SimLockTest, UncontendedPairFiresOneEvent)
{
    Tick finished = -1;
    uint64_t events = 0;
    sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                  Tick &out, uint64_t &fired) -> Task<> {
        CpuLease lease = co_await p.acquire();
        const uint64_t before = s.queue().firedCount();
        co_await l.syncPair(lease, CpuCat::Vi, usecs(2));
        fired = s.queue().firedCount() - before;
        p.release();
        out = s.now();
    }(pool_, lock_, sim_, finished, events));
    sim_.run();
    EXPECT_EQ(events, 1u);
    EXPECT_EQ(finished, costs_.lock_acquire + usecs(2) +
                            costs_.lock_release);
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock),
              costs_.lock_acquire + costs_.lock_release);
    EXPECT_EQ(pool_.busyTime(CpuCat::Vi), usecs(2));
}

TEST_F(SimLockTest, SameTickBatchOfThreeFiresAtMostTwoEvents)
{
    // All three are granted CPUs in one arbitration event and call
    // syncPair on that tick: one batch. Its exit event re-arms once
    // when the second member lengthens the batch, never per member.
    uint64_t first_call = 0;
    uint64_t last_exit = 0;
    std::vector<Tick> finished;
    for (int i = 0; i < 3; ++i) {
        sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                      uint64_t &first, uint64_t &last,
                      std::vector<Tick> &when) -> Task<> {
            CpuLease lease = co_await p.acquire();
            if (first == 0)
                first = s.queue().firedCount();
            co_await l.syncPair(lease, CpuCat::Dsa, usecs(3));
            last = s.queue().firedCount();
            when.push_back(s.now());
            p.release();
        }(pool_, lock_, sim_, first_call, last_exit, finished));
    }
    sim_.run();
    EXPECT_LE(last_exit - first_call, 2u);
    const Tick exit = costs_.lock_acquire +
                      3 * (usecs(3) + costs_.lock_release);
    EXPECT_EQ(finished, (std::vector<Tick>{exit, exit, exit}));
    EXPECT_EQ(lock_.contendedCount(), 3u);
}

TEST_F(SimLockTest, WindowResetInsideAcquireOpClipsIt)
{
    // Pair called at 0: acquire op [0, 200), hold [200, 1200),
    // release [1200, 1350) (mid-size: acquire 200 ns, release
    // 150 ns). The reset at 100 keeps 100 ns of the acquire op.
    sim_.queue().schedule(100, [this] { pool_.resetStats(); });
    sim::spawn([](CpuPool &p, SimLock &l) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa, 1000);
        p.release();
    }(pool_, lock_));
    sim_.run();
    ASSERT_EQ(costs_.lock_acquire, 200);
    ASSERT_EQ(costs_.lock_release, 150);
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock), 100 + 150);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), 1000);
}

TEST_F(SimLockTest, WindowResetInsideHoldClipsTheStay)
{
    // Same pair; the reset at 700 drops the acquire op and the first
    // 500 ns of the hold. The 650 ns left in the window are charged
    // to the hold category (at most `hold` of a stay is), as the
    // separate acquire-charge + stay accounting did.
    sim_.queue().schedule(700, [this] { pool_.resetStats(); });
    sim::spawn([](CpuPool &p, SimLock &l) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa, 1000);
        p.release();
    }(pool_, lock_));
    sim_.run();
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock), 0);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), 650);
}

class SimLockModelTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SimLockModelTest, MatchesIndependentBatchReference)
{
    // Random contenders: same-tick groups, distinct ticks, arrivals
    // behind a busy lock, random holds. Reference rule: group callers
    // by call tick; a group exits at
    //   max(call + acquire, previous exit) + sum(hold) + n * release.
    const HostCosts costs = HostCosts::large();
    sim::Rng rng(GetParam());
    struct Caller
    {
        Tick call;
        Tick hold;
    };
    std::vector<Caller> callers;
    Tick call = 0;
    for (int group = 0; group < 200; ++group) {
        // Bursts that queue behind a busy lock, then idle gaps that
        // let it drain.
        call += static_cast<Tick>(rng.bernoulli(0.3)
                                      ? rng.uniformInt(10000, 30000)
                                      : rng.uniformInt(1, 3000));
        const uint64_t members = rng.uniformInt(1, 4);
        for (uint64_t m = 0; m < members; ++m) {
            callers.push_back(Caller{
                call, static_cast<Tick>(rng.uniformInt(0, 2000))});
        }
    }

    std::vector<Tick> expected(callers.size());
    uint64_t expected_contended = 0;
    Tick expected_wait = 0;
    Tick prev_exit = 0;
    for (size_t first = 0; first < callers.size();) {
        size_t end = first;
        Tick turns = 0;
        while (end < callers.size() &&
               callers[end].call == callers[first].call) {
            turns += callers[end].hold + costs.lock_release;
            ++end;
        }
        const Tick arrive = callers[first].call + costs.lock_acquire;
        const Tick exit = std::max(arrive, prev_exit) + turns;
        for (size_t i = first; i < end; ++i) {
            expected[i] = exit;
            const Tick spin =
                exit - arrive - callers[i].hold - costs.lock_release;
            if (spin > 0) {
                ++expected_contended;
                expected_wait += spin;
            }
        }
        prev_exit = exit;
        first = end;
    }

    // The draw covers both regimes: free-lock pairs and queueing.
    ASSERT_GT(expected_contended, 0u);
    ASSERT_LT(expected_contended, callers.size());

    for (const uint64_t tie_seed : {uint64_t{0}, GetParam()}) {
        sim::Simulation s;
        if (tie_seed != 0)
            s.queue().setTieShuffle(tie_seed);
        // Enough CPUs that no caller waits for one: every call lands
        // on its scheduled tick.
        CpuPool pool(s, static_cast<int>(callers.size()), "cpu");
        SimLock lock(s, costs, "model");
        std::vector<Tick> exits(callers.size(), -1);
        for (size_t i = 0; i < callers.size(); ++i) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p, SimLock &l,
                          Caller c, Tick &out) -> Task<> {
                co_await ss.sleep(c.call);
                CpuLease lease = co_await p.acquire();
                co_await l.syncPair(lease, CpuCat::Dsa, c.hold);
                out = ss.now();
                p.release();
            }(s, pool, lock, callers[i], exits[i]));
        }
        s.run();
        EXPECT_EQ(exits, expected) << "tie seed " << tie_seed;
        EXPECT_EQ(lock.contendedCount(), expected_contended);
        EXPECT_EQ(lock.totalWait(), expected_wait);
        EXPECT_EQ(lock.acquisitionCount(), callers.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimLockModelTest,
                         ::testing::Values(1u, 7u, 4242u, 20020817u));

TEST_F(SimLockTest, LargePlatformPairsCostMore)
{
    const HostCosts mid = HostCosts::midSize();
    const HostCosts large = HostCosts::large();
    EXPECT_GT(large.lock_acquire, mid.lock_acquire);
    EXPECT_GT(large.lock_release, mid.lock_release);
    EXPECT_GT(large.probe_lock_page, mid.probe_lock_page);
}

} // namespace
} // namespace v3sim::osmodel
