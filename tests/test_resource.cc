/**
 * @file
 * Unit tests for ServerPool queueing and Semaphore fairness.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/resource.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::sim
{
namespace
{

TEST(ServerPool, SingleServerSerializesJobs)
{
    Simulation sim;
    ServerPool pool(sim.queue());
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i)
        pool.submit(usecs(10), [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(20));
    EXPECT_EQ(done_at[2], usecs(30));
}

TEST(ServerPool, SameTickSubmissionsStartByKey)
{
    // Same-tick submissions race (DESIGN.md §8.3), so the pool starts
    // them by (order_key, submission), never in arrival order: keys
    // 30, 10, 20, 10 run as 10 (first), 10 (second), 20, 30. A job
    // submitted one tick later queues behind all four, even with the
    // smallest key.
    Simulation sim;
    ServerPool pool(sim.queue());
    std::vector<int> order;
    std::vector<Tick> done_at;
    const auto job = [&](int id) {
        return [&, id] {
            order.push_back(id);
            done_at.push_back(sim.now());
        };
    };
    pool.submit(usecs(10), job(0), 30);
    pool.submit(usecs(10), job(1), 10);
    pool.submit(usecs(10), job(2), 20);
    pool.submit(usecs(10), job(3), 10);
    sim.queue().schedule(1, [&] { pool.submit(usecs(10), job(4), 0); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0, 4}));
    EXPECT_EQ(done_at, (std::vector<Tick>{usecs(10), usecs(20), usecs(30),
                                          usecs(40), usecs(50)}));
}

TEST(ServerPool, ZeroServiceJobsCompleteSameTick)
{
    Simulation sim;
    ServerPool pool(sim.queue());
    bool done = false;
    pool.submit(0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0);
}

TEST(Semaphore, AcquireBlocksUntilRelease)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 1);
    std::vector<int> order;
    auto worker = [](Simulation &s, Semaphore &sm,
                     std::vector<int> &out, int id) -> Task<> {
        co_await sm.acquire();
        out.push_back(id);
        co_await s.sleep(usecs(10));
        sm.release();
    };
    spawn(worker(sim, sem, order, 1));
    spawn(worker(sim, sem, order, 2));
    spawn(worker(sim, sem, order, 3));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, ReleaseManyWakesFifo)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        spawn([](Semaphore &sm, std::vector<int> &out, int id) -> Task<> {
            co_await sm.acquire();
            out.push_back(id);
        }(sem, order, i));
    }
    sim.run();
    EXPECT_EQ(sem.waiterCount(), 4u);
    sem.release(2);
    sim.run(); // grants land in the final band
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    sem.release(10);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sem.available(), 8);
}

// DESIGN.md §8.3: same-tick acquirers are granted in order_key
// order, not park (arrival) order — the tie-shuffle may permute
// arrival, so content keys must decide who gets a scarce count.
TEST(Semaphore, SameTickGrantsFollowOrderKey)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 2);
    std::vector<int> order;
    auto waiter = [](Semaphore &sm, std::vector<int> &out, int id,
                     uint64_t key, uint64_t tiebreak) -> Task<> {
        co_await sm.acquire(key, tiebreak);
        out.push_back(id);
    };
    // Park in descending-key order; grants must ascend by key. Ids 5
    // and 4 share key 4 and park in that order: equal keys grant by
    // tiebreak, not by park order.
    for (int i = 3; i >= 0; --i)
        spawn(waiter(sem, order, i, static_cast<uint64_t>(i), 0));
    spawn(waiter(sem, order, 5, 4, 1));
    spawn(waiter(sem, order, 4, 4, 0));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sem.waiterCount(), 4u);
    sem.release(4);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The key orders every parked waiter, not only same-tick ones: a
// waiter parked later with a smaller key is granted first.
TEST(Semaphore, ParkedWaitersAreGrantedByKeyAcrossTicks)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 0);
    std::vector<uint64_t> order;
    auto waiter = [](Simulation &s, Semaphore &sm,
                     std::vector<uint64_t> &out, Tick park_at,
                     uint64_t key) -> Task<> {
        co_await s.sleep(park_at);
        co_await sm.acquire(key);
        out.push_back(key);
    };
    spawn(waiter(sim, sem, order, usecs(10), 100));
    spawn(waiter(sim, sem, order, usecs(20), 5));
    sim.runUntil(usecs(30));
    EXPECT_EQ(sem.waiterCount(), 2u);
    sem.release(1);
    sim.run();
    EXPECT_EQ(order, (std::vector<uint64_t>{5}));
    sem.release(1);
    sim.run();
    EXPECT_EQ(order, (std::vector<uint64_t>{5, 100}));
}

} // namespace
} // namespace v3sim::sim
