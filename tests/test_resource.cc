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
    ServerPool pool(sim.queue(), 1);
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i)
        pool.submit(usecs(10), [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(20));
    EXPECT_EQ(done_at[2], usecs(30));
}

TEST(ServerPool, MultiServerRunsInParallel)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 2);
    std::vector<Tick> done_at;
    for (int i = 0; i < 4; ++i)
        pool.submit(usecs(10), [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 4u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(10));
    EXPECT_EQ(done_at[2], usecs(20));
    EXPECT_EQ(done_at[3], usecs(20));
}

TEST(ServerPool, AwaitableUse)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    Tick finished = -1;
    spawn([](Simulation &s, ServerPool &p, Tick &out) -> Task<> {
        co_await p.use(usecs(25));
        out = s.now();
    }(sim, pool, finished));
    sim.run();
    EXPECT_EQ(finished, usecs(25));
}

TEST(ServerPool, WaitStatsMeasureQueueing)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i)
        pool.submit(usecs(10), [&] { done.push_back(sim.now()); });
    sim.run();
    // One server, FIFO: the second and third jobs wait 10 and 20 us.
    EXPECT_EQ(done, (std::vector<Tick>{usecs(10), usecs(20), usecs(30)}));
}

TEST(ServerPool, ZeroServiceJobsCompleteSameTick)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
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
    // Park in descending-key order; grants must ascend by key.
    for (int i = 3; i >= 0; --i) {
        spawn([](Semaphore &sm, std::vector<int> &out, int id) -> Task<> {
            co_await sm.acquire(static_cast<uint64_t>(id));
            out.push_back(id);
        }(sem, order, i));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sem.waiterCount(), 2u);
    sem.release(2);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
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
