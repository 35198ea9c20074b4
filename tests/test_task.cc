/**
 * @file
 * Unit tests for the coroutine layer: Task chaining, spawn, delays,
 * Completion bridging, and CondEvent broadcast.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::sim
{
namespace
{

Task<int>
answer()
{
    co_return 42;
}

TEST(Task, ReturnsValue)
{
    Simulation sim;
    int result = 0;
    spawn([](int &out) -> Task<> {
        out = co_await answer();
    }(result));
    sim.run();
    EXPECT_EQ(result, 42);
}

Task<int>
addOne(Task<int> inner)
{
    const int v = co_await std::move(inner);
    co_return v + 1;
}

TEST(Task, ChainsThroughNestedAwaits)
{
    Simulation sim;
    int result = 0;
    spawn([](int &out) -> Task<> {
        out = co_await addOne(addOne(addOne(answer())));
    }(result));
    sim.run();
    EXPECT_EQ(result, 45);
}

TEST(Task, DelayAdvancesSimulatedTime)
{
    Simulation sim;
    Tick woke_at = -1;
    spawn([](Simulation &s, Tick &out) -> Task<> {
        co_await s.sleep(usecs(250));
        out = s.now();
    }(sim, woke_at));
    sim.run();
    EXPECT_EQ(woke_at, usecs(250));
}

TEST(Task, SequentialDelaysAccumulate)
{
    Simulation sim;
    std::vector<Tick> stamps;
    spawn([](Simulation &s, std::vector<Tick> &out) -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await s.sleep(usecs(10));
            out.push_back(s.now());
        }
    }(sim, stamps));
    sim.run();
    ASSERT_EQ(stamps.size(), 3u);
    EXPECT_EQ(stamps[0], usecs(10));
    EXPECT_EQ(stamps[1], usecs(20));
    EXPECT_EQ(stamps[2], usecs(30));
}

TEST(Task, SpawnedTasksInterleaveByTime)
{
    Simulation sim;
    std::vector<std::string> log;
    auto worker = [](Simulation &s, std::vector<std::string> &out,
                     std::string name, Tick step) -> Task<> {
        for (int i = 0; i < 2; ++i) {
            co_await s.sleep(step);
            out.push_back(name);
        }
    };
    spawn(worker(sim, log, "slow", usecs(30)));
    spawn(worker(sim, log, "fast", usecs(10)));
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{
                       "fast", "fast", "slow", "slow"}));
}

TEST(Task, CompletionBridgesCallbacks)
{
    Simulation sim;
    Completion<int> completion;
    int got = 0;
    spawn([](Completion<int> &c, int &out) -> Task<> {
        out = co_await c.wait();
    }(completion, got));
    sim.queue().schedule(usecs(100), [&] { completion.set(7); });
    sim.run();
    EXPECT_EQ(got, 7);
}

TEST(Task, CompletionAlreadySetCompletesImmediately)
{
    Simulation sim;
    Completion<int> completion;
    completion.set(9);
    int got = 0;
    spawn([](Completion<int> &c, int &out) -> Task<> {
        out = co_await c.wait();
    }(completion, got));
    sim.run();
    EXPECT_EQ(got, 9);
}

TEST(Task, VoidCompletion)
{
    Simulation sim;
    Completion<> completion;
    bool resumed = false;
    spawn([](Completion<> &c, bool &out) -> Task<> {
        co_await c.wait();
        out = true;
    }(completion, resumed));
    EXPECT_FALSE(resumed);
    sim.queue().schedule(usecs(5), [&] { completion.set(); });
    sim.run();
    EXPECT_TRUE(resumed);
}

TEST(Task, CondEventWakesAllWaiters)
{
    Simulation sim;
    CondEvent event;
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        spawn([](CondEvent &e, int &count) -> Task<> {
            co_await e.wait();
            ++count;
        }(event, woken));
    }
    sim.run();
    EXPECT_EQ(woken, 0);
    EXPECT_EQ(event.waiterCount(), 5u);
    event.notifyAll();
    sim.run();
    EXPECT_EQ(woken, 5);
    EXPECT_EQ(event.waiterCount(), 0u);
}

TEST(Task, CondEventReWaitNotWokenBySameRound)
{
    Simulation sim;
    CondEvent event;
    int wakes = 0;
    spawn([](CondEvent &e, int &count) -> Task<> {
        co_await e.wait();
        ++count;
        co_await e.wait(); // re-armed; needs a second notify
        ++count;
    }(event, wakes));
    sim.run();
    event.notifyAll();
    EXPECT_EQ(wakes, 1);
    event.notifyAll();
    EXPECT_EQ(wakes, 2);
}

Task<std::string>
describe(Simulation &sim, Tick d)
{
    co_await sim.sleep(d);
    co_return std::string("done@") + std::to_string(toUsecs(sim.now()));
}

TEST(Task, MoveOnlyResultsPropagate)
{
    Simulation sim;
    std::string result;
    spawn([](Simulation &s, std::string &out) -> Task<> {
        out = co_await describe(s, usecs(50));
    }(sim, result));
    sim.run();
    EXPECT_EQ(result, "done@50.000000");
}

Task<std::unique_ptr<int>>
boxed(Simulation &sim, int v)
{
    co_await sim.sleep(usecs(1));
    co_return std::make_unique<int>(v);
}

Task<std::unique_ptr<int>>
incremented(Task<std::unique_ptr<int>> inner)
{
    std::unique_ptr<int> p = co_await std::move(inner);
    ++*p;
    co_return p;
}

TEST(Task, NonCopyableResultReturnsThroughNestedAwaits)
{
    Simulation sim;
    std::unique_ptr<int> result;
    spawn([](Simulation &s, std::unique_ptr<int> &out) -> Task<> {
        out = co_await incremented(incremented(boxed(s, 40)));
    }(sim, result));
    sim.run();
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, 42);
}

TEST(Task, NonCopyableCompletionSetBeforeOrAfterWait)
{
    using Box = Completion<std::unique_ptr<int>>;
    auto waiter = [](Box &c, std::unique_ptr<int> &out) -> Task<> {
        out = co_await c.wait();
    };
    Simulation sim;
    Box early;
    Box late;
    early.set(std::make_unique<int>(1));
    std::unique_ptr<int> got_early;
    std::unique_ptr<int> got_late;
    spawn(waiter(early, got_early));
    spawn(waiter(late, got_late));
    ASSERT_NE(got_early, nullptr);
    EXPECT_EQ(*got_early, 1);
    EXPECT_EQ(got_late, nullptr);
    sim.queue().schedule(usecs(3),
                         [&] { late.set(std::make_unique<int>(2)); });
    sim.run();
    ASSERT_NE(got_late, nullptr);
    EXPECT_EQ(*got_late, 2);
}

TEST(Task, ManyConcurrentTasksComplete)
{
    Simulation sim;
    int done = 0;
    for (int i = 0; i < 1000; ++i) {
        spawn([](Simulation &s, int &count, Tick d) -> Task<> {
            co_await s.sleep(d);
            ++count;
        }(sim, done, usecs(i % 97)));
    }
    sim.run();
    EXPECT_EQ(done, 1000);
}

} // namespace
} // namespace v3sim::sim
