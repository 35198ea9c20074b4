/**
 * @file
 * Unit tests for the CPU pool: admission, priority, per-category
 * accounting, and utilization math.
 */

#include <gtest/gtest.h>

#include <vector>

#include "osmodel/cpu_pool.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{
namespace
{

using sim::Task;
using sim::Tick;
using sim::usecs;

TEST(CpuPool, RunChargesCategory)
{
    sim::Simulation sim;
    CpuPool pool(sim, 2, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        co_await lease.run(usecs(5), CpuCat::Dsa);
        p.release();
    }(pool));
    sim.run();
    EXPECT_EQ(pool.busyTime(CpuCat::Sql), usecs(10));
    EXPECT_EQ(pool.busyTime(CpuCat::Dsa), usecs(5));
    EXPECT_EQ(pool.totalBusyTime(), usecs(15));
}

TEST(CpuPool, AdmissionBoundedByCpuCount)
{
    sim::Simulation sim;
    CpuPool pool(sim, 2, "cpu");
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        sim::spawn([](CpuPool &p, sim::Simulation &s,
                      std::vector<Tick> &out) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await lease.run(usecs(10), CpuCat::Sql);
            p.release();
            out.push_back(s.now());
        }(pool, sim, done));
    }
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], usecs(10));
    EXPECT_EQ(done[1], usecs(10));
    EXPECT_EQ(done[2], usecs(20));
    EXPECT_EQ(done[3], usecs(20));
}

TEST(CpuPool, InterruptPriorityJumpsQueue)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    std::vector<std::string> order;

    auto normal = [](CpuPool &p, std::vector<std::string> &out,
                     std::string name) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        p.release();
        out.push_back(name);
    };
    auto intr = [](CpuPool &p, std::vector<std::string> &out) -> Task<> {
        CpuLease lease =
            co_await p.acquire(CpuPool::kInterruptPriority);
        co_await lease.run(usecs(1), CpuCat::Kernel);
        p.release();
        out.push_back("intr");
    };

    // All three contend on the same tick, so the final-band
    // arbitration sees the full set (DESIGN.md §8.3): the interrupt
    // outranks both normal acquirers and takes the CPU first; the
    // normal pair then run in arrival order (equal priority and key).
    sim::spawn(normal(pool, order, "a"));
    sim::spawn(normal(pool, order, "b"));
    sim::spawn(intr(pool, order));
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"intr", "a", "b"}));
}

TEST(CpuPool, EqualKeysBreakByTiebreakNotArrival)
{
    // Two clients serving one buffer (a mirror's legs) contend with
    // the same order key; the tiebreak, not the tie-shuffled arrival
    // order, decides who runs first.
    auto order = [](uint64_t tie_seed) {
        sim::Simulation sim;
        sim.queue().setTieShuffle(tie_seed);
        CpuPool pool(sim, 1, "cpu");
        std::vector<uint64_t> out;
        for (uint64_t leg : {7u, 3u}) {
            sim::spawn([](sim::Simulation &s, CpuPool &p,
                          std::vector<uint64_t> &ran,
                          uint64_t id) -> Task<> {
                co_await s.sleep(usecs(5));
                CpuLease lease = co_await p.acquire(
                    CpuPool::kNormalPriority, /*order_key=*/0x1000, id);
                ran.push_back(id);
                co_await lease.run(usecs(1), CpuCat::Dsa);
                p.release();
            }(sim, pool, out, leg));
        }
        sim.run();
        return out;
    };
    for (const uint64_t seed : {1u, 2u, 3u, 20020817u})
        EXPECT_EQ(order(seed), (std::vector<uint64_t>{3, 7})) << seed;
}

TEST(CpuPool, UtilizationPerCategory)
{
    sim::Simulation sim;
    CpuPool pool(sim, 4, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(40), CpuCat::Sql);
        p.release();
    }(pool));
    sim.run();
    sim.runUntil(usecs(100));
    // 40us of one CPU out of 4 CPUs x 100us window = 10%.
    EXPECT_NEAR(pool.utilization(), 0.10, 1e-9);
    EXPECT_NEAR(pool.utilization(CpuCat::Sql), 0.10, 1e-9);
    EXPECT_NEAR(pool.utilization(CpuCat::Kernel), 0.0, 1e-9);
}

TEST(CpuPool, ResetStatsStartsNewWindow)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        p.release();
    }(pool));
    sim.run();
    pool.resetStats();
    sim.runUntil(usecs(20));
    EXPECT_EQ(pool.totalBusyTime(), 0);
    EXPECT_NEAR(pool.utilization(), 0.0, 1e-9);
}

TEST(CpuPool, ZeroDurationRunIsFree)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    bool done = false;
    sim::spawn([](CpuPool &p, bool &flag) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(0, CpuCat::Sql);
        p.release();
        flag = true;
    }(pool, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0);
}

TEST(CpuPool, CategoryNames)
{
    EXPECT_STREQ(cpuCatName(CpuCat::Sql), "SQL");
    EXPECT_STREQ(cpuCatName(CpuCat::Kernel), "OS Kernel");
    EXPECT_STREQ(cpuCatName(CpuCat::Lock), "Lock");
    EXPECT_STREQ(cpuCatName(CpuCat::Dsa), "DSA");
    EXPECT_STREQ(cpuCatName(CpuCat::Vi), "VI");
    EXPECT_STREQ(cpuCatName(CpuCat::Other), "Other");
}

} // namespace
} // namespace v3sim::osmodel
