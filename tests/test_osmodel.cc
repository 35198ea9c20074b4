/**
 * @file
 * Unit tests for interrupt delivery, the kernel I/O-manager path
 * and Node wiring.
 */

#include <gtest/gtest.h>

#include <vector>

#include "osmodel/node.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{
namespace
{

using sim::Task;
using sim::Tick;
using sim::usecs;

TEST(InterruptController, ChargesInterruptCostToKernel)
{
    sim::Simulation sim;
    Node node(sim, NodeConfig{.name = "host", .cpus = 2});
    bool handled = false;
    node.interrupts().raise([&](CpuLease lease) -> Task<> {
        co_await lease.run(usecs(1), CpuCat::Vi);
        handled = true;
    });
    sim.run();
    EXPECT_TRUE(handled);
    EXPECT_EQ(node.interrupts().interruptCount(), 1u);
    EXPECT_EQ(node.cpus().busyTime(CpuCat::Kernel),
              node.costs().interrupt);
    EXPECT_EQ(node.cpus().busyTime(CpuCat::Vi), usecs(1));
}

TEST(InterruptController, PreemptsQueuedNormalWork)
{
    sim::Simulation sim;
    Node node(sim, NodeConfig{.name = "host", .cpus = 1});
    std::vector<std::string> order;

    // Fill the only CPU with a worker, queue another, then raise an
    // interrupt: the interrupt must run before the queued worker.
    auto worker = [](Node &n, std::vector<std::string> &out,
                     std::string name) -> Task<> {
        CpuLease lease = co_await n.cpus().acquire();
        co_await lease.run(usecs(20), CpuCat::Sql);
        n.cpus().release();
        out.push_back(name);
    };
    sim::spawn(worker(node, order, "w1"));
    sim::spawn(worker(node, order, "w2"));
    sim.queue().schedule(usecs(1), [&] {
        node.interrupts().raise(
            [&order](CpuLease) -> Task<> {
                order.push_back("intr");
                co_return;
            });
    });
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"w1", "intr", "w2"}));
}

TEST(IoManager, IssueAndCompleteChargeKernelAndLock)
{
    sim::Simulation sim;
    Node node(sim, NodeConfig{.name = "host", .cpus = 4});
    sim::spawn([](Node &n) -> Task<> {
        CpuLease lease = co_await n.cpus().acquire();
        co_await n.ioManager().issueRequest(lease, 2);
        co_await n.ioManager().completeRequest(lease, 2);
        n.cpus().release();
    }(node));
    sim.run();

    const HostCosts &c = node.costs();
    const Tick kernel_expected =
        c.syscall + c.irp_issue + c.irp_complete +
        4 * c.probe_lock_page + // pin 2 + unpin 2
        4 * c.lock_hold +       // 4 sync pairs' critical sections
        c.context_switch;
    EXPECT_EQ(node.cpus().busyTime(CpuCat::Kernel), kernel_expected);
    EXPECT_EQ(node.cpus().busyTime(CpuCat::Lock),
              4 * (c.lock_acquire + c.lock_release));
    EXPECT_EQ(node.ioManager().requestCount(), 1u);
}

TEST(Node, PhantomMemoryConfig)
{
    sim::Simulation sim;
    Node node(sim,
              NodeConfig{.name = "big", .phantom_memory = true});
    EXPECT_TRUE(node.memory().phantom());
}

} // namespace
} // namespace v3sim::osmodel
