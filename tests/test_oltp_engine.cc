/**
 * @file
 * Unit tests for the OLTP engine over an in-memory fake device:
 * worker lifecycle, counters, CPU accounting, and the blocking vs
 * polling completion-overhead distinction.
 */

#include <gtest/gtest.h>

#include "db/oltp_engine.hh"
#include "sim/simulation.hh"

namespace v3sim::db
{
namespace
{

/** Fixed-latency device: no CPU cost, pure delay. */
class FakeDevice : public dsa::BlockDevice
{
  public:
    FakeDevice(sim::Simulation &sim, sim::Tick latency)
        : sim_(sim), latency_(latency)
    {}

    sim::Task<bool>
    read(uint64_t, uint64_t, sim::Addr) override
    {
        ++ios;
        co_await sim_.sleep(latency_);
        co_return true;
    }

    sim::Task<bool>
    write(uint64_t, uint64_t, sim::Addr) override
    {
        ++ios;
        co_await sim_.sleep(latency_);
        co_return true;
    }

    uint64_t capacity() const override { return 1ull << 40; }

    uint64_t ios = 0;

  private:
    sim::Simulation &sim_;
    sim::Tick latency_;
};

class OltpEngineTest : public ::testing::Test
{
  protected:
    OltpEngineTest()
        : node_(sim_, osmodel::NodeConfig{.name = "db", .cpus = 4}),
          device_(sim_, sim::usecs(200))
    {
        tpcc::TpccConfig workload_config;
        workload_config.warehouses = 4;
        workload_config.bytes_per_warehouse = 8 * util::kMiB;
        workload_config.ios_per_txn = 4;
        workload_config.cpu_per_txn = sim::usecs(100);
        workload_ = std::make_unique<tpcc::Workload>(
            workload_config, device_.capacity(), sim_.forkRng());
    }

    sim::Simulation sim_;
    osmodel::Node node_;
    FakeDevice device_;
    std::unique_ptr<tpcc::Workload> workload_;
};

TEST_F(OltpEngineTest, RunsAndCounts)
{
    OltpConfig config;
    config.workers = 8;
    OltpEngine engine(node_, device_, *workload_, config);
    const OltpResult result =
        engine.run(sim::msecs(10), sim::msecs(100));
    EXPECT_GT(result.total_tpm, 0);
    EXPECT_GT(result.tpmc, 0);
    EXPECT_LT(result.tpmc, result.total_tpm);
    // tpmC is the New-Order share, ~45% of all transactions.
    EXPECT_NEAR(result.tpmc / result.total_tpm, 0.45, 0.08);
    EXPECT_GT(result.io_per_second, 0);
    EXPECT_GT(engine.committedCount(), 0u);
    EXPECT_GT(device_.ios, 0u);
}

TEST_F(OltpEngineTest, CpuBreakdownTilesUtilization)
{
    OltpConfig config;
    config.workers = 16;
    OltpEngine engine(node_, device_, *workload_, config);
    const OltpResult result =
        engine.run(sim::msecs(10), sim::msecs(100));
    double sum = 0;
    for (const double share : result.cpu_breakdown)
        sum += share;
    EXPECT_NEAR(sum, result.cpu_utilization, 1e-6);
    // SQL work and induced overheads both show up.
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Sql)],
              0.0);
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Kernel)],
              0.0);
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Lock)],
              0.0);
}

TEST_F(OltpEngineTest, PollingCompletionShiftsKernelToOther)
{
    OltpConfig blocking;
    blocking.workers = 8;
    blocking.polling_completion = false;

    OltpConfig polling = blocking;
    polling.polling_completion = true;

    OltpEngine engine_blocking(node_, device_, *workload_, blocking);
    const OltpResult rb =
        engine_blocking.run(sim::msecs(10), sim::msecs(80));
    const double kernel_blocking =
        rb.cpu_breakdown[static_cast<size_t>(
            osmodel::CpuCat::Kernel)] /
        rb.cpu_utilization;

    sim::Simulation sim2;
    osmodel::Node node2(sim2, osmodel::NodeConfig{.name = "db2",
                                                  .cpus = 4});
    FakeDevice device2(sim2, sim::usecs(200));
    tpcc::TpccConfig wc;
    wc.warehouses = 4;
    wc.bytes_per_warehouse = 8 * util::kMiB;
    tpcc::Workload workload2(wc, device2.capacity(), sim2.forkRng());
    OltpEngine engine_polling(node2, device2, workload2, polling);
    const OltpResult rp =
        engine_polling.run(sim::msecs(10), sim::msecs(80));
    const double kernel_polling =
        rp.cpu_breakdown[static_cast<size_t>(
            osmodel::CpuCat::Kernel)] /
        rp.cpu_utilization;

    EXPECT_LT(kernel_polling, kernel_blocking);
}

TEST_F(OltpEngineTest, MoreWorkersMoreThroughputUntilSaturation)
{
    auto run_with = [&](int workers) {
        sim::Simulation s;
        osmodel::Node n(s, osmodel::NodeConfig{.name = "db",
                                               .cpus = 4});
        FakeDevice d(s, sim::usecs(200));
        tpcc::TpccConfig wc;
        wc.warehouses = 4;
        wc.bytes_per_warehouse = 8 * util::kMiB;
        tpcc::Workload w(wc, d.capacity(), s.forkRng());
        OltpConfig config;
        config.workers = workers;
        OltpEngine engine(n, d, w, config);
        return engine.run(sim::msecs(10), sim::msecs(80)).total_tpm;
    };
    const double one = run_with(1);
    const double eight = run_with(8);
    EXPECT_GT(eight, 3 * one);
}

TEST_F(OltpEngineTest, StopHaltsWorkers)
{
    OltpConfig config;
    config.workers = 4;
    OltpEngine engine(node_, device_, *workload_, config);
    engine.start();
    sim_.runUntil(sim::msecs(20));
    engine.stop();
    sim_.run(); // workers drain at their txn boundary
    const uint64_t committed = engine.committedCount();
    sim_.runUntil(sim_.now() + sim::msecs(20));
    EXPECT_EQ(engine.committedCount(), committed);
}

} // namespace
} // namespace v3sim::db
