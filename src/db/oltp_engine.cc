#include "oltp_engine.hh"

namespace v3sim::db
{

using osmodel::CpuCat;
using osmodel::CpuLease;

OltpEngine::OltpEngine(osmodel::Node &node, dsa::BlockDevice &device,
                       tpcc::Workload &workload, OltpConfig config)
    : node_(node),
      device_(device),
      workload_(workload),
      config_(config),
      metric_prefix_(node.sim().metrics().uniquePrefix("db.oltp")),
      committed_(
          node.sim().metrics().counter(metric_prefix_ + ".committed")),
      new_orders_(node.sim().metrics().counter(metric_prefix_ +
                                               ".new_orders")),
      ios_(node.sim().metrics().counter(metric_prefix_ + ".ios")),
      txn_latency_(node.sim().metrics().sampler(
          metric_prefix_ + ".txn_latency_ns"))
{
    // One page buffer per worker. The storage backends model the
    // buffers' pinning (AWE for cDSA, section 3.1) in their
    // registration caches.
    worker_buffers_.reserve(static_cast<size_t>(config_.workers));
    worker_workloads_.reserve(static_cast<size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i) {
        worker_buffers_.push_back(
            node_.memory().allocate(workload_.config().page_size));
        worker_workloads_.push_back(workload_.fork());
    }
    const char *latch_names[] = {"db.bufmgr", "db.lockmgr", "db.log",
                                 "db.sched"};
    for (const char *name : latch_names) {
        latches_.push_back(std::make_unique<osmodel::SimLock>(
            node_.sim(), node_.costs(), name));
    }
}

void
OltpEngine::start()
{
    running_ = true;
    for (int i = 0; i < config_.workers; ++i)
        sim::spawn(worker(i));
}

sim::Task<>
OltpEngine::worker(int id)
{
    ++active_workers_;
    const sim::Addr buffer =
        worker_buffers_[static_cast<size_t>(id)];
    tpcc::Workload &workload =
        worker_workloads_[static_cast<size_t>(id)];
    const uint64_t page = workload.config().page_size;
    // Per-worker latch rotation: a shared cursor would hand out
    // latches in same-tick resume order (a tie-shuffle race).
    size_t next_latch = static_cast<size_t>(id) % latches_.size();
    // CPU-pool arbitration key: same-tick contending workers are
    // admitted by id, not by resume order (DESIGN.md §8.3).
    const uint64_t wkey = static_cast<uint64_t>(id);

    while (running_) {
        const sim::Tick start = node_.sim().now();
        const tpcc::TxnType type = workload.sampleType();
        const uint32_t io_count = workload.sampleIoCount(type);
        const sim::Tick cpu_demand = workload.cpuDemand(type);
        // Database CPU work is spread across the I/O interleave.
        const sim::Tick slice =
            cpu_demand / static_cast<sim::Tick>(io_count + 1);

        for (uint32_t i = 0; i < io_count; ++i) {
            {
                CpuLease lease = co_await node_.cpus().acquire(
                    osmodel::CpuPool::kNormalPriority, wkey);
                co_await lease.run(slice, CpuCat::Sql);
                node_.cpus().release();
            }
            const uint64_t offset = workload.sampleOffset();
            if (workload.sampleIsRead())
                co_await device_.read(offset, page, buffer);
            else
                co_await device_.write(offset, page, buffer);
            ios_.increment();

            // SQL-Server-induced per-I/O work (see OltpConfig).
            {
                CpuLease lease = co_await node_.cpus().acquire(
                    osmodel::CpuPool::kNormalPriority, wkey);
                co_await lease.run(config_.io_kernel_overhead,
                                   CpuCat::Kernel);
                co_await lease.run(config_.io_other_overhead,
                                   CpuCat::Other);
                for (int p = 0; p < config_.io_latch_pairs; ++p) {
                    osmodel::SimLock &latch =
                        *latches_[next_latch];
                    next_latch =
                        (next_latch + 1) % latches_.size();
                    co_await latch.syncPair(lease, CpuCat::Lock,
                                            config_.latch_hold);
                }
                if (config_.polling_completion) {
                    co_await lease.run(config_.polling_overhead,
                                       CpuCat::Dsa);
                } else {
                    co_await lease.run(config_.blocking_overhead,
                                       CpuCat::Kernel);
                }
                node_.cpus().release();
            }
        }
        {
            CpuLease lease = co_await node_.cpus().acquire(
                osmodel::CpuPool::kNormalPriority, wkey);
            co_await lease.run(slice, CpuCat::Sql);
            node_.cpus().release();
        }

        committed_.increment();
        if (type == tpcc::TxnType::NewOrder)
            new_orders_.increment();
        txn_latency_.add(
            static_cast<double>(node_.sim().now() - start));
    }
    --active_workers_;
}

void
OltpEngine::resetStats()
{
    committed_.reset();
    new_orders_.reset();
    ios_.reset();
    txn_latency_.reset();
    node_.cpus().resetStats();
}

OltpResult
OltpEngine::run(sim::Tick warmup, sim::Tick window)
{
    sim::Simulation &sim = node_.sim();
    start();
    sim.runUntil(sim.now() + warmup);
    resetStats();
    const sim::Tick begin = sim.now();
    sim.runUntil(begin + window);
    const sim::Tick span = sim.now() - begin;

    OltpResult result;
    const double minutes = sim::toSecs(span) / 60.0;
    result.tpmc = static_cast<double>(newOrderCount()) / minutes;
    result.total_tpm =
        static_cast<double>(committedCount()) / minutes;
    result.io_per_second =
        static_cast<double>(ioCount()) / sim::toSecs(span);
    result.mean_txn_latency_us = txn_latency_.mean() / 1e3;
    result.cpu_utilization = node_.cpus().utilization();
    for (size_t c = 0; c < osmodel::kCpuCatCount; ++c) {
        result.cpu_breakdown[c] = node_.cpus().utilization(
            static_cast<CpuCat>(c));
    }

    stop();
    sim.run(); // let workers wind down
    return result;
}

} // namespace v3sim::db
