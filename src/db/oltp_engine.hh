/**
 * @file
 * The database-server model: a pool of transaction workers over an
 * async block device.
 *
 * Models what matters about SQL Server 2000 for the paper's
 * experiments: many concurrent transactions, each interleaving
 * database CPU work (charged to CpuCat::Sql) with random physical
 * block I/O through the storage stack under test. The storage
 * stack's own CPU costs land in the Kernel/Lock/DSA/VI categories,
 * so Figure 11/14-style utilization breakdowns and tpmC differences
 * fall out of the simulation rather than being assumed.
 *
 * Workers are closed-loop (a new transaction starts when the
 * previous one commits), the standard way TPC-C drives a server at
 * saturation.
 */

#ifndef V3SIM_DB_OLTP_ENGINE_HH
#define V3SIM_DB_OLTP_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsa/block_device.hh"
#include "osmodel/node.hh"
#include "osmodel/sim_lock.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "tpcc/workload.hh"

namespace v3sim::db
{

/** Engine configuration. */
struct OltpConfig
{
    /** Concurrent transaction workers (database worker threads). */
    int workers = 128;

    /** @name SQL-Server-induced per-I/O overheads.
     * Figure 11's discussion attributes much of the kernel and lock
     * time to "overheads introduced by SQL Server 2000, such as
     * context switching, that are not necessarily related to I/O
     * activity". These knobs model that induced work, identically
     * for every storage backend; only the completion style differs
     * (blocking thread wake vs. polled fiber switch — the mechanism
     * cDSA's API exists to exploit).
     * @{ */
    /** Kernel-category work per physical I/O (scheduler, paging,
     *  system services). */
    sim::Tick io_kernel_overhead = sim::usecs(45);
    /** Other-category work per physical I/O (runtime libraries,
     *  socket/utility code). */
    sim::Tick io_other_overhead = sim::usecs(35);
    /** Database latch (buffer manager / lock manager) sync pairs
     *  per physical I/O. */
    int io_latch_pairs = 6;
    /** Latch critical-section length. */
    static constexpr sim::Tick latch_hold = sim::usecs(1);
    /** Extra Kernel work per I/O when completion blocks the worker
     *  thread (kernel scheduler round trip; expensive on the 32-way
     *  NUMA platform — cross-node IPIs and run-queue coherence). */
    sim::Tick blocking_overhead = sim::usecs(55);
    /** Extra DSA-layer work per I/O when completion is polled: the
     *  user-mode scheduler's fiber switch plus the cDSA flag/request
     *  management woven into every scheduler pass. */
    static constexpr sim::Tick polling_overhead = sim::usecs(10);
    /** True when the backend completes by polling (cDSA). */
    bool polling_completion = false;
    /** @} */
};

/** Results for one measurement window. */
struct OltpResult
{
    /** New-Order transactions per minute (the TPC-C metric). */
    double tpmc = 0;
    /** All transactions per minute. */
    double total_tpm = 0;
    double io_per_second = 0;
    double mean_txn_latency_us = 0;
    double cpu_utilization = 0;
    /** Per-category CPU share of total capacity (Figure 11 bars). */
    std::array<double, osmodel::kCpuCatCount> cpu_breakdown{};
};

/** The database engine. */
class OltpEngine
{
  public:
    OltpEngine(osmodel::Node &node, dsa::BlockDevice &device,
               tpcc::Workload &workload, OltpConfig config = {});

    OltpEngine(const OltpEngine &) = delete;
    OltpEngine &operator=(const OltpEngine &) = delete;

    /** Spawns the worker pool. */
    void start();

    /** Workers stop at their next transaction boundary. */
    void stop() { running_ = false; }

    /** @name Counters since last reset @{ */
    uint64_t committedCount() const { return committed_.value(); }
    uint64_t newOrderCount() const { return new_orders_.value(); }
    uint64_t ioCount() const { return ios_.value(); }
    void resetStats();
    /** @} */

    /**
     * Convenience harness: runs @p warmup of simulated time, resets
     * statistics, runs @p window more, stops, and reports.
     */
    OltpResult run(sim::Tick warmup, sim::Tick window);

  private:
    sim::Task<> worker(int id);

    osmodel::Node &node_;
    dsa::BlockDevice &device_;
    tpcc::Workload &workload_;
    OltpConfig config_;

    bool running_ = false;
    int active_workers_ = 0;
    /** Database-internal latches (buffer manager, lock manager,
     *  log manager, scheduler). */
    std::vector<std::unique_ptr<osmodel::SimLock>> latches_;
    std::vector<sim::Addr> worker_buffers_;
    /** One forked sampler per worker: random-draw assignment must
     *  not depend on same-tick worker resume order (DESIGN.md §8). */
    std::vector<tpcc::Workload> worker_workloads_;

    /// Registry path prefix ("db.oltp", uniquified); must precede
    /// the metric references so it is initialised first.
    std::string metric_prefix_;

    sim::CounterHandle committed_;
    sim::CounterHandle new_orders_;
    sim::CounterHandle ios_;
    sim::SamplerHandle txn_latency_;
};

} // namespace v3sim::db

#endif // V3SIM_DB_OLTP_ENGINE_HH
