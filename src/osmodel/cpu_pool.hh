/**
 * @file
 * Host CPU pool with per-category time accounting.
 *
 * The pool is the source of the paper's CPU-utilization breakdowns
 * (Figures 11 and 14): every piece of simulated host work runs while
 * holding a CPU lease and charges its time to one of the categories
 * the paper reports — SQL Server, OS kernel, lock synchronization,
 * DSA, VI, other.
 *
 * Usage contract:
 *  - acquire a lease (`co_await pool.acquire()`), possibly at
 *    interrupt priority;
 *  - while holding it, only advance time through `lease.run(d, cat)`
 *    or SimLock operations (lock waits spin, so the CPU stays busy);
 *  - never hold a lease across an I/O or network wait — release and
 *    re-acquire instead (that is what a blocked thread does).
 *
 * Under this contract the per-category busy sums exactly tile the
 * CPU-time the pool hands out, so breakdowns always add up.
 */

#ifndef V3SIM_OSMODEL_CPU_POOL_HH
#define V3SIM_OSMODEL_CPU_POOL_HH

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/resource.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace v3sim::osmodel
{

/** CPU-time categories, matching the paper's Figure 11 breakdown. */
enum class CpuCat : uint8_t
{
    Sql,    ///< database transaction processing
    Kernel, ///< OS kernel (I/O manager, interrupts, scheduling)
    Lock,   ///< lock synchronization (waits + lock/unlock ops)
    Dsa,    ///< the DSA layer itself
    Vi,     ///< VI library/driver work (registration, doorbells)
    Other,  ///< everything else (sockets, misc libraries)
};

constexpr size_t kCpuCatCount = 6;

/** Printable category name. */
const char *cpuCatName(CpuCat cat);

class CpuPool;

/**
 * Possession of one CPU. Obtained from CpuPool::acquire(); must be
 * released exactly once via CpuPool::release().
 */
class CpuLease
{
  public:
    CpuLease() = default;

    bool valid() const { return pool_ != nullptr; }
    CpuPool *pool() const { return pool_; }

    /** Spends @p d of CPU time charged to @p cat. Awaitable. */
    auto run(sim::Tick d, CpuCat cat);

  private:
    friend class CpuPool;
    explicit CpuLease(CpuPool *pool) : pool_(pool) {}
    CpuPool *pool_ = nullptr;
};

/**
 * m CPUs with two-level priority admission (interrupts first).
 *
 * Admission is an arbitration point under the determinism contract
 * (DESIGN.md §8.3): when same-tick demand exceeds free CPUs, *which*
 * contender runs first must be a function of the contender set, not
 * of the (unspecified, tie-shuffled) order their acquire events
 * fired in. So admission is a sim::Semaphore with one count per CPU:
 * no acquire is granted inline, every waiter parks and a single
 * final-band pass per tick grants free CPUs in (priority, order_key,
 * tiebreak, arrival) order — same tick, zero simulated latency, but
 * a deterministic assignment. Callers whose acquires can collide on
 * one tick pass distinct `order_key`s (worker id, request tag); the
 * arrival-sequence tiebreak only decides between same-key contenders.
 */
class CpuPool
{
  public:
    static constexpr int kInterruptPriority = 0;
    static constexpr int kNormalPriority = 1;

    CpuPool(sim::Simulation &sim, int cpus, std::string name = "");

    /** Retires the pool's utilization gauges and epoch hook. */
    ~CpuPool() { sim_.metrics().retire(this); }

    CpuPool(const CpuPool &) = delete;
    CpuPool &operator=(const CpuPool &) = delete;

    int cpus() const { return cpus_; }
    const std::string &name() const { return name_; }

    /**
     * Awaitable: resumes holding a CPU, granted in this tick's final
     * band. Interrupt-priority waiters are admitted before normal
     * ones; ties broken by @p order_key, then @p tiebreak (for
     * callers whose keys can coincide, e.g. two clients serving one
     * buffer), then arrival.
     */
    auto
    acquire(int priority = kNormalPriority, uint64_t order_key = 0,
            uint64_t tiebreak = 0)
    {
        struct Awaiter : sim::Semaphore::Acquire
        {
            CpuPool *pool;

            CpuLease await_resume() const { return CpuLease(pool); }
        };
        return Awaiter{admission_.acquire(order_key, tiebreak, priority),
                       this};
    }

    /** Returns the CPU; freed capacity is re-granted in the final
     *  band against every parked waiter, never handed straight to
     *  the front one (that would serve same-tick contenders in
     *  arrival order). */
    void
    release()
    {
        assert(admission_.available() < cpus_);
        admission_.release();
    }

    /** An in-progress busy interval (one per running charge). The
     *  window accounting is exact: a run crossing a resetStats()
     *  boundary contributes to each window only the time that elapsed
     *  inside it, so utilization can never exceed 1 however the
     *  measurement window straddles running work. */
    struct Run
    {
        CpuCat cat = CpuCat::Other;
        sim::Tick start = 0;
        size_t idx = 0; ///< position in active_runs_ (swap-erase)
        Run *next_free = nullptr;
    };

    /** Opens a busy interval charged to @p cat starting now. */
    Run *beginRun(CpuCat cat);

    /** Closes @p run, charging the time elapsed since its (possibly
     *  reset-clamped) start; returns that charged amount. */
    sim::Tick endRun(Run *run);

    /** Adjusts a category's accumulated time directly (SimLock uses
     *  this to re-attribute a slice of a closed Lock run to the
     *  caller's hold category). */
    void
    addBusy(CpuCat cat, sim::Tick d)
    {
        busy_time_[static_cast<size_t>(cat)] += d;
    }

    /** Busy time for @p cat since the last reset, including the
     *  elapsed part of in-progress runs. */
    sim::Tick busyTime(CpuCat cat) const;

    /** Sum of all categories (in-progress runs included). */
    sim::Tick totalBusyTime() const;

    /** Busy fraction of the whole pool over [reset, now]. */
    double utilization() const;

    /** Fraction of pool capacity spent in @p cat over the window. */
    double utilization(CpuCat cat) const;

    /** Restarts the accounting window at the current time. */
    void resetStats();

  private:
    friend class CpuLease;

    sim::Simulation &sim_;
    int cpus_;
    std::string name_;
    /** One count per free CPU. */
    sim::Semaphore admission_;
    /** Completed-run time per category (excludes active runs). */
    std::array<sim::Tick, kCpuCatCount> busy_time_{};
    /** Open intervals; bounded by cpus_ (runs hold a lease). */
    std::vector<Run *> active_runs_;
    std::deque<Run> run_slab_; ///< stable addresses for Run nodes
    Run *free_runs_ = nullptr;
    sim::Tick window_start_ = 0;
};

inline auto
CpuLease::run(sim::Tick d, CpuCat cat)
{
    struct Awaiter
    {
        CpuLease *lease;
        sim::Tick d;
        CpuCat cat;

        bool await_ready() const { return d <= 0; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            CpuPool *pool = lease->pool_;
            CpuPool::Run *run = pool->beginRun(cat);
            pool->sim_.queue().schedule(d, [pool, run, h] {
                pool->endRun(run);
                h.resume();
            });
        }

        void await_resume() const {}
    };
    assert(valid());
    return Awaiter{this, d, cat};
}

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_CPU_POOL_HH
