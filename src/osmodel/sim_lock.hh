/**
 * @file
 * Spin-lock model with emergent contention.
 *
 * The paper counts I/O-path cost in "synchronization pairs" — one
 * lock/unlock around a short critical section (section 3.3: "a total
 * of about 8-10 synchronization pairs involved in the path of
 * processing a single I/O request"). A SimLock models one such lock.
 * syncPair() performs the full pair: the acquire atomic op, a spin
 * wait while the lock is held elsewhere, the critical section, and
 * the release op. Spin time burns the waiter's CPU and is charged to
 * the Lock accounting category, so lock contention *emerges* from
 * I/O rate and CPU count instead of being a dialed-in constant —
 * the mechanism behind Figures 9, 11, 12 and 14.
 *
 * Determinism (DESIGN.md §8.3): contenders whose acquire ops land on
 * the same tick are a *race* — their relative order is unspecified
 * and tie-shuffled. The lock therefore never arbitrates by arrival
 * order. Same-tick contenders form one *batch*; a batch occupies the
 * lock for the sum of its members' critical sections (plus one
 * release op each), and all members exit together when the batch
 * completes. Every observable — exit times, spin accounting,
 * contention counts — is a function of the batch *set*, so runs are
 * invariant under the tie-shuffle seed. Contenders arriving on
 * distinct ticks keep strict FIFO order, so the uncontended path
 * costs exactly acquire + hold + release.
 *
 * Closed-form grant: the acquire op costs the same on every call
 * (lock_acquire > 0), so the contenders whose ops land on tick A are
 * exactly the callers of tick A - lock_acquire. A batch's membership
 * is therefore complete when its calling tick ends, and every earlier
 * batch's exit is already fixed. syncPair() joins the batch at call
 * time and schedules the one exit event at
 *   max(A, previous batch's exit) + sum(hold) + n * release;
 * a same-tick joiner that lengthens the batch makes that event re-arm
 * once at the final exit. An uncontended pair fires one event.
 */

#ifndef V3SIM_OSMODEL_SIM_LOCK_HH
#define V3SIM_OSMODEL_SIM_LOCK_HH

#include <cassert>
#include <coroutine>
#include <string>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace v3sim::osmodel
{

/** One kernel/library lock; batch-fair, spin-wait semantics. */
class SimLock
{
  public:
    SimLock(sim::Simulation &sim, const HostCosts &costs,
            std::string name = "");

    SimLock(const SimLock &) = delete;
    SimLock &operator=(const SimLock &) = delete;

    const std::string &name() const { return name_; }

    /**
     * One suspended syncPair. The awaiter lives in the caller's
     * coroutine frame until its batch exits, so it doubles as the
     * batch member record: members are linked through it, and no
     * per-batch storage exists.
     */
    class Pair
    {
      public:
        bool await_ready() const { return false; }
        void await_suspend(std::coroutine_handle<> h);
        /** Closes the Lock interval and re-attributes the critical
         *  section to the caller's category. */
        void await_resume();

      private:
        friend class SimLock;

        Pair(SimLock *lock, CpuPool *pool, CpuCat hold_cat,
             sim::Tick hold)
            : lock_(lock), pool_(pool), hold_cat_(hold_cat), hold_(hold)
        {}

        SimLock *lock_;
        CpuPool *pool_;
        CpuCat hold_cat_;
        sim::Tick hold_;
        /** Open Lock interval: acquire op, spin, hold, release. */
        CpuPool::Run *run_ = nullptr;
        /** Exit time had the pair been uncontended. */
        sim::Tick solo_exit_ = 0;
        /** Batch exit; kept current on the batch's first member. */
        sim::Tick batch_exit_ = 0;
        std::coroutine_handle<> handle_;
        Pair *next_ = nullptr; ///< next member of the same batch
    };

    /**
     * Executes one synchronization pair on the caller's CPU:
     * acquire op + spin wait + critical section + release op.
     * The critical section is charged to @p hold_cat; lock ops and
     * spin time to CpuCat::Lock.
     *
     * @param hold critical-section length; negative means "use the
     *        platform default" (costs.lock_hold).
     */
    Pair
    syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold = -1)
    {
        assert(lease.valid());
        return Pair(this, lease.pool(), hold_cat,
                    hold < 0 ? costs_.lock_hold : hold);
    }

    uint64_t acquisitionCount() const { return acquisitions_.value(); }

    /** Acquisitions that spun (exited later than an uncontended pair
     *  would have). Every member of a multi-member batch spins. */
    uint64_t contendedCount() const { return contended_.value(); }

    /** Total spin time across all waiters (ns). */
    sim::Tick totalWait() const { return total_wait_; }

  private:
    /** Adds @p pair to its calling tick's batch. */
    void join(Pair &pair);
    /** Batch exit event: re-arms if the batch grew, else resumes
     *  every member in join order. */
    void exitBatch(Pair *first);

    sim::Simulation &sim_;
    const HostCosts &costs_;
    std::string name_;
    /** Calling tick of the newest batch; joins on that tick extend
     *  it (its first/last members are only touched then). */
    sim::Tick tail_called_ = -1;
    Pair *tail_first_ = nullptr;
    Pair *tail_last_ = nullptr;
    /** Exit of the newest batch: when the lock next falls free. */
    sim::Tick free_at_ = 0;
    sim::Counter acquisitions_;
    sim::Counter contended_;
    sim::Tick total_wait_ = 0;
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_SIM_LOCK_HH
