#include "sim_lock.hh"

#include <algorithm>
#include <cassert>

namespace v3sim::osmodel
{

SimLock::SimLock(sim::Simulation &sim, const HostCosts &costs,
                 std::string name)
    : sim_(sim), costs_(costs), name_(std::move(name))
{
    // The closed-form grant needs every same-batch caller on one
    // tick strictly before the batch's acquire ops land.
    assert(costs_.lock_acquire > 0);
}

void
SimLock::Pair::await_suspend(std::coroutine_handle<> h)
{
    handle_ = h;
    lock_->join(*this);
}

void
SimLock::join(Pair &pair)
{
    const sim::Tick now = sim_.now();
    acquisitions_.increment();
    // The acquire op heads one Lock interval that runs to the exit,
    // open on our still-held CPU, so a measurement-window reset
    // anywhere inside the pair clips it exactly.
    pair.run_ = pair.pool_->beginRun(CpuCat::Lock);
    const sim::Tick arrive = now + costs_.lock_acquire;
    const sim::Tick turn = pair.hold_ + costs_.lock_release;
    pair.solo_exit_ = arrive + turn;

    if (tail_called_ == now) {
        // Same calling tick, so the same acquire tick: one batch.
        // It serializes inside the lock but exits as one, so its
        // end grows by this member's turn.
        tail_last_->next_ = &pair;
        tail_last_ = &pair;
        free_at_ += turn;
        tail_first_->batch_exit_ = free_at_;
        return;
    }
    tail_called_ = now;
    tail_first_ = tail_last_ = &pair;
    free_at_ = std::max(arrive, free_at_) + turn;
    pair.batch_exit_ = free_at_;
    sim_.queue().scheduleAt(free_at_,
                            [this, first = &pair] { exitBatch(first); });
}

void
SimLock::exitBatch(Pair *first)
{
    // A same-tick joiner moved the exit after this event was armed;
    // the calling tick is over, so the new exit is final.
    if (first->batch_exit_ > sim_.now()) {
        sim_.queue().scheduleAt(first->batch_exit_,
                                [this, first] { exitBatch(first); });
        return;
    }
    for (Pair *member = first; member != nullptr;) {
        // A resumed member's frame may move on and drop its awaiter.
        Pair *next = member->next_;
        member->handle_.resume();
        member = next;
    }
}

void
SimLock::Pair::await_resume()
{
    // The whole stay — acquire op, spin, critical section, release
    // op — just elapsed on our (still-held) CPU. Close the interval
    // (charged to Lock, clipped to the current window) and
    // re-attribute the critical section to the caller's category.
    // Exiting later than an uncontended pair means the batch had
    // company (or queued behind another batch).
    const sim::Tick charged = pool_->endRun(run_);
    const sim::Tick hold_part = std::min(hold_, charged);
    pool_->addBusy(hold_cat_, hold_part);
    pool_->addBusy(CpuCat::Lock, -hold_part);
    const sim::Tick spin = lock_->sim_.now() - solo_exit_;
    if (spin > 0) {
        lock_->contended_.increment();
        lock_->total_wait_ += spin;
    }
}

} // namespace v3sim::osmodel
