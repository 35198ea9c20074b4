#include "cpu_pool.hh"

#include <algorithm>
#include <numeric>

namespace v3sim::osmodel
{

const char *
cpuCatName(CpuCat cat)
{
    switch (cat) {
      case CpuCat::Sql: return "SQL";
      case CpuCat::Kernel: return "OS Kernel";
      case CpuCat::Lock: return "Lock";
      case CpuCat::Dsa: return "DSA";
      case CpuCat::Vi: return "VI";
      case CpuCat::Other: return "Other";
    }
    return "?";
}

CpuPool::CpuPool(sim::Simulation &sim, int cpus, std::string name)
    : sim_(sim), cpus_(cpus), name_(std::move(name))
{
    assert(cpus >= 1);

    auto &m = sim.metrics();
    const std::string prefix =
        m.uniquePrefix("cpu." + (name_.empty() ? "pool" : name_));
    m.gauge(prefix + ".utilization", [this] { return utilization(); },
            this);
    static constexpr const char *kCatPath[kCpuCatCount] = {
        "sql", "kernel", "lock", "dsa", "vi", "other",
    };
    for (size_t c = 0; c < kCpuCatCount; ++c) {
        m.gauge(prefix + ".category." + kCatPath[c], [this, c] {
            return utilization(static_cast<CpuCat>(c));
        }, this);
    }
    // The busy-time window restarts with the registry epoch so the
    // utilization gauges describe the current measurement window.
    m.onEpochReset([this](sim::Tick) { resetStats(); }, this);
}

void
CpuPool::park(std::coroutine_handle<> h, int priority,
              uint64_t order_key, uint64_t tiebreak)
{
    const Waiter w{h, priority, order_key, tiebreak, next_seq_++};
    // Kept descending, so the next grant pops off the back.
    const auto granted_later = [](const Waiter &a, const Waiter &b) {
        return b < a;
    };
    waiters_.insert(std::upper_bound(waiters_.begin(), waiters_.end(),
                                     w, granted_later),
                    w);
    if (!arb_scheduled_) {
        arb_scheduled_ = true;
        sim_.queue().scheduleFinal([this] { arbitrate(); });
    }
}

void
CpuPool::release()
{
    assert(busy_ > 0);
    --busy_;
    // Freed capacity is not handed to the front waiter directly —
    // that would serve same-tick contenders in arrival order. The
    // final-band arbitration re-grants it against the full set.
    if (!waiters_.empty() && !arb_scheduled_) {
        arb_scheduled_ = true;
        sim_.queue().scheduleFinal([this] { arbitrate(); });
    }
}

void
CpuPool::arbitrate()
{
    // Clear the flag first: a waiter resumed below may release and
    // need a fresh arbitration pass later this same tick.
    arb_scheduled_ = false;
    while (busy_ < cpus_ && !waiters_.empty()) {
        const Waiter w = waiters_.back();
        waiters_.pop_back();
        ++busy_;
        w.handle.resume();
    }
}

CpuPool::Run *
CpuPool::beginRun(CpuCat cat)
{
    Run *run = free_runs_;
    if (run != nullptr)
        free_runs_ = run->next_free;
    else
        run = &run_slab_.emplace_back();
    run->cat = cat;
    run->start = sim_.now();
    run->idx = active_runs_.size();
    run->next_free = nullptr;
    active_runs_.push_back(run);
    return run;
}

sim::Tick
CpuPool::endRun(Run *run)
{
    const sim::Tick elapsed = sim_.now() - run->start;
    busy_time_[static_cast<size_t>(run->cat)] += elapsed;
    active_runs_[run->idx] = active_runs_.back();
    active_runs_[run->idx]->idx = run->idx;
    active_runs_.pop_back();
    run->next_free = free_runs_;
    free_runs_ = run;
    return elapsed;
}

sim::Tick
CpuPool::busyTime(CpuCat cat) const
{
    sim::Tick total = busy_time_[static_cast<size_t>(cat)];
    for (const Run *run : active_runs_) {
        if (run->cat == cat)
            total += sim_.now() - run->start;
    }
    return total;
}

sim::Tick
CpuPool::totalBusyTime() const
{
    sim::Tick total = std::accumulate(
        busy_time_.begin(), busy_time_.end(), sim::Tick{0});
    for (const Run *run : active_runs_)
        total += sim_.now() - run->start;
    return total;
}

double
CpuPool::utilization() const
{
    const sim::Tick window = sim_.now() - window_start_;
    if (window <= 0)
        return 0.0;
    return static_cast<double>(totalBusyTime()) /
           (static_cast<double>(window) * cpus_);
}

double
CpuPool::utilization(CpuCat cat) const
{
    const sim::Tick window = sim_.now() - window_start_;
    if (window <= 0)
        return 0.0;
    return static_cast<double>(busyTime(cat)) /
           (static_cast<double>(window) * cpus_);
}

void
CpuPool::resetStats()
{
    busy_time_.fill(0);
    window_start_ = sim_.now();
    // Clamp in-progress runs to the new window: the part that elapsed
    // before the reset belongs to the old window and is discarded.
    for (Run *run : active_runs_)
        run->start = window_start_;
}

} // namespace v3sim::osmodel
