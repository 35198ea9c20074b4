#include "storage/admission_gate.hh"

#include <algorithm>
#include <cassert>
#include <optional>

namespace v3sim::storage
{

AdmissionGate::AdmissionGate(sim::Simulation &sim,
                             const std::string &prefix,
                             AdmissionConfig config)
    : sim_(sim), queue_(config),
      admitted_(
          sim.metrics().counter(prefix + ".admission_admitted")),
      queued_ct_(
          sim.metrics().counter(prefix + ".admission_queued")),
      shed_(sim.metrics().counter(prefix + ".admission_shed")),
      wait_(sim.metrics().sampler(prefix + ".admission_wait_ns"))
{}

sim::Task<bool>
AdmissionGate::admit(uint64_t tenant, uint64_t cost,
                     uint64_t order_key)
{
    if (!enabled())
        co_return true;
    // The waiter lives on this coroutine's frame; it is staged for
    // the tick's final-band pass, which makes the Admit/Queue/Shed
    // decision over the full same-tick contender set in order_key
    // order (DESIGN.md §8.3) and fires ready.
    Waiter waiter;
    waiter.tenant = tenant;
    waiter.cost = cost;
    waiter.order_key = order_key;
    const sim::Tick enter = sim_.now();
    staged_.push_back(&waiter);
    schedulePass();
    co_await waiter.ready.wait();
    if (waiter.queued &&
        waiter.decision == AdmissionQueue::Decision::Admit)
        wait_.add(static_cast<double>(sim_.now() - enter));
    co_return waiter.decision == AdmissionQueue::Decision::Admit;
}

void
AdmissionGate::release()
{
    if (!enabled())
        return;
    queue_.release();
    schedulePass();
}

void
AdmissionGate::schedulePass()
{
    if (pass_scheduled_)
        return;
    pass_scheduled_ = true;
    sim_.queue().scheduleFinal([this] { pass(); });
}

void
AdmissionGate::pass()
{
    pass_scheduled_ = false;

    // Offers first, sorted by content key: the tick's arrivals join
    // the contender set before any freed slot is re-filled, so the
    // DRR scheduler — not intra-tick arrival order — decides who
    // runs next.
    std::vector<Waiter *> batch = std::move(staged_);
    staged_.clear();
    std::sort(batch.begin(), batch.end(),
              [](const Waiter *a, const Waiter *b) {
                  return a->order_key < b->order_key;
              });
    for (Waiter *waiter : batch) {
        const uint64_t token = next_token_++;
        waiter->decision =
            queue_.offer(waiter->tenant, waiter->cost, token);
        switch (waiter->decision) {
          case AdmissionQueue::Decision::Admit:
            admitted_.increment();
            waiter->ready.set();
            break;
          case AdmissionQueue::Decision::Shed:
            shed_.increment();
            waiter->ready.set();
            break;
          case AdmissionQueue::Decision::Queue:
            queued_ct_.increment();
            waiter->queued = true;
            waiting_.emplace(token, waiter);
            break;
        }
    }

    // Then fill any free service slots from the backlog.
    while (std::optional<uint64_t> token = queue_.next()) {
        const auto it = waiting_.find(*token);
        assert(it != waiting_.end());
        Waiter *waiter = it->second;
        waiting_.erase(it);
        waiter->decision = AdmissionQueue::Decision::Admit;
        admitted_.increment();
        waiter->ready.set();
    }
}

void
AdmissionGate::shedAll()
{
    for (Waiter *waiter : staged_) {
        waiter->decision = AdmissionQueue::Decision::Shed;
        shed_.increment();
        waiter->ready.set();
    }
    staged_.clear();
    for (auto &[token, waiter] : waiting_) {
        waiter->decision = AdmissionQueue::Decision::Shed;
        shed_.increment();
        waiter->ready.set();
    }
    waiting_.clear();
    queue_.reset();
}

} // namespace v3sim::storage
