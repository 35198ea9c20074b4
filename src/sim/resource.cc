#include "resource.hh"

#include <algorithm>
#include <utility>

namespace v3sim::sim
{

ServerPool::Job *
ServerPool::allocJob()
{
    if (free_jobs_ != nullptr) {
        Job *job = free_jobs_;
        free_jobs_ = job->next_free;
        job->next_free = nullptr;
        return job;
    }
    slab_.emplace_back();
    return &slab_.back();
}

void
ServerPool::releaseJob(Job *job)
{
    job->done.reset();
    job->next_free = free_jobs_;
    free_jobs_ = job;
}

void
ServerPool::enqueue(Job *job, Tick service, uint64_t order_key)
{
    job->service = service;
    job->order_key = order_key;
    job->seq = next_seq_++;
    // Never start in submission order: same-tick submissions race
    // (DESIGN.md §8.3). Gather them and admit in the final band,
    // ordered by (order_key, seq).
    const auto after = [](const Job *a, const Job *b) {
        return a->order_key < b->order_key ||
               (a->order_key == b->order_key && a->seq < b->seq);
    };
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(),
                                     job, after),
                    job);
    if (!admit_scheduled_) {
        admit_scheduled_ = true;
        queue_.scheduleFinal([this] { admitPending(); });
    }
}

void
ServerPool::admitPending()
{
    admit_scheduled_ = false;
    for (Job *job : pending_) {
        if (!busy_)
            startJob(job);
        else
            waiting_.push_back(job);
    }
    pending_.clear();
}

void
ServerPool::startJob(Job *job)
{
    busy_ = true;
    queue_.schedule(job->service, [this, job] { onJobDone(job); });
}

void
ServerPool::onJobDone(Job *job)
{
    busy_ = false;
    EventFn done = std::move(job->done);
    releaseJob(job);
    if (!waiting_.empty()) {
        Job *next = waiting_.front();
        waiting_.pop_front();
        startJob(next);
    }
    done();
}

} // namespace v3sim::sim
