/**
 * @file
 * Queued-resource primitives: ServerPool and Semaphore.
 *
 * ServerPool models m identical servers with queued admission and a
 * caller-supplied service time per job — the workhorse behind NIC DMA
 * engines, network links, disk mechanisms, and the V3 server's
 * pipeline stages. Semaphore is a counted gate, granting in key
 * order, used for flow-control credits and bounded queues.
 *
 * Determinism (DESIGN.md §8.3): jobs submitted on the same tick are a
 * race — their submission order is unspecified and tie-shuffled, so
 * the pool never starts them in arrival order. Submissions gather
 * over the tick and are admitted in one final-band pass ordered by
 * (order_key, submission); jobs from distinct ticks keep strict FIFO.
 * Callers whose same-tick jobs can interleave pass distinct
 * order_keys (a transfer tag, a source port); same-key jobs keep
 * their relative submission order, which is how multi-fragment
 * transfers stay in order.
 */

#ifndef V3SIM_SIM_RESOURCE_HH
#define V3SIM_SIM_RESOURCE_HH

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace v3sim::sim
{

/**
 * m identical servers with a FIFO queue. Jobs carry their own service
 * time; completion is signalled by callback or by awaiting use().
 */
class ServerPool
{
  public:
    /**
     * @param queue the simulation event queue.
     * @param servers number of parallel servers (>= 1).
     * @param name identifies the pool.
     */
    ServerPool(EventQueue &queue, int servers, std::string name = "");

    /**
     * Enqueues a job; @p done fires when its service completes. The
     * job starts in this tick's final band at the earliest; same-tick
     * submissions are ordered by @p order_key, then submission. The
     * callable is built inside the pooled job.
     */
    template <typename F>
    void
    submit(Tick service, F &&done, uint64_t order_key = 0)
    {
        Job *job = allocJob();
        job->done.emplace(std::forward<F>(done));
        enqueue(job, service, order_key);
    }

    /** Awaitable submission: co_await pool.use(service). */
    auto
    use(Tick service, uint64_t order_key = 0)
    {
        struct Awaiter
        {
            ServerPool *pool;
            Tick service;
            uint64_t order_key;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                pool->submit(service, [h] { h.resume(); }, order_key);
            }

            void await_resume() const {}
        };
        return Awaiter{this, service, order_key};
    }

    int servers() const { return servers_; }
    size_t queuedCount() const { return waiting_.size(); }
    const std::string &name() const { return name_; }

  private:
    /** Pooled job node: completion events capture only {pool, node},
     *  so the service-completion path never heap-allocates no matter
     *  how large the done callback's inline state is. */
    struct Job
    {
        Tick service = 0;
        uint64_t order_key = 0;
        uint64_t seq = 0; ///< submission tiebreak among equal keys
        EventFn done;
        Job *next_free = nullptr;
    };

    Job *allocJob();
    void releaseJob(Job *job);
    void enqueue(Job *job, Tick service, uint64_t order_key);
    void startJob(Job *job);
    void onJobDone(Job *job);
    /** Final-band pass: moves this tick's submissions, in
     *  (order_key, seq) order, onto servers or the FIFO queue. */
    void admitPending();

    EventQueue &queue_;
    int servers_;
    std::string name_;
    int busy_ = 0;
    std::deque<Job *> waiting_;
    /** Same-tick submissions awaiting the final-band admission. */
    std::vector<Job *> pending_;
    uint64_t next_seq_ = 0;
    bool admit_scheduled_ = false;
    /** Slab owning every Job node (deque: stable addresses). */
    std::deque<Job> slab_;
    Job *free_jobs_ = nullptr;
};

/**
 * Counted semaphore with coroutine acquire and final-band granting.
 *
 * Determinism (DESIGN.md §8.3): an inline fast path would hand the
 * last count to whichever same-tick acquirer happened to run first —
 * arrival order, which the tie-shuffle permutes. Every acquire
 * therefore parks, and counts are granted in one final-band pass per
 * tick ordered by (order_key, park order) over every parked waiter,
 * whichever tick it parked in: a later waiter with a smaller key
 * overtakes an earlier one. Acquirers pass a content-derived key
 * (buffer address, request offset); only equal keys keep FIFO.
 */
class Semaphore
{
  public:
    Semaphore(EventQueue &queue, int64_t initial)
        : queue_(queue), count_(initial)
    {
        assert(initial >= 0);
    }

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    int64_t available() const { return count_; }
    size_t waiterCount() const { return waiters_.size(); }

    /**
     * Awaitable acquire of one count. Grants happen in this tick's
     * final band at the earliest; all parked acquirers are ordered
     * by @p order_key (content, never arrival order), then park order.
     */
    auto
    acquire(uint64_t order_key = 0)
    {
        struct Awaiter
        {
            Semaphore *sem;
            uint64_t order_key;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                sem->park(h, order_key);
            }

            void await_resume() const {}
        };
        return Awaiter{this, order_key};
    }

    /** Returns @p n counts; waiters are granted in the final band. */
    void
    release(int64_t n = 1)
    {
        count_ += n;
        if (!waiters_.empty())
            scheduleGrant();
    }

  private:
    struct Waiter
    {
        std::coroutine_handle<> handle;
        uint64_t order_key = 0;
        uint64_t seq = 0; ///< park-order tiebreak among equal keys

        bool
        operator<(const Waiter &other) const
        {
            if (order_key != other.order_key)
                return order_key < other.order_key;
            return seq < other.seq;
        }
    };

    void
    park(std::coroutine_handle<> h, uint64_t order_key)
    {
        const Waiter w{h, order_key, next_seq_++};
        waiters_.insert(
            std::upper_bound(waiters_.begin(), waiters_.end(), w), w);
        scheduleGrant();
    }

    void
    scheduleGrant()
    {
        if (grant_scheduled_)
            return;
        grant_scheduled_ = true;
        queue_.scheduleFinal([this] { grant(); });
    }

    void
    grant()
    {
        // Cleared first: a resumed waiter may release() and re-park.
        grant_scheduled_ = false;
        while (count_ > 0 && !waiters_.empty()) {
            const Waiter w = waiters_.front();
            waiters_.erase(waiters_.begin());
            --count_;
            w.handle.resume();
        }
    }

    EventQueue &queue_;
    int64_t count_;
    std::vector<Waiter> waiters_;
    uint64_t next_seq_ = 0;
    bool grant_scheduled_ = false;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_RESOURCE_HH
