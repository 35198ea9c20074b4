/**
 * @file
 * VI completion queue.
 *
 * Receive completions land here; the consumer drains them either by
 * explicit polling (cDSA's polling mode, the V3 server's dedicated
 * receive loop) or after arming the queue for a one-shot interrupt
 * notification (kDSA/wDSA completion paths). Arming follows the VI /
 * verbs convention: the interrupt sink fires once on the next push,
 * then the queue must be re-armed — which is exactly the hook DSA's
 * interrupt-batching policies manipulate (section 3.2).
 *
 * The awaitable next() is a simulation convenience for consumers that
 * dedicate a loop to the queue (the V3 server polls; modelling a
 * spinning poll with events would only burn simulator cycles).
 */

#ifndef V3SIM_VI_COMPLETION_QUEUE_HH
#define V3SIM_VI_COMPLETION_QUEUE_HH

#include <coroutine>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "sim/stats.hh"
#include "vi/vi_types.hh"

namespace v3sim::vi
{

/** Queue of WorkCompletions with poll and one-shot-interrupt modes. */
class CompletionQueue
{
  public:
    CompletionQueue() = default;

    CompletionQueue(const CompletionQueue &) = delete;
    CompletionQueue &operator=(const CompletionQueue &) = delete;

    /** NIC side: appends a completion and delivers notifications. */
    void
    push(WorkCompletion completion)
    {
        entries_.push_back(completion);
        pushes_.increment();
        if (waiter_) {
            auto w = std::exchange(waiter_, nullptr);
            w.resume();
            return;
        }
        if (armed_) {
            armed_ = false;
            interrupts_.increment();
            if (interrupt_sink_)
                interrupt_sink_();
        }
    }

    /** Consumer side: pops the oldest completion, if any. */
    std::optional<WorkCompletion>
    poll()
    {
        if (entries_.empty())
            return std::nullopt;
        WorkCompletion completion = entries_.front();
        entries_.pop_front();
        return completion;
    }

    size_t depth() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Requests a one-shot interrupt on the next push. */
    void arm() { armed_ = true; }

    /** Cancels a pending arm (interrupt batching turns these off). */
    void disarm() { armed_ = false; }

    bool armed() const { return armed_; }

    /** Installs the host interrupt entry point (owner wires this to
     *  the node's interrupt controller). */
    void
    setInterruptSink(std::function<void()> sink)
    {
        interrupt_sink_ = std::move(sink);
    }

    /**
     * Awaitable: resumes with the oldest completion, waiting for a
     * push when empty. Single waiter at a time (one service loop per
     * queue). Bypasses the interrupt mechanism entirely — use it only
     * for dedicated polling loops.
     */
    auto
    next()
    {
        struct Awaiter
        {
            CompletionQueue *cq;

            bool await_ready() const { return !cq->entries_.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                cq->waiter_ = h;
            }

            WorkCompletion
            await_resume()
            {
                WorkCompletion completion = cq->entries_.front();
                cq->entries_.pop_front();
                return completion;
            }
        };
        return Awaiter{this};
    }

    /** Completions ever pushed. */
    uint64_t pushCount() const { return pushes_.value(); }

    /** Interrupts ever fired from this queue. */
    uint64_t interruptCount() const { return interrupts_.value(); }

  private:
    std::deque<WorkCompletion> entries_;
    bool armed_ = false;
    std::function<void()> interrupt_sink_;
    std::coroutine_handle<> waiter_;
    sim::Counter pushes_;
    sim::Counter interrupts_;
};

} // namespace v3sim::vi

#endif // V3SIM_VI_COMPLETION_QUEUE_HH
