/**
 * @file
 * C++20 coroutine support for the simulator.
 *
 * Model code (DSA protocol paths, the V3 server pipeline, database
 * workers) is written as coroutines so multi-step interactions read
 * as straight-line code while the engine remains a plain event queue.
 *
 * Types:
 *  - Task<T>: a lazy coroutine; `co_await`ing it starts it and
 *    resumes the awaiter with the result when it finishes (symmetric
 *    transfer, no stack growth across chains).
 *  - spawn(): starts a Task<> as a detached root activity whose frame
 *    frees itself on completion.
 *  - Completion<T>: a one-shot box bridging callback APIs into
 *    `co_await` (set() resumes the waiter synchronously).
 *  - CondEvent: a broadcast wakeup with manual state (flow-control
 *    "credits available" style waits).
 *
 * Exceptions escaping a coroutine terminate the process: simulation
 * models report errors through return values, never by throwing
 * across scheduling boundaries.
 */

#ifndef V3SIM_SIM_TASK_HH
#define V3SIM_SIM_TASK_HH

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/frame_arena.hh"

namespace v3sim::sim
{

namespace detail
{

/** Final awaiter: transfers control back to whoever awaited us. */
template <typename Promise>
struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) const noexcept
    {
        auto continuation = h.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

/** What every promise type here shares: frames from the arena, and
 *  no exception may leave a coroutine. */
struct FrameHooks
{
    /** Frames come from the arena; only the sized form is declared,
     *  so the compiler must (and does) call it on frame destruction. */
    void *operator new(size_t size) { return FrameArena::allocate(size); }

    void
    operator delete(void *ptr, size_t size) noexcept
    {
        FrameArena::deallocate(ptr, size);
    }

    [[noreturn]] void
    unhandled_exception() const noexcept
    {
        std::fputs("v3sim: exception escaped a simulation coroutine\n",
                   stderr);
        std::terminate();
    }
};

/** A one-shot result: a value of type T, or for void only the fact
 *  that it was set. */
template <typename T>
class Slot
{
  public:
    bool ready() const { return value_.has_value(); }
    void set(T value) { value_.emplace(std::move(value)); }
    T take() { return std::move(*value_); }

  private:
    std::optional<T> value_;
};

template <>
class Slot<void>
{
  public:
    bool ready() const { return done_; }
    void set() { done_ = true; }
    void take() const {}

  private:
    bool done_ = false;
};

/** A task promise's `co_return` half: return_value keeps the result
 *  for the awaiter to take; a void task keeps nothing. */
template <typename T>
struct Returns
{
    void return_value(T value) { result.set(std::move(value)); }
    T take() { return result.take(); }

    Slot<T> result;
};

template <>
struct Returns<void>
{
    void return_void() const {}
    void take() const {}
};

} // namespace detail

/**
 * A lazy coroutine returning T. Move-only; owns the coroutine frame.
 * Await it exactly once. A Task must be driven to completion (or
 * never started) before destruction; destroying a started-but-
 * suspended task is a programming error checked by assertion.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::FrameHooks, detail::Returns<T>
    {
        std::coroutine_handle<> continuation;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() const noexcept { return {}; }

        detail::FinalAwaiter<promise_type>
        final_suspend() const noexcept
        {
            return {};
        }
    };

    Task() = default;

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr)),
          started_(std::exchange(other.started_, false))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
            started_ = std::exchange(other.started_, false);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Awaiting starts the task and yields its result. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            Task *task;

            bool await_ready() const { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> continuation)
            {
                task->started_ = true;
                task->handle_.promise().continuation = continuation;
                return task->handle_;
            }

            T await_resume() { return task->handle_.promise().take(); }
        };
        assert(handle_ && !started_ && "task must be awaited once");
        return Awaiter{this};
    }

  private:
    explicit Task(std::coroutine_handle<promise_type> handle)
        : handle_(handle)
    {}

    void
    destroy()
    {
        if (handle_) {
            assert((!started_ || handle_.done()) &&
                   "destroying a suspended in-flight task");
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
    bool started_ = false;
};

namespace detail
{

/** Eager, self-destroying coroutine used to root detached tasks. */
struct DetachedTask
{
    struct promise_type : FrameHooks
    {
        DetachedTask get_return_object() const { return {}; }
        std::suspend_never initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const {}
    };
};

inline DetachedTask
spawnImpl(Task<> task)
{
    co_await std::move(task);
}

} // namespace detail

/**
 * Starts @p task as a detached root activity. The coroutine frame
 * lives until the task completes, then frees itself.
 */
inline void
spawn(Task<> task)
{
    detail::spawnImpl(std::move(task));
}

/**
 * One-shot box bridging callback APIs to coroutines.
 *
 * Exactly one producer calls set() exactly once — set(value), or
 * set() for Completion<> — and exactly one consumer awaits wait() at
 * most once. If the value is already set, wait() completes
 * immediately; otherwise set() resumes the waiter synchronously.
 */
template <typename T = void>
class Completion
{
  public:
    Completion() = default;
    Completion(const Completion &) = delete;
    Completion &operator=(const Completion &) = delete;

    bool ready() const { return slot_.ready(); }

    template <typename... V>
    void
    set(V &&...value)
    {
        assert(!slot_.ready() && "Completion set twice");
        slot_.set(std::forward<V>(value)...);
        if (waiter_) {
            auto w = std::exchange(waiter_, nullptr);
            w.resume();
        }
    }

    auto
    wait()
    {
        struct Awaiter
        {
            Completion *completion;

            bool await_ready() const { return completion->ready(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                assert(!completion->waiter_ && "single waiter only");
                completion->waiter_ = h;
            }

            T await_resume() { return completion->slot_.take(); }
        };
        return Awaiter{this};
    }

  private:
    detail::Slot<T> slot_;
    std::coroutine_handle<> waiter_;
};

/**
 * Counts outstanding sub-activities and wakes one waiter when the
 * count reaches zero (fan-out/fan-in, e.g. a RAID stripe issuing to
 * several disks). add() before spawning, done() in each activity,
 * then co_await wait().
 */
class WaitGroup
{
  public:
    WaitGroup() = default;
    WaitGroup(const WaitGroup &) = delete;
    WaitGroup &operator=(const WaitGroup &) = delete;

    void add(int n = 1) { count_ += n; }

    void
    done()
    {
        assert(count_ > 0);
        if (--count_ == 0 && waiter_) {
            auto w = std::exchange(waiter_, nullptr);
            w.resume();
        }
    }

    int pending() const { return count_; }

    auto
    wait()
    {
        struct Awaiter
        {
            WaitGroup *group;

            bool await_ready() const { return group->count_ == 0; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                assert(!group->waiter_ && "single waiter only");
                group->waiter_ = h;
            }

            void await_resume() const {}
        };
        return Awaiter{this};
    }

  private:
    int count_ = 0;
    std::coroutine_handle<> waiter_;
};

/**
 * Broadcast wakeup: any number of coroutines block in wait() until
 * notifyAll() resumes every current waiter. Waiters added during a
 * notification round are not woken by that round (classic condition-
 * variable semantics). Callers must re-check their predicate.
 */
class CondEvent
{
  public:
    CondEvent() = default;
    CondEvent(const CondEvent &) = delete;
    CondEvent &operator=(const CondEvent &) = delete;

    size_t waiterCount() const { return waiters_.size(); }

    void
    notifyAll()
    {
        std::vector<std::coroutine_handle<>> batch;
        batch.swap(waiters_);
        for (auto h : batch)
            h.resume();
    }

    auto
    wait()
    {
        struct Awaiter
        {
            CondEvent *event;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                event->waiters_.push_back(h);
            }

            void await_resume() const {}
        };
        return Awaiter{this};
    }

  private:
    std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_TASK_HH
