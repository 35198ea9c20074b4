/**
 * @file
 * Move-only callable holder for event callbacks.
 *
 * The simulator's hot-path lambdas capture a `this` pointer plus at
 * most a small command struct, so EventFn keeps an inline buffer
 * sized for them (kInlineBytes) and stores every callable in place:
 * scheduling an event allocates nothing. A callable that is larger,
 * over-aligned or may throw on move does not compile; capture a
 * pointer to its state instead. Dispatch goes through a per-type
 * static ops table (invoke/relocate/destroy) instead of a vtable so
 * the holder stays a POD-sized struct that pool-allocated events can
 * embed. Owners that pool their holders (EventQueue's events,
 * ServerPool's jobs) build the callable straight into the pooled
 * holder with emplace(), so it is never relocated on the way in.
 */

#ifndef V3SIM_SIM_EVENT_FN_HH
#define V3SIM_SIM_EVENT_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace v3sim::sim
{

/** Small-buffer-optimized move-only `void()` callable. */
class EventFn
{
  public:
    /** Inline capture budget, enforced for every callable: the
     *  largest captures (the disk completion and the per-packet ones
     *  in Fabric and ViNic) take 48 bytes, and the pooled Event
     *  stays at two cache lines. */
    static constexpr size_t kInlineBytes = 80;

    EventFn() noexcept = default;

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Invokes the callable. Precondition: non-empty. */
    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept
    {
        return ops_ != nullptr;
    }

    /** Destroys the held callable, leaving the holder empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Replaces the held callable with @p fn, built in this holder's
     *  own storage: the only way a callable gets in, so an owner that
     *  pools its holders never relocates one on the way in. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes &&
                          alignof(Fn) <= alignof(void *) &&
                          std::is_nothrow_move_constructible_v<Fn>,
                      "EventFn holds callables inline only: this one "
                      "is over kInlineBytes, over-aligned or may throw "
                      "on move; capture a pointer to its state instead");
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = opsFor<Fn>();
    }

  private:
    struct Ops
    {
        void (*invoke)(void *buf);
        /** Move-constructs dst from src and destroys src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *buf) noexcept;
    };

    template <typename Fn>
    static Fn *
    as(void *buf) noexcept
    {
        return std::launder(reinterpret_cast<Fn *>(buf));
    }

    template <typename Fn>
    static const Ops *
    opsFor() noexcept
    {
        static constexpr Ops ops = {
            [](void *buf) { (*as<Fn>(buf))(); },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn(std::move(*as<Fn>(src)));
                as<Fn>(src)->~Fn();
            },
            [](void *buf) noexcept { as<Fn>(buf)->~Fn(); },
        };
        return &ops;
    }

    void
    moveFrom(EventFn &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char buf_[kInlineBytes];
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_EVENT_FN_HH
