/**
 * @file
 * Move-only callable holder for event callbacks.
 *
 * The simulator's hot-path lambdas capture a `this` pointer plus at
 * most a small command struct, so EventFn keeps an inline buffer
 * sized for them (kInlineBytes) and stores the callable in place —
 * scheduling an event then allocates nothing. Larger, over-aligned,
 * or throwing-move callables fall back to a heap box; behaviour is
 * identical either way. Dispatch goes through a per-type static ops
 * table (invoke/relocate/destroy) instead of a vtable so the holder
 * stays a POD-sized struct that pool-allocated events can embed.
 * Owners that pool their holders (EventQueue's events, ServerPool's
 * jobs) build the callable straight into the pooled holder with
 * emplace(), so it is never relocated on the way in; hot call sites
 * static_assert storesInline() on their capture type.
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
    /** Inline capture budget: fits the disk completion (a `this`
     *  pointer and a 64-byte command, 72 bytes: the largest asserted
     *  capture; the per-packet captures of ViNic::transmit and
     *  Fabric::send take 48), and keeps the pooled Event at two
     *  cache lines. */
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
        reset();
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = inlineOps<Fn>();
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = boxedOps<Fn>();
        }
    }

    /** Whether a callable of type @p F is held in the inline buffer
     *  (no heap box). Hot call sites static_assert it on their
     *  capture type, so a capture that grows past kInlineBytes fails
     *  the build instead of allocating on every event. */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        return fitsInline<std::decay_t<F>>();
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
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static Fn *
    as(void *buf) noexcept
    {
        return std::launder(reinterpret_cast<Fn *>(buf));
    }

    template <typename Fn>
    static const Ops *
    inlineOps() noexcept
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

    template <typename Fn>
    static const Ops *
    boxedOps() noexcept
    {
        static constexpr Ops ops = {
            [](void *buf) { (**as<Fn *>(buf))(); },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn *(*as<Fn *>(src));
            },
            [](void *buf) noexcept { delete *as<Fn *>(buf); },
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
