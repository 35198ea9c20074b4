/**
 * @file
 * Simulation context: event queue + root RNG + metric registry.
 *
 * One Simulation object represents one experiment run. Components
 * receive a reference at construction, so tests can run many
 * simulations, one after another, in one process. src/ keeps no
 * mutable process-wide state (simlint's global-state rule holds it
 * so): a warning carries its caller's own clock (sim/warn.hh), and
 * sim::FrameArena's freelist heads are per thread. Each simulation
 * stays single-threaded, so simulations on different threads share
 * nothing.
 */

#ifndef V3SIM_SIM_SIMULATION_HH
#define V3SIM_SIM_SIMULATION_HH

#include <coroutine>
#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace v3sim::sim
{

/** One experiment run: clock, events, and deterministic randomness. */
class Simulation
{
  public:
    /** @param seed root seed; all component RNGs fork from it. */
    explicit Simulation(uint64_t seed = 1);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    Tick now() const { return queue_.now(); }

    /** Root RNG; prefer forking per component for stability. */
    Rng &rng() { return rng_; }

    /** Independent RNG substream for a component. */
    Rng forkRng() { return rng_.fork(); }

    /** This run's metric registry (see sim/metrics.hh). */
    MetricRegistry &metrics() { return metrics_; }
    const MetricRegistry &metrics() const { return metrics_; }

    /** Awaitable: suspends the calling coroutine for @p d. */
    auto
    sleep(Tick d)
    {
        struct Awaiter
        {
            EventQueue &queue;
            Tick d;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                queue.schedule(d, [h] { h.resume(); });
            }

            void await_resume() const {}
        };
        return Awaiter{queue_, d};
    }

    /** Runs until no events remain. @return events fired. */
    size_t run() { return queue_.run(); }

    /** Runs events up to and including time @p until. */
    size_t runUntil(Tick until) { return queue_.runUntil(until); }

  private:
    EventQueue queue_;
    Rng rng_;
    MetricRegistry metrics_;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_SIMULATION_HH
