#include "simulation.hh"

namespace v3sim::sim
{

Simulation::Simulation(uint64_t seed)
    : rng_(seed), metrics_([this] { return queue_.now(); })
{
    metrics_.gauge("sim.time_ns",
                   [this] { return static_cast<double>(now()); });
}

} // namespace v3sim::sim
