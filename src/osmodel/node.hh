/**
 * @file
 * A simulated host: CPUs, memory, interrupt delivery and the kernel
 * I/O path, bundled for convenient wiring.
 *
 * Database servers (Table 1) and V3 storage nodes (Table 2) are both
 * Nodes; they differ only in configuration. NICs and disks attach to
 * a Node by referencing its memory space and interrupt controller.
 */

#ifndef V3SIM_OSMODEL_NODE_HH
#define V3SIM_OSMODEL_NODE_HH

#include <memory>
#include <string>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "osmodel/interrupt_controller.hh"
#include "osmodel/io_manager.hh"
#include "osmodel/sim_lock.hh"
#include "sim/memory.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{

/** Static description of one host. */
struct NodeConfig
{
    std::string name = "node";
    int cpus = 4;
    HostCosts costs = HostCosts::midSize();
    /** Phantom memory for large workload runs (no byte backing). */
    bool phantom_memory = false;
};

/** One simulated machine. */
class Node
{
  public:
    Node(sim::Simulation &sim, NodeConfig config)
        : sim_(sim),
          config_(std::move(config)),
          memory_(config_.phantom_memory, config_.name + ".mem"),
          cpus_(sim, config_.cpus, config_.name + ".cpu"),
          interrupts_(sim, cpus_, config_.costs),
          io_manager_(sim, config_.costs),
          memory_lock_(sim, config_.costs, config_.name + ".mm")
    {}

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    sim::Simulation &sim() { return sim_; }
    const std::string &name() const { return config_.name; }
    const HostCosts &costs() const { return config_.costs; }

    sim::MemorySpace &memory() { return memory_; }
    CpuPool &cpus() { return cpus_; }
    InterruptController &interrupts() { return interrupts_; }
    IoManager &ioManager() { return io_manager_; }

    /** The memory manager's page lock (the MmPfn-lock analog): any
     *  path that wires or unwires pages serializes here. This is the
     *  resource behind section 3.1's "deregistration requires
     *  locking pages, which becomes more expensive at larger
     *  processor counts" — at 32 CPUs and 100K+ IOPS, per-I/O
     *  deregistration drives it toward saturation, which is what
     *  batched deregistration avoids. */
    SimLock &memoryLock() { return memory_lock_; }

  private:
    sim::Simulation &sim_;
    NodeConfig config_;
    sim::MemorySpace memory_;
    CpuPool cpus_;
    InterruptController interrupts_;
    IoManager io_manager_;
    SimLock memory_lock_;
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_NODE_HH
