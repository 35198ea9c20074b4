/**
 * @file
 * Windows-like kernel I/O-manager path model.
 *
 * kDSA and the local-disk baseline both issue I/O through the
 * standard kernel storage API. Per request the I/O manager costs:
 *
 *  issue side:    syscall entry, IRP allocation/validation/dispatch,
 *                 buffer probe-and-lock (pinning, which is what lets
 *                 kDSA register memory without paying pin costs
 *                 again — section 3.1), and two synchronization
 *                 pairs (section 3.3);
 *  completion:    IRP completion processing, two more sync pairs,
 *                 buffer unlock, and waking the issuing thread.
 *
 * All, work is charged to CpuCat::Kernel (sync pairs split their
 * cost between Lock and Kernel per SimLock's accounting).
 */

#ifndef V3SIM_OSMODEL_IO_MANAGER_HH
#define V3SIM_OSMODEL_IO_MANAGER_HH

#include <cstdint>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "osmodel/sim_lock.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace v3sim::osmodel
{

/** The kernel I/O path shared by kDSA and the local-disk baseline. */
class IoManager
{
  public:
    IoManager(sim::Simulation &sim, const HostCosts &costs);

    IoManager(const IoManager &) = delete;
    IoManager &operator=(const IoManager &) = delete;

    /**
     * Kernel-side issue work for one request, run on the caller's
     * CPU. @p buffer_pages is the request buffer's page span, each
     * page probed and locked (both callers drive DMA below).
     */
    sim::Task<> issueRequest(CpuLease lease, uint64_t buffer_pages);

    /**
     * Kernel-side completion work: IRP completion, sync pairs,
     * buffer unlock, and the context switch that wakes the waiting
     * application thread.
     */
    sim::Task<> completeRequest(CpuLease lease, uint64_t buffer_pages);

    uint64_t requestCount() const { return requests_.value(); }

    SimLock &dispatchLock() { return dispatch_lock_; }

  private:
    const HostCosts &costs_;
    /** The two I/O-manager locks the paper counts on each path. */
    SimLock queue_lock_;
    SimLock dispatch_lock_;
    sim::Counter requests_;
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_IO_MANAGER_HH
