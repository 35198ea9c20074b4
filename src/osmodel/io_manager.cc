#include "io_manager.hh"

namespace v3sim::osmodel
{

IoManager::IoManager(sim::Simulation &sim, const HostCosts &costs)
    : costs_(costs),
      queue_lock_(sim, costs, "iomgr.queue"),
      dispatch_lock_(sim, costs, "iomgr.dispatch")
{}

sim::Task<>
IoManager::issueRequest(CpuLease lease, uint64_t buffer_pages,
                        bool pin_buffer)
{
    requests_.increment();
    co_await lease.run(costs_.syscall, CpuCat::Kernel);
    co_await queue_lock_.syncPair(lease, CpuCat::Kernel);
    // IRP work and probe-and-lock run back to back: one charge.
    const sim::Tick probe =
        pin_buffer ? static_cast<sim::Tick>(buffer_pages) *
                         costs_.probe_lock_page
                   : 0;
    co_await lease.run(costs_.irp_issue + probe, CpuCat::Kernel);
    co_await dispatch_lock_.syncPair(lease, CpuCat::Kernel);
}

sim::Task<>
IoManager::completeRequest(CpuLease lease, uint64_t buffer_pages,
                           bool unpin_buffer)
{
    co_await queue_lock_.syncPair(lease, CpuCat::Kernel);
    const sim::Tick unlock =
        unpin_buffer ? static_cast<sim::Tick>(buffer_pages) *
                           costs_.probe_lock_page
                     : 0;
    co_await lease.run(costs_.irp_complete + unlock, CpuCat::Kernel);
    co_await dispatch_lock_.syncPair(lease, CpuCat::Kernel);
    // Wake the thread that blocked in the I/O system call.
    co_await lease.run(costs_.context_switch, CpuCat::Kernel);
}

} // namespace v3sim::osmodel
