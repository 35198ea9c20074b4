/**
 * @file
 * The V3 server's disk manager: owns the node's physical disks.
 *
 * Table 2: mid-size V3 nodes hold 15 SCSI disks each (60 across 4
 * nodes); large nodes hold 80 FC disks each (640 across 8 nodes).
 */

#ifndef V3SIM_STORAGE_DISK_MANAGER_HH
#define V3SIM_STORAGE_DISK_MANAGER_HH

#include <memory>
#include <string>
#include <vector>

#include "disk/disk.hh"
#include "sim/simulation.hh"

namespace v3sim::storage
{

/** Owns and tracks a node's spindles. */
class DiskManager
{
  public:
    explicit DiskManager(sim::Simulation &sim) : sim_(sim) {}

    DiskManager(const DiskManager &) = delete;
    DiskManager &operator=(const DiskManager &) = delete;

    /** Adds one disk; the manager owns it. */
    disk::Disk &
    addDisk(const disk::DiskSpec &spec, const std::string &name,
            bool phantom_store = false)
    {
        disks_.push_back(std::make_unique<disk::Disk>(
            sim_, spec, sim_.forkRng(), name,
            disk::SchedPolicy::Elevator, phantom_store));
        return *disks_.back();
    }

    /** Adds @p count identical disks with numbered names. */
    std::vector<disk::Disk *>
    addDisks(const disk::DiskSpec &spec, const std::string &prefix,
             int count, bool phantom_store = false)
    {
        std::vector<disk::Disk *> added;
        for (int i = 0; i < count; ++i) {
            added.push_back(&addDisk(
                spec, prefix + "." + std::to_string(i),
                phantom_store));
        }
        return added;
    }

    size_t diskCount() const { return disks_.size(); }
    disk::Disk &disk(size_t i) { return *disks_.at(i); }

    /** Total commands completed across all spindles. */
    uint64_t
    totalCompleted() const
    {
        uint64_t total = 0;
        for (const auto &d : disks_)
            total += d->completedCount();
        return total;
    }

    void
    resetStats()
    {
        for (auto &d : disks_)
            d->resetStats();
    }

  private:
    sim::Simulation &sim_;
    std::vector<std::unique_ptr<disk::Disk>> disks_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_DISK_MANAGER_HH
