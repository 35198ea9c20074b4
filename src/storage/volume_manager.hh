/**
 * @file
 * The V3 server's volume manager: assembles RAID volumes over the
 * disk manager's spindles and exposes them by id (section 2.1: "Each
 * V3 server provides a virtualized view of a disk (V3 volume) ...
 * using combinations of RAID, such as concatenation and other disk
 * organizations").
 */

#ifndef V3SIM_STORAGE_VOLUME_MANAGER_HH
#define V3SIM_STORAGE_VOLUME_MANAGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/volume.hh"
#include "storage/disk_manager.hh"

namespace v3sim::storage
{

/** Owns composed volumes; hands out ids the wire protocol uses. */
class VolumeManager
{
  public:
    VolumeManager() = default;

    VolumeManager(const VolumeManager &) = delete;
    VolumeManager &operator=(const VolumeManager &) = delete;

    /** Registers a volume built elsewhere; returns its id. */
    uint32_t
    addVolume(std::unique_ptr<disk::Volume> volume)
    {
        volumes_.push_back(std::move(volume));
        return static_cast<uint32_t>(volumes_.size() - 1);
    }

    /**
     * Convenience: a striped (RAID-0) volume over @p disks. The
     * intermediate single-disk volumes are owned here too.
     */
    uint32_t
    addStripedVolume(const std::vector<disk::Disk *> &disks,
                     uint64_t stripe_unit)
    {
        std::vector<disk::Volume *> children;
        for (disk::Disk *d : disks) {
            parts_.push_back(
                std::make_unique<disk::SingleDiskVolume>(*d));
            children.push_back(parts_.back().get());
        }
        return addVolume(std::make_unique<disk::StripeVolume>(
            std::move(children), stripe_unit));
    }

    disk::Volume *
    volume(uint32_t id)
    {
        return id < volumes_.size() ? volumes_[id].get() : nullptr;
    }

  private:
    std::vector<std::unique_ptr<disk::Volume>> volumes_;
    std::vector<std::unique_ptr<disk::Volume>> parts_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_VOLUME_MANAGER_HH
