/**
 * @file
 * A node's volume: its disks striped into one byte-addressed device.
 *
 * Section 2.1: "Each V3 volume consists of one or more physical
 * disks attached to V3 storage nodes. V3 volumes can span multiple
 * V3 nodes using combinations of RAID, such as concatenation and
 * other disk organizations." Every experiment here gives each node
 * one RAID-0 volume over all of its disks, and the volume builds
 * those disks itself: storage::BlockPath holds a node's volume, and
 * scenarios::Testbed builds the Local platform's disk array the same
 * way. Spanning nodes is the host side's job (dsa::StripedDevice,
 * dsa::MirroredDevice).
 */

#ifndef V3SIM_DISK_VOLUME_HH
#define V3SIM_DISK_VOLUME_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/disk.hh"
#include "sim/memory.hh"
#include "sim/task.hh"

namespace v3sim::disk
{

/** RAID-0: a fixed stripe unit round-robined across the volume's own
 *  disks, with real data movement to and from host memory. */
class StripeVolume
{
  public:
    /** Builds @p count elevator disks of @p spec named
     *  "<name_prefix><i>", in index order, each forking the
     *  simulation's random stream, with phantom stores when
     *  @p phantom. */
    StripeVolume(sim::Simulation &sim, const DiskSpec &spec, int count,
                 const std::string &name_prefix, bool phantom,
                 uint64_t stripe_unit);

    StripeVolume(const StripeVolume &) = delete;
    StripeVolume &operator=(const StripeVolume &) = delete;

    uint64_t capacity() const { return capacity_; }
    size_t diskCount() const { return disks_.size(); }
    Disk &disk(size_t i) { return *disks_.at(i); }

    /**
     * Reads [offset, offset+len) into host memory at @p addr.
     * Resolves (true on success) once data is in memory.
     */
    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem, sim::Addr addr);

    /** Writes host memory into [offset, offset+len); durable when it
     *  resolves. */
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem, sim::Addr addr);

    /**
     * Oracle view of latent corruption: true when any sector backing
     * [offset, offset+len) carries an injected corruption mark. The
     * server's verify-on-read uses this as the phantom-memory stand-in
     * for "the block's CRC32C did not match" — with real memory the
     * damaged bytes are also actually delivered by read().
     */
    bool corrupt(uint64_t offset, uint64_t len) const;

  private:
    /** Runs one striped operation fan-out. */
    sim::Task<bool> run(uint64_t offset, uint64_t len,
                        sim::MemorySpace *mem, sim::Addr addr,
                        bool is_write);

    std::vector<std::unique_ptr<Disk>> disks_;
    uint64_t stripe_unit_;
    uint64_t capacity_;
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_VOLUME_HH
