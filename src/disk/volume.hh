/**
 * @file
 * Block-volume abstraction over disks.
 *
 * Section 2.1: "Each V3 volume consists of one or more physical
 * disks attached to V3 storage nodes. V3 volumes can span multiple
 * V3 nodes using combinations of RAID, such as concatenation and
 * other disk organizations."
 *
 * A Volume serves byte-addressed reads/writes and moves data to or
 * from host memory. Implementations: single disk, concatenation,
 * striping (RAID-0) and mirroring (RAID-1) — composable, so e.g. a
 * striped volume of mirrored pairs models RAID-10.
 */

#ifndef V3SIM_DISK_VOLUME_HH
#define V3SIM_DISK_VOLUME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/disk.hh"
#include "sim/memory.hh"
#include "sim/task.hh"

namespace v3sim::disk
{

/** Byte-addressed block volume with real data movement. */
class Volume
{
  public:
    virtual ~Volume() = default;

    virtual uint64_t capacity() const = 0;

    /**
     * Reads [offset, offset+len) into host memory at @p addr.
     * Resolves (true on success) once data is in memory.
     */
    virtual sim::Task<bool> read(uint64_t offset, uint64_t len,
                                 sim::MemorySpace &mem,
                                 sim::Addr addr) = 0;

    /** Writes host memory into [offset, offset+len); durable when it
     *  resolves. */
    virtual sim::Task<bool> write(uint64_t offset, uint64_t len,
                                  const sim::MemorySpace &mem,
                                  sim::Addr addr) = 0;

    /**
     * Oracle view of latent corruption: true when any sector backing
     * [offset, offset+len) carries an injected corruption mark. The
     * server's verify-on-read uses this as the phantom-memory stand-in
     * for "the block's CRC32C did not match" — with real memory the
     * damaged bytes are also actually delivered by read().
     */
    virtual bool corrupt(uint64_t offset, uint64_t len) const
    {
        (void)offset;
        (void)len;
        return false;
    }
};

/** Volume over one physical disk. */
class SingleDiskVolume : public Volume
{
  public:
    explicit SingleDiskVolume(Disk &disk) : disk_(disk) {}

    uint64_t
    capacity() const override
    {
        return disk_.spec().capacity_bytes;
    }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    bool
    corrupt(uint64_t offset, uint64_t len) const override
    {
        return disk_.store().rangeCorrupt(offset, len);
    }

    Disk &disk() { return disk_; }

  private:
    Disk &disk_;
};

/** Volumes glued end-to-end. */
class ConcatVolume : public Volume
{
  public:
    explicit ConcatVolume(std::vector<Volume *> children);

    uint64_t capacity() const override { return capacity_; }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    bool corrupt(uint64_t offset, uint64_t len) const override;

  private:
    /** Child index and in-child offset for a volume offset. */
    std::pair<size_t, uint64_t> locate(uint64_t offset) const;

    std::vector<Volume *> children_;
    std::vector<uint64_t> starts_; ///< cumulative start offsets
    uint64_t capacity_;
};

/** RAID-0: fixed stripe unit round-robined across children. */
class StripeVolume : public Volume
{
  public:
    StripeVolume(std::vector<Volume *> children, uint64_t stripe_unit);

    uint64_t capacity() const override { return capacity_; }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    bool corrupt(uint64_t offset, uint64_t len) const override;

  private:
    /** Runs one striped operation fan-out. */
    sim::Task<bool> run(uint64_t offset, uint64_t len,
                        sim::MemorySpace *mem, sim::Addr addr,
                        bool is_write);

    std::vector<Volume *> children_;
    uint64_t stripe_unit_;
    uint64_t capacity_;
};

/** RAID-1: writes go everywhere, reads round-robin. */
class MirrorVolume : public Volume
{
  public:
    explicit MirrorVolume(std::vector<Volume *> children);

    uint64_t capacity() const override { return capacity_; }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    /** True when *any* replica holds damage in the range: the mirror
     *  cannot know which replica a read will hit. */
    bool corrupt(uint64_t offset, uint64_t len) const override;

  private:
    std::vector<Volume *> children_;
    uint64_t capacity_;
    size_t next_read_ = 0;
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_VOLUME_HH
