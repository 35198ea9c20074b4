/**
 * @file
 * Application-facing block-device abstraction.
 *
 * Database code (and the micro-benchmarks) issue block I/O through
 * this interface; the concrete device is one of the three DSA
 * implementations over a V3 server, the local-disk baseline, or a
 * composition across several V3 nodes: StripedDevice (RAID-0, the
 * multi-node configurations of Tables 1/2 attach one NIC per
 * storage node) and MirroredDevice (RAID-1 with failover and
 * resync), stackable into RAID-10.
 *
 * Calls are coroutines invoked from application workers that hold no
 * CPU lease: the device models the full issue/completion path,
 * including every CPU acquisition the real stack would make.
 */

#ifndef V3SIM_DSA_BLOCK_DEVICE_HH
#define V3SIM_DSA_BLOCK_DEVICE_HH

#include <cstdint>
#include <vector>

#include "sim/memory.hh"
#include "sim/task.hh"
#include "util/stripe.hh"

namespace v3sim::dsa
{

/** Async block I/O endpoint as seen by the application. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    /**
     * Reads [offset, offset+len) into the caller's buffer at
     * @p buffer. Resolves true when the data is in memory and the
     * request fully completed.
     */
    virtual sim::Task<bool> read(uint64_t offset, uint64_t len,
                                 sim::Addr buffer) = 0;

    /** Writes the caller's buffer to [offset, offset+len); resolves
     *  true once durable at the storage back-end. */
    virtual sim::Task<bool> write(uint64_t offset, uint64_t len,
                                  sim::Addr buffer) = 0;

    /** @name Tenant-tagged I/O (open-loop multiplexing)
     * As read/write above, but stamps the request with the issuing
     * tenant id so the server's admission gate can fair-queue by
     * tenant (DESIGN.md §12). Devices that do not plumb the tag
     * (local disk, mirrors) drop it; a shed request (IoStatus::Busy)
     * surfaces as `false` here, like any other failed I/O.
     * @{ */
    virtual sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer,
         uint64_t tenant)
    {
        (void)tenant;
        return read(offset, len, buffer);
    }

    virtual sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer,
          uint64_t tenant)
    {
        (void)tenant;
        return write(offset, len, buffer);
    }
    /** @} */

    /** Device size in bytes. */
    virtual uint64_t capacity() const = 0;
};

/**
 * Block-granular striping across several devices — how a database
 * volume spans multiple V3 nodes (section 2.1: "V3 volumes can span
 * multiple V3 nodes").
 */
class StripedDevice : public BlockDevice
{
  public:
    StripedDevice(std::vector<BlockDevice *> children,
                  uint64_t stripe_unit)
        : children_(std::move(children)), stripe_unit_(stripe_unit)
    {}

    uint64_t
    capacity() const override
    {
        uint64_t min_cap = UINT64_MAX;
        for (const BlockDevice *child : children_)
            min_cap = std::min(min_cap, child->capacity());
        return util::stripeCapacity(min_cap, stripe_unit_,
                                    children_.size());
    }

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return run(offset, len, buffer, false, 0);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return run(offset, len, buffer, true, 0);
    }

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer,
         uint64_t tenant) override
    {
        return run(offset, len, buffer, false, tenant);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer,
          uint64_t tenant) override
    {
        return run(offset, len, buffer, true, tenant);
    }

  private:
    sim::Task<bool>
    run(uint64_t offset, uint64_t len, sim::Addr buffer, bool is_write,
        uint64_t tenant)
    {
        if (offset + len > capacity())
            co_return false;
        sim::WaitGroup group;
        bool all_ok = true;
        uint64_t done = 0;
        while (done < len) {
            const util::StripeChunk chunk = util::stripeChunk(
                offset + done, len - done, stripe_unit_,
                children_.size());

            group.add();
            sim::spawn([](BlockDevice *device, uint64_t off,
                          uint64_t n, sim::Addr buf, bool write_op,
                          uint64_t who, sim::WaitGroup &g,
                          bool &ok) -> sim::Task<> {
                const bool result =
                    write_op
                        ? co_await device->write(off, n, buf, who)
                        : co_await device->read(off, n, buf, who);
                if (!result)
                    ok = false;
                g.done();
            }(children_[chunk.child], chunk.child_offset, chunk.len,
              buffer + done, is_write, tenant, group, all_ok));
            done += chunk.len;
        }
        co_await group.wait();
        co_return all_ok;
    }

    std::vector<BlockDevice *> children_;
    uint64_t stripe_unit_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_BLOCK_DEVICE_HH
