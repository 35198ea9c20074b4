#include "volume.hh"

#include <cassert>

#include "util/stripe.hh"

namespace v3sim::disk
{

StripeVolume::StripeVolume(sim::Simulation &sim, const DiskSpec &spec,
                           int count, const std::string &name_prefix,
                           bool phantom, uint64_t stripe_unit)
    : stripe_unit_(stripe_unit),
      capacity_(util::stripeCapacity(spec.capacity_bytes, stripe_unit,
                                     static_cast<size_t>(count)))
{
    assert(count > 0);
    assert(stripe_unit_ > 0);
    for (int i = 0; i < count; ++i) {
        disks_.push_back(std::make_unique<Disk>(
            sim, spec, sim.forkRng(), name_prefix + std::to_string(i),
            phantom));
    }
}

sim::Task<bool>
StripeVolume::run(uint64_t offset, uint64_t len, sim::MemorySpace *mem,
                  sim::Addr addr, bool is_write)
{
    if (offset + len > capacity_)
        co_return false;

    sim::WaitGroup group;
    bool all_ok = true;

    // Split into per-stripe-unit chunks and issue them all at once;
    // chunks on different disks proceed in parallel.
    uint64_t done = 0;
    while (done < len) {
        const util::StripeChunk chunk = util::stripeChunk(
            offset + done, len - done, stripe_unit_, disks_.size());

        group.add();
        sim::spawn([](Disk *disk, uint64_t off, uint64_t n,
                      sim::MemorySpace *space, sim::Addr a,
                      bool write_op, sim::WaitGroup &g,
                      bool &ok) -> sim::Task<> {
            bool result = false;
            if (write_op) {
                co_await disk->write(off, n);
                // commitWrite rather than store().writeFrom: the disk
                // applies the torn-write fault (if armed) at the
                // moment data hits the platter.
                result = disk->commitWrite(off, n, *space, a);
            } else {
                co_await disk->read(off, n);
                result = disk->store().readInto(off, n, *space, a);
            }
            if (!result)
                ok = false;
            g.done();
        }(disks_[chunk.child].get(), chunk.child_offset, chunk.len, mem,
          addr + done, is_write, group, all_ok));

        done += chunk.len;
    }

    co_await group.wait();
    co_return all_ok;
}

sim::Task<bool>
StripeVolume::read(uint64_t offset, uint64_t len, sim::MemorySpace &mem,
                   sim::Addr addr)
{
    return run(offset, len, &mem, addr, false);
}

sim::Task<bool>
StripeVolume::write(uint64_t offset, uint64_t len,
                    const sim::MemorySpace &mem, sim::Addr addr)
{
    // The const_cast is confined here: write paths only read from
    // @p mem, but the shared fan-out helper uses one pointer type.
    return run(offset, len, const_cast<sim::MemorySpace *>(&mem), addr,
               true);
}

bool
StripeVolume::corrupt(uint64_t offset, uint64_t len) const
{
    if (offset + len > capacity_)
        return false;
    uint64_t done = 0;
    while (done < len) {
        const util::StripeChunk chunk = util::stripeChunk(
            offset + done, len - done, stripe_unit_, disks_.size());
        if (disks_[chunk.child]->store().rangeCorrupt(chunk.child_offset,
                                                      chunk.len))
            return true;
        done += chunk.len;
    }
    return false;
}

} // namespace v3sim::disk
