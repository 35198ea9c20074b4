#include "volume.hh"

#include <algorithm>
#include <cassert>

namespace v3sim::disk
{

sim::Task<bool>
SingleDiskVolume::read(uint64_t offset, uint64_t len,
                       sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset + len > capacity())
        co_return false;
    co_await disk_.read(offset, len);
    co_return disk_.store().readInto(offset, len, mem, addr);
}

sim::Task<bool>
SingleDiskVolume::write(uint64_t offset, uint64_t len,
                        const sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset + len > capacity())
        co_return false;
    co_await disk_.write(offset, len);
    // commitWrite rather than store().writeFrom: the disk applies the
    // torn-write fault (if armed) at the moment data hits the platter.
    co_return disk_.commitWrite(offset, len, mem, addr);
}

ConcatVolume::ConcatVolume(std::vector<Volume *> children)
    : children_(std::move(children)), capacity_(0)
{
    assert(!children_.empty());
    for (Volume *child : children_) {
        starts_.push_back(capacity_);
        capacity_ += child->capacity();
    }
}

std::pair<size_t, uint64_t>
ConcatVolume::locate(uint64_t offset) const
{
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), offset);
    const size_t index =
        static_cast<size_t>(it - starts_.begin()) - 1;
    return {index, offset - starts_[index]};
}

sim::Task<bool>
ConcatVolume::read(uint64_t offset, uint64_t len, sim::MemorySpace &mem,
                   sim::Addr addr)
{
    if (offset + len > capacity_)
        co_return false;
    bool ok = true;
    uint64_t done = 0;
    while (done < len) {
        const auto [index, child_off] = locate(offset + done);
        const uint64_t chunk =
            std::min(len - done,
                     children_[index]->capacity() - child_off);
        if (!co_await children_[index]->read(child_off, chunk, mem,
                                             addr + done)) {
            ok = false;
        }
        done += chunk;
    }
    co_return ok;
}

sim::Task<bool>
ConcatVolume::write(uint64_t offset, uint64_t len,
                    const sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset + len > capacity_)
        co_return false;
    bool ok = true;
    uint64_t done = 0;
    while (done < len) {
        const auto [index, child_off] = locate(offset + done);
        const uint64_t chunk =
            std::min(len - done,
                     children_[index]->capacity() - child_off);
        if (!co_await children_[index]->write(child_off, chunk, mem,
                                              addr + done)) {
            ok = false;
        }
        done += chunk;
    }
    co_return ok;
}

bool
ConcatVolume::corrupt(uint64_t offset, uint64_t len) const
{
    if (offset + len > capacity_)
        return false;
    uint64_t done = 0;
    while (done < len) {
        const auto [index, child_off] = locate(offset + done);
        const uint64_t chunk =
            std::min(len - done,
                     children_[index]->capacity() - child_off);
        if (children_[index]->corrupt(child_off, chunk))
            return true;
        done += chunk;
    }
    return false;
}

namespace
{

uint64_t
smallestChild(const std::vector<Volume *> &children)
{
    uint64_t min_child = UINT64_MAX;
    for (const Volume *child : children)
        min_child = std::min(min_child, child->capacity());
    return min_child;
}

} // namespace

StripeVolume::StripeVolume(std::vector<Volume *> children,
                           uint64_t stripe_unit)
    : children_(std::move(children)), stripe_unit_(stripe_unit)
{
    assert(!children_.empty());
    assert(stripe_unit_ > 0);
    // Whole stripes only.
    const uint64_t stripes = smallestChild(children_) / stripe_unit_;
    capacity_ = stripes * stripe_unit_ * children_.size();
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
    // chunks on different children proceed in parallel.
    uint64_t done = 0;
    while (done < len) {
        const uint64_t pos = offset + done;
        const uint64_t stripe_index = pos / stripe_unit_;
        const uint64_t within = pos % stripe_unit_;
        const size_t child =
            static_cast<size_t>(stripe_index % children_.size());
        const uint64_t child_off =
            (stripe_index / children_.size()) * stripe_unit_ + within;
        const uint64_t chunk =
            std::min(len - done, stripe_unit_ - within);

        group.add();
        sim::spawn([](Volume *target, uint64_t off, uint64_t n,
                      sim::MemorySpace *space, sim::Addr a,
                      bool write_op, sim::WaitGroup &g,
                      bool &ok) -> sim::Task<> {
            const bool result =
                write_op ? co_await target->write(off, n, *space, a)
                         : co_await target->read(off, n, *space, a);
            if (!result)
                ok = false;
            g.done();
        }(children_[child], child_off, chunk, mem, addr + done,
          is_write, group, all_ok));

        done += chunk;
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
        const uint64_t pos = offset + done;
        const uint64_t stripe_index = pos / stripe_unit_;
        const uint64_t within = pos % stripe_unit_;
        const size_t child =
            static_cast<size_t>(stripe_index % children_.size());
        const uint64_t child_off =
            (stripe_index / children_.size()) * stripe_unit_ + within;
        const uint64_t chunk =
            std::min(len - done, stripe_unit_ - within);
        if (children_[child]->corrupt(child_off, chunk))
            return true;
        done += chunk;
    }
    return false;
}

MirrorVolume::MirrorVolume(std::vector<Volume *> children)
    : children_(std::move(children)),
      capacity_(smallestChild(children_))
{
    assert(!children_.empty());
}

sim::Task<bool>
MirrorVolume::read(uint64_t offset, uint64_t len, sim::MemorySpace &mem,
                   sim::Addr addr)
{
    // Round-robin across replicas to spread the read load.
    const size_t child = next_read_;
    next_read_ = (next_read_ + 1) % children_.size();
    return children_[child]->read(offset, len, mem, addr);
}

sim::Task<bool>
MirrorVolume::write(uint64_t offset, uint64_t len,
                    const sim::MemorySpace &mem, sim::Addr addr)
{
    sim::WaitGroup group;
    bool all_ok = true;
    for (Volume *child : children_) {
        group.add();
        sim::spawn([](Volume *target, uint64_t off, uint64_t n,
                      const sim::MemorySpace &space, sim::Addr a,
                      sim::WaitGroup &g, bool &ok) -> sim::Task<> {
            if (!co_await target->write(off, n, space, a))
                ok = false;
            g.done();
        }(child, offset, len, mem, addr, group, all_ok));
    }
    co_await group.wait();
    co_return all_ok;
}

bool
MirrorVolume::corrupt(uint64_t offset, uint64_t len) const
{
    for (const Volume *child : children_) {
        if (child->corrupt(offset, len))
            return true;
    }
    return false;
}

} // namespace v3sim::disk
