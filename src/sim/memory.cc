#include "memory.hh"

#include <cstring>
#include <new>

namespace v3sim::sim
{

ZeroedBytes
allocateZeroed(uint64_t len)
{
    ZeroedBytes bytes(static_cast<uint8_t *>(std::calloc(len, 1)));
    if (!bytes)
        throw std::bad_alloc();
    return bytes;
}

MemorySpace::MemorySpace(bool phantom, std::string name)
    : phantom_(phantom), name_(std::move(name))
{}

Addr
MemorySpace::allocate(uint64_t len)
{
    if (len == 0)
        return kNullAddr;
    const Addr base = next_;
    // Bump by a page-rounded size so allocations never share pages.
    const uint64_t rounded =
        (len + kPageSize - 1) / kPageSize * kPageSize;
    next_ += rounded;
    Block block;
    block.len = len;
    if (!phantom_)
        block.bytes = allocateZeroed(len);
    blocks_.insert(base, std::move(block));
    allocated_bytes_ += len;
    return base;
}

void
MemorySpace::free(Addr base)
{
    const Block *block = blocks_.find(base);
    if (block == nullptr)
        return;
    allocated_bytes_ -= block->len;
    blocks_.erase(base);
}

const MemorySpace::Block *
MemorySpace::findBlock(Addr addr, uint64_t len, Addr *base) const
{
    if (addr == kNullAddr)
        return nullptr;
    const auto *item = blocks_.floor(addr);
    if (item == nullptr)
        return nullptr;
    const Addr block_base = item->key;
    const Block &block = item->value;
    if (addr < block_base || addr - block_base > block.len ||
        len > block.len - (addr - block_base)) {
        return nullptr;
    }
    if (base)
        *base = block_base;
    return &block;
}

bool
MemorySpace::contains(Addr addr, uint64_t len) const
{
    return findBlock(addr, len, nullptr) != nullptr;
}

bool
MemorySpace::write(Addr addr, const void *src, uint64_t len)
{
    Addr base;
    const Block *block = findBlock(addr, len, &base);
    if (!block)
        return false;
    if (!phantom_ && len > 0)
        std::memcpy(block->bytes.get() + (addr - base), src, len);
    return true;
}

bool
MemorySpace::read(Addr addr, void *dst, uint64_t len) const
{
    Addr base;
    const Block *block = findBlock(addr, len, &base);
    if (!block)
        return false;
    if (len == 0)
        return true;
    if (phantom_)
        std::memset(dst, 0, len);
    else
        std::memcpy(dst, block->bytes.get() + (addr - base), len);
    return true;
}

const uint8_t *
MemorySpace::bytesAt(Addr addr, uint64_t len) const
{
    Addr base = kNullAddr;
    const Block *block = findBlock(addr, len, &base);
    if (!block || phantom_)
        return nullptr;
    return block->bytes.get() + (addr - base);
}

bool
MemorySpace::fill(Addr addr, uint8_t value, uint64_t len)
{
    Addr base;
    const Block *block = findBlock(addr, len, &base);
    if (!block)
        return false;
    if (!phantom_ && len > 0)
        std::memset(block->bytes.get() + (addr - base), value, len);
    return true;
}

bool
MemorySpace::copy(const MemorySpace &src, Addr src_addr,
                  MemorySpace &dst, Addr dst_addr, uint64_t len)
{
    Addr src_base = kNullAddr;
    Addr dst_base = kNullAddr;
    const Block *from = src.findBlock(src_addr, len, &src_base);
    const Block *to = dst.findBlock(dst_addr, len, &dst_base);
    if (!from || !to)
        return false;
    if (len == 0 || dst.phantom_)
        return true;
    uint8_t *out = to->bytes.get() + (dst_addr - dst_base);
    if (src.phantom_)
        std::memset(out, 0, len);
    else // memmove: both ranges may lie in one allocation
        std::memmove(out, from->bytes.get() + (src_addr - src_base), len);
    return true;
}

uint64_t
MemorySpace::readU64(Addr addr) const
{
    uint64_t value = 0;
    read(addr, &value, sizeof(value));
    return value;
}

bool
MemorySpace::writeU64(Addr addr, uint64_t value)
{
    return write(addr, &value, sizeof(value));
}

} // namespace v3sim::sim
