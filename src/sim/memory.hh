/**
 * @file
 * Per-host memory space: the substrate RDMA and disk DMA move bytes
 * through.
 *
 * Each simulated host owns one MemorySpace. Allocations return stable
 * simulated addresses; reads and writes copy real bytes so
 * integration tests can check end-to-end data integrity through the
 * full client -> VI -> V3 -> disk path. Large workload runs (TPC-C)
 * construct the space in *phantom* mode: addresses and bounds
 * checking behave identically but no bytes are stored, keeping
 * memory use flat.
 *
 * Real allocations come from allocateZeroed (calloc), so large ones
 * are zero pages the OS fills in lazily: a 512 MiB server cache whose
 * frames are never touched costs neither set-up time nor resident
 * memory.
 *
 * Addresses are allocated from a simple bump allocator with
 * page-granular alignment; free() releases backing storage but never
 * reuses addresses, which makes dangling-handle bugs in higher
 * layers deterministic instead of silently aliasing.
 */

#ifndef V3SIM_SIM_MEMORY_HH
#define V3SIM_SIM_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/ordered_index.hh"

namespace v3sim::sim
{

/** Simulated physical address. */
using Addr = uint64_t;

constexpr Addr kNullAddr = 0;

/** Page size used for pinning cost accounting (x86 4 KB). */
constexpr uint64_t kPageSize = 4096;

/** Number of pages spanned by [addr, addr+len). */
constexpr uint64_t
pageSpan(Addr addr, uint64_t len)
{
    if (len == 0)
        return 0;
    const Addr first = addr / kPageSize;
    const Addr last = (addr + len - 1) / kPageSize;
    return last - first + 1;
}

/** Frees host bytes that came from calloc. */
struct FreeBytes
{
    void operator()(uint8_t *bytes) const { std::free(bytes); }
};

/** Host bytes from allocateZeroed. */
using ZeroedBytes = std::unique_ptr<uint8_t[], FreeBytes>;

/**
 * @p len zero bytes from calloc, so a large allocation is backed by
 * zero pages the OS fills in on first touch. Throws std::bad_alloc
 * when calloc fails.
 */
ZeroedBytes allocateZeroed(uint64_t len);

/** One host's memory: allocation plus byte-level access. */
class MemorySpace
{
  public:
    /**
     * @param phantom when true, no bytes are backed; reads return
     *        zeros and writes are discarded (bounds still checked).
     */
    explicit MemorySpace(bool phantom = false, std::string name = "");

    MemorySpace(const MemorySpace &) = delete;
    MemorySpace &operator=(const MemorySpace &) = delete;

    bool phantom() const { return phantom_; }
    const std::string &name() const { return name_; }

    /**
     * Allocates @p len bytes, page-aligned. Returns the base address
     * (never kNullAddr). Zero-length allocations are rejected with
     * kNullAddr.
     */
    Addr allocate(uint64_t len);

    /** Releases an allocation made by allocate(). Unknown base
     *  addresses are ignored (idempotent free). */
    void free(Addr base);

    /** True if [addr, addr+len) lies inside one live allocation. */
    bool contains(Addr addr, uint64_t len) const;

    /**
     * Copies @p len bytes from @p src into simulated memory.
     * @return false (and copies nothing) if the range is invalid.
     */
    bool write(Addr addr, const void *src, uint64_t len);

    /** Copies @p len bytes out of simulated memory into @p dst.
     *  Phantom spaces yield zeros. @return false on invalid range. */
    bool read(Addr addr, void *dst, uint64_t len) const;

    /**
     * Direct read access to [addr, addr+len): the host bytes backing
     * the range, or nullptr when the space is phantom or the range
     * does not lie inside one live allocation. The pointer stays
     * valid until that allocation is freed.
     */
    const uint8_t *bytesAt(Addr addr, uint64_t len) const;

    /** Fills a range with one byte value (test/pattern helper). */
    bool fill(Addr addr, uint8_t value, uint64_t len);

    /**
     * Copies between two spaces (the DMA primitive). Handles phantom
     * endpoints: phantom-to-real writes zeros, real-to-phantom
     * discards. @return false if either range is invalid.
     */
    static bool copy(const MemorySpace &src, Addr src_addr,
                     MemorySpace &dst, Addr dst_addr, uint64_t len);

    /** Reads an 8-byte little-endian flag (completion-flag helper). */
    uint64_t readU64(Addr addr) const;

    /** Writes an 8-byte little-endian flag. */
    bool writeU64(Addr addr, uint64_t value);

    /** Total bytes currently allocated (live allocations). */
    uint64_t allocatedBytes() const { return allocated_bytes_; }

    /** Number of live allocations. */
    size_t allocationCount() const { return blocks_.size(); }

  private:
    struct Block
    {
        uint64_t len;
        ZeroedBytes bytes; // null in phantom mode
    };

    /** Finds the block containing [addr, addr+len); nullptr if none. */
    const Block *findBlock(Addr addr, uint64_t len, Addr *base) const;

    bool phantom_;
    std::string name_;
    Addr next_ = kPageSize; // keep kNullAddr unused
    /** Live allocations by base address. */
    util::OrderedIndex<Addr, Block> blocks_;
    uint64_t allocated_bytes_ = 0;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_MEMORY_HH
