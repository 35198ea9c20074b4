/**
 * @file
 * The NIC address-translation table: VI memory registration.
 *
 * Models what section 3.1 of the paper fights with:
 *  - registering a buffer pins its pages (unless already pinned) and
 *    installs one translation-table entry — ~5 us for an 8 KB buffer;
 *  - the NIC bounds total registered memory (cLan: 1 GB);
 *  - consecutive registrations land in consecutive table slots, which
 *    is what makes *batched deregistration* possible: the table is
 *    divided into regions of `region_entries` consecutive slots
 *    (paper: 1000 entries = 4 MB of host memory) and one
 *    deregistration operation can free a whole region.
 *
 * The registry is mechanism only. Policy — when to deregister, per
 * I/O or batched — lives in dsa::RegCache. Costs are *returned* to
 * the caller, which charges them to the host CPU under the proper
 * accounting category; the registry itself never advances time.
 */

#ifndef V3SIM_VI_MEMORY_REGISTRY_HH
#define V3SIM_VI_MEMORY_REGISTRY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/memory.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "util/ordered_index.hh"
#include "vi/vi_costs.hh"
#include "vi/vi_types.hh"

namespace v3sim::vi
{

/** Result of a successful registration. */
struct RegResult
{
    MemHandle handle;
    /** Host CPU time the caller must charge for the operation. */
    sim::Tick cost = 0;
    /** Region (slot / region_entries) the new entry landed in. */
    uint32_t region = 0;
};

/** Result of a region deregistration. */
struct RegionDeregResult
{
    /** Host CPU time for the single batched table-remove (plus
     *  unpinning when the entries pinned their own pages). */
    sim::Tick cost = 0;
    /** Entries freed. */
    uint32_t entries_freed = 0;
};

/** One NIC's translation table. */
class MemoryRegistry
{
  public:
    /**
     * @param costs cost/limit model (capacity, per-op costs).
     * @param region_entries consecutive slots per batched region
     *        (paper default 1000).
     */
    explicit MemoryRegistry(const ViCosts &costs,
                            uint32_t region_entries = 1000);

    /** Retires the metrics registerMetrics() published. */
    ~MemoryRegistry();

    MemoryRegistry(const MemoryRegistry &) = delete;
    MemoryRegistry &operator=(const MemoryRegistry &) = delete;

    /**
     * Registers [addr, addr+len). Fails (nullopt) when the table is
     * out of entries or the byte capacity would be exceeded — the
     * caller must deregister something and retry.
     *
     * @param pre_pinned true when the pages are already pinned (AWE
     *        memory, or buffers pinned by the kernel I/O manager);
     *        skips pin cost.
     */
    std::optional<RegResult> registerMemory(sim::Addr addr,
                                            uint64_t len,
                                            bool pre_pinned);

    /**
     * Deregisters a single entry (the unbatched path).
     * @return the host cost, or nullopt if the handle is stale.
     */
    std::optional<sim::Tick> deregister(MemHandle handle);

    /**
     * Frees every in-use entry in @p region with one table operation
     * (batched deregistration). The caller asserts all I/O on those
     * buffers has completed.
     */
    RegionDeregResult deregisterRegion(uint32_t region);

    /** True if @p handle is live and covers [addr, addr+len). */
    bool covers(MemHandle handle, sim::Addr addr, uint64_t len) const;

    /** True if *some* live entry covers [addr, addr+len). Used by
     *  the NIC to validate incoming RDMA targets. */
    bool anyCovers(sim::Addr addr, uint64_t len) const;

    /** Region a handle's slot belongs to. */
    uint32_t regionOf(MemHandle handle) const;

    uint32_t regionEntries() const { return region_entries_; }
    uint64_t registeredBytes() const { return registered_bytes_; }
    uint32_t liveEntries() const { return live_entries_; }

    /** @name Statistics @{ */
    uint64_t registrationCount() const { return registrations_.value(); }
    uint64_t deregistrationCount() const
    {
        return deregistrations_.value();
    }
    uint64_t regionDeregCount() const { return region_deregs_.value(); }
    uint64_t failureCount() const { return failures_.value(); }
    uint64_t peakRegisteredBytes() const { return peak_bytes_; }
    /** @} */

    /**
     * Publishes this registry's stats under @p prefix (typically
     * "nic.<name>.mem_registry"). The registry keeps owning its
     * counters — it is constructed standalone in tests, without a
     * Simulation — so the metrics are gauges, plus an epoch hook
     * that resets the operation counters (live translation-table
     * state is untouched: registered buffers survive epochs).
     */
    void registerMetrics(sim::MetricRegistry &metrics,
                         const std::string &prefix);

  private:
    /** One translation-table entry. All-zero bytes are a free entry,
     *  so the table lives in zero pages (sim::allocateZeroed) and
     *  only the slots ever used cost resident memory. */
    struct Entry
    {
        uint64_t generation;
        sim::Addr addr;
        uint64_t len;
        /** Neighbours in the chain of live entries at the same base
         *  address; kNoSlot at either end. */
        uint32_t prev;
        uint32_t next;
        bool in_use;
        bool self_pinned; ///< pages were pinned by register
    };

    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /** Advances the cursor to a free slot; false if table full. */
    bool findFreeSlot(uint32_t *slot);

    void
    markSlotUsed(uint32_t slot)
    {
        free_bits_[slot / 64] &= ~(uint64_t(1) << (slot % 64));
    }

    void
    markSlotFree(uint32_t slot)
    {
        free_bits_[slot / 64] |= uint64_t(1) << (slot % 64);
    }

    /** Links @p slot's entry into its base address's chain. */
    void linkByAddr(uint32_t slot);

    /** Unlinks @p slot's entry from its base address's chain in O(1),
     *  dropping the base from the index when it was the last. */
    void unlinkByAddr(uint32_t slot);

    /** Frees @p slot's live entry; returns its deregistration cost
     *  before the table-remove charge (the unpinning, if any). */
    sim::Tick release(uint32_t slot);

    /** Stored by value: callers may pass temporaries. */
    ViCosts costs_;
    uint32_t region_entries_;
    uint32_t table_entries_;
    sim::ZeroedBytes table_bytes_;
    Entry *table_;
    /** One bit per slot, set = free. The allocation probe walks this
     *  8KB-per-64Ki-entries bitmap instead of sweeping the cold
     *  multi-MB entry table; selection order is identical to the
     *  plain linear scan. */
    std::vector<uint64_t> free_bits_;
    uint32_t cursor_ = 0;
    uint32_t live_entries_ = 0;
    uint64_t registered_bytes_ = 0;
    uint64_t peak_bytes_ = 0;
    uint64_t next_generation_ = 1;
    /** Live base addresses -> first slot of that base's chain, for
     *  O(log n) RDMA-target validation. The same buffer may carry
     *  many live registrations at once (wDSA registers per I/O;
     *  under batched deregistration a buffer is registered again per
     *  I/O until its region retires), and one deregistration must
     *  not invalidate the siblings still covering the address. */
    util::OrderedIndex<sim::Addr, uint32_t> chain_heads_;

    sim::Counter registrations_;
    sim::Counter deregistrations_;
    sim::Counter region_deregs_;
    sim::Counter failures_;
    /** Where registerMetrics() published; null until then. */
    sim::MetricRegistry *metrics_ = nullptr;
};

} // namespace v3sim::vi

#endif // V3SIM_VI_MEMORY_REGISTRY_HH
