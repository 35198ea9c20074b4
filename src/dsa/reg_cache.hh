/**
 * @file
 * Client-side registration policy: per-I/O vs batched deregistration.
 *
 * Section 3.1: pre-registering everything is impossible (database
 * caches exceed the NIC's 1 GB limit), so DSA registers each I/O
 * buffer dynamically and optimizes *deregistration*: the NIC table
 * is divided into regions of 1000 consecutive entries (4 MB of host
 * memory) and a region is deregistered with one operation once every
 * buffer in it has completed — "one deregistration every one
 * thousand I/O operations".
 *
 * This class is policy over vi::MemoryRegistry's mechanism. Costs
 * are returned for the caller to charge (CpuCat::Vi).
 */

#ifndef V3SIM_DSA_REG_CACHE_HH
#define V3SIM_DSA_REG_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "util/ordered_index.hh"
#include "vi/memory_registry.hh"

namespace v3sim::dsa
{

/** Registration policy wrapper for one client NIC. */
class RegCache
{
  public:
    /**
     * @param pre_pinned whether buffers arrive already pinned (kDSA:
     *        the I/O manager pinned them; cDSA: AWE memory).
     * @param batched enables region-batched deregistration.
     */
    RegCache(vi::MemoryRegistry &registry, bool pre_pinned,
             bool batched)
        : registry_(registry),
          pre_pinned_(pre_pinned),
          batched_(batched)
    {}

    RegCache(const RegCache &) = delete;
    RegCache &operator=(const RegCache &) = delete;

    struct Result
    {
        vi::MemHandle handle;
        /** Host CPU time to charge (CpuCat::Vi). */
        sim::Tick cost = 0;
    };

    /**
     * Registers an I/O buffer. On NIC-capacity failure, flushes every
     * fully-released batched region and retries once.
     * @return nullopt only if the NIC is still out of resources.
     */
    std::optional<Result>
    acquire(sim::Addr addr, uint64_t len)
    {
        auto reg = registry_.registerMemory(addr, len, pre_pinned_);
        if (!reg.has_value()) {
            forced_flushes_.increment();
            const sim::Tick flush_cost = flushReleased();
            reg = registry_.registerMemory(addr, len, pre_pinned_);
            if (!reg.has_value())
                return std::nullopt;
            reg->cost += flush_cost;
        }
        if (batched_) {
            RegionState *state = regions_.find(reg->region);
            if (state == nullptr)
                state = &regions_.insert(reg->region, RegionState{});
            ++state->allocated;
        }
        return Result{reg->handle, reg->cost};
    }

    /**
     * Releases an I/O buffer after completion. Unbatched: immediate
     * deregistration. Batched: bookkeeping only, until the buffer's
     * region is fully allocated and fully released — then one region
     * deregistration covers all of it.
     * @return host CPU time to charge (often 0 in batched mode).
     */
    sim::Tick
    release(vi::MemHandle handle)
    {
        if (!batched_) {
            auto cost = registry_.deregister(handle);
            return cost.value_or(0);
        }
        const uint32_t region = registry_.regionOf(handle);
        RegionState *state = regions_.find(region);
        if (state == nullptr)
            return 0; // already flushed (stale handle)
        ++state->released;
        if (state->allocated >= registry_.regionEntries() &&
            state->released >= state->allocated) {
            const auto result = registry_.deregisterRegion(region);
            regions_.erase(region);
            return result.cost;
        }
        return 0;
    }

    /** Deregisters all fully-released regions (capacity pressure). */
    sim::Tick
    flushReleased()
    {
        std::vector<uint32_t> flushed;
        regions_.forEach([&flushed](const auto &item) {
            const RegionState &state = item.value;
            if (state.released >= state.allocated && state.allocated > 0)
                flushed.push_back(item.key);
        });
        sim::Tick cost = 0;
        for (const uint32_t region : flushed) {
            cost += registry_.deregisterRegion(region).cost;
            regions_.erase(region);
        }
        return cost;
    }

    bool prePinned() const { return pre_pinned_; }
    uint64_t forcedFlushCount() const { return forced_flushes_.value(); }

  private:
    struct RegionState
    {
        uint32_t allocated = 0;
        uint32_t released = 0;
    };

    vi::MemoryRegistry &registry_;
    bool pre_pinned_;
    bool batched_;
    /// Ordered by region id: flushReleased() iterates (and charges
    /// deregistration costs) in a deterministic order.
    util::OrderedIndex<uint32_t, RegionState> regions_;
    sim::Counter forced_flushes_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_REG_CACHE_HH
