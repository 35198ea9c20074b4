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
#include <map>
#include <optional>

#include "sim/stats.hh"
#include "sim/types.hh"
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
        if (batched_)
            ++regions_[reg->region].allocated;
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
        auto it = regions_.find(region);
        if (it == regions_.end())
            return 0; // already flushed (stale handle)
        ++it->second.released;
        if (it->second.allocated >= registry_.regionEntries() &&
            it->second.released >= it->second.allocated) {
            const auto result = registry_.deregisterRegion(region);
            regions_.erase(it);
            return result.cost;
        }
        return 0;
    }

    /** Deregisters all fully-released regions (capacity pressure). */
    sim::Tick
    flushReleased()
    {
        sim::Tick cost = 0;
        for (auto it = regions_.begin(); it != regions_.end();) {
            if (it->second.released >= it->second.allocated &&
                it->second.allocated > 0) {
                cost += registry_.deregisterRegion(it->first).cost;
                it = regions_.erase(it);
            } else {
                ++it;
            }
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
    std::map<uint32_t, RegionState> regions_;
    sim::Counter forced_flushes_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_REG_CACHE_HH
