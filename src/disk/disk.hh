/**
 * @file
 * One physical disk: mechanism timing, command queue, and data store.
 *
 * The disk serves one command at a time. Queued commands are ordered
 * C-LOOK (elevator); service time comes from the DiskSpec's
 * seek/rotation/transfer model with the head position tracked across
 * commands, so sequential streams (the database log) are naturally
 * fast and random OLTP I/O is naturally ~5-10 ms.
 *
 * Data is really stored (a sparse store of 4 KiB pages) unless the
 * attached store is phantom, enabling end-to-end integrity tests
 * through client -> VI -> V3 cache -> disk and back.
 */

#ifndef V3SIM_DISK_DISK_HH
#define V3SIM_DISK_DISK_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "disk/disk_spec.hh"
#include "sim/memory.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "util/flat_map.hh"
#include "vi/fault_targets.hh"

namespace v3sim::disk
{

/**
 * Sparse data store backing one disk. Content lives in 4 KiB pages,
 * materialized on first write and carved in order from lazily zeroed
 * chunks; corruption marks stay per sector. Accesses are sector
 * granular.
 */
class DiskStore
{
  public:
    static constexpr uint64_t kSectorSize = 512;

    explicit DiskStore(bool phantom) : phantom_(phantom) {}

    bool phantom() const { return phantom_; }

    /** Copies [offset, offset+len) of disk content into host memory.
     *  Unwritten sectors read as zeros. Requires sector alignment. */
    bool readInto(uint64_t offset, uint64_t len,
                  sim::MemorySpace &mem, sim::Addr addr) const;

    /** Copies host memory into [offset, offset+len) of disk content.
     *  Requires sector alignment. Overwriting a sector clears any
     *  corruption mark on it (fresh data is good data). */
    bool writeFrom(uint64_t offset, uint64_t len,
                   const sim::MemorySpace &mem, sim::Addr addr);

    /**
     * Fault injection: silently damages every sector overlapping
     * [offset, offset+len). Real sectors get a byte flipped so reads
     * return genuinely different data; phantom stores track the mark
     * alone. Works on unwritten sectors too (they read back nonzero).
     */
    void markCorrupt(uint64_t offset, uint64_t len);

    /** True when any sector overlapping [offset, offset+len) carries
     *  a corruption mark. This is the *oracle* view — real software
     *  only learns it by checksumming what readInto returns. */
    bool rangeCorrupt(uint64_t offset, uint64_t len) const;

    /** Sectors currently marked corrupt (oracle view). */
    size_t corruptSectorCount() const { return corrupt_sectors_.size(); }

  private:
    /** Page @p index, zero-filled on first use. */
    uint8_t *writablePage(uint64_t index);

    bool phantom_;
    /** Page index -> its bytes inside one of chunks_. */
    util::FlatMap<uint64_t, uint8_t *, std::hash<uint64_t>> pages_;
    std::vector<sim::ZeroedBytes> chunks_;
    /** Pages of chunks_.back() already handed out. */
    uint64_t chunk_pages_used_ = 0;
    /** Sector indices damaged by markCorrupt and not yet rewritten. */
    std::unordered_set<uint64_t> corrupt_sectors_;
};

/** One spindle with its command queue. Implements the injector's
 *  media-fault interface: latent sector errors and torn writes. */
class Disk : public vi::MediaFaultTarget
{
  public:
    Disk(sim::Simulation &sim, DiskSpec spec, sim::Rng rng,
         std::string name = "disk", bool phantom_store = false);

    /** Retires the disk's gauges and epoch hook. */
    ~Disk() override { sim_.metrics().retire(this); }

    Disk(const Disk &) = delete;
    Disk &operator=(const Disk &) = delete;

    const DiskSpec &spec() const { return spec_; }
    const std::string &name() const { return name_; }
    DiskStore &store() { return store_; }
    const DiskStore &store() const { return store_; }

    /**
     * Awaitable command, from read() or write(): queued when awaited,
     * it resumes the awaiter when the mechanism finishes. Mechanism
     * timing only: data movement (if any) is the caller's business
     * via store() or commitWrite().
     */
    struct Access
    {
        Disk *disk;
        uint64_t offset;
        uint64_t len;
        bool is_write;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            disk->submit(offset, len, is_write, h);
        }

        void await_resume() const {}
    };

    Access read(uint64_t offset, uint64_t len)
    {
        return {this, offset, len, false};
    }

    Access write(uint64_t offset, uint64_t len)
    {
        return {this, offset, len, true};
    }

    /**
     * Commits data to the store after the mechanism finished — the
     * data half of a volume write. Equivalent to store().writeFrom
     * except that the torn-write fault (if armed) may leave the tail
     * sectors of the range corrupt, exactly as a power cut between
     * platter sectors would.
     */
    bool commitWrite(uint64_t offset, uint64_t len,
                     const sim::MemorySpace &mem, sim::Addr addr);

    /** @name vi::MediaFaultTarget @{ */
    void injectLatentError(uint64_t offset, uint64_t len) override;
    void setTornWriteRate(double p) override;
    /** @} */

    /** @name Statistics @{ */
    uint64_t completedCount() const { return completed_.value(); }
    const sim::Sampler &serviceStats() const { return service_stats_.raw(); }
    const sim::Sampler &latencyStats() const { return latency_stats_.raw(); }
    uint64_t latentErrorCount() const { return latent_errors_.value(); }
    uint64_t tornWriteCount() const { return torn_writes_.value(); }
    double utilization() const;
    /** @} */

  private:
    struct Command
    {
        uint64_t offset;
        uint64_t len;
        bool is_write;
        sim::Tick enqueued;
        std::coroutine_handle<> waiter;
    };

    /** Queues a command; @p waiter resumes when it finishes. */
    void submit(uint64_t offset, uint64_t len, bool is_write,
                std::coroutine_handle<> waiter);

    /** Deterministic order for same-priority commands (arrival tick,
     *  then offset/shape — never queue position, which same-tick
     *  races make unspecified). */
    static bool commandBefore(const Command &a, const Command &b);

    /** Picks the next command index (C-LOOK). */
    size_t pickNext();

    /** Schedules a zero-delay service-start pop (coalesced), so every
     *  same-tick arrival is queued before the pick. */
    void scheduleStart();

    void startNext();
    sim::Tick serviceTime(const Command &cmd);

    sim::Simulation &sim_;
    DiskSpec spec_;
    sim::Rng rng_; ///< mechanism timing only — never faults
    std::string name_;
    DiskStore store_;

    double torn_write_rate_ = 0.0;
    /** Forked lazily on the first setTornWriteRate(>0): the timing
     *  stream above must stay untouched and an unarmed disk must not
     *  consume an RNG stream, or arming faults anywhere would perturb
     *  every fault-free run. */
    std::optional<sim::Rng> torn_rng_;

    std::deque<Command> queue_;
    bool busy_ = false;
    bool start_scheduled_ = false;
    uint64_t head_pos_ = 0; ///< byte offset of the head

    /// Registry path prefix ("disk.<name>", uniquified); must precede
    /// the metric references so it is initialised first.
    std::string metric_prefix_;

    sim::CounterHandle completed_;
    sim::SamplerHandle service_stats_; ///< mechanism time per command (ns)
    sim::SamplerHandle latency_stats_; ///< queue wait + service (ns)
    sim::CounterHandle latent_errors_; ///< injected latent sector errors
    sim::CounterHandle torn_writes_;   ///< writes the torn fault damaged
    sim::TimeWeighted busy_integral_;
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_DISK_HH
