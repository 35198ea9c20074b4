/**
 * @file
 * The storage node's block path: the cache, volume and disks behind
 * the request manager (Figure 1 of the paper), with the in-flight
 * state that keeps the cache coherent while requests interleave:
 * miss coalescing, fill-then-expose, verify-on-read and the
 * stale-fill guard (DESIGN.md §6d). storage::V3Server and
 * iscsi::Target both run their data through it and keep only their
 * transport.
 */

#ifndef V3SIM_STORAGE_BLOCK_PATH_HH
#define V3SIM_STORAGE_BLOCK_PATH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "disk/disk.hh"
#include "disk/volume.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/block_cache.hh"
#include "storage/mq_cache.hh"
#include "util/flat_map.hh"
#include "util/units.hh"

namespace v3sim::storage
{

/** Cache replacement policy selector. */
enum class CachePolicy : uint8_t
{
    Lru,
    Mq,
};

/** Geometry and request-manager CPU costs of one storage node's
 *  block path; V3ServerConfig and iscsi::TargetConfig extend it. */
struct BlockPathConfig
{
    /** @name The node's disks: disk_count spindles of disk_spec,
     *  named "<node>.d.<i>", striped in stripe_unit units into the
     *  node's one volume (id 0). The defaults are Table 2's mid-size
     *  node. @{ */
    disk::DiskSpec disk_spec = disk::DiskSpec::scsi10k();
    int disk_count = 15;
    uint64_t stripe_unit = 64 * util::kKiB;
    /** @} */

    /** Cache block size (the paper's experiments fix this at 8 KB). */
    static constexpr uint64_t block_size = 8192;

    /** Cache capacity in bytes; 0 disables caching entirely (the
     *  Figure 7/8 configuration: "the V3 server cache size is set to
     *  zero and all V3 I/O requests are serviced from disks"). */
    uint64_t cache_bytes = 256ull * 1024 * 1024;

    CachePolicy cache_policy = CachePolicy::Mq;

    /** @name CPU costs, charged on the node's CPUs @{ */
    static constexpr sim::Tick cache_op_cost = sim::usecs(1.5);
    static constexpr sim::Tick disk_sched_cost = sim::usecs(3.0);
    /** Per-KB cost of copies into cache frames. */
    static constexpr sim::Tick memcpy_per_kb = sim::usecs(0.12);
    /** @} */
};

/** Outcome of a read's disk leg. */
enum class ReadStatus : uint8_t
{
    Ok,
    DiskError,
    /** Verify-on-read found the data damaged on the platter. */
    IntegrityError,
};

/** One storage node's cache/volume/disk pipeline. */
class BlockPath
{
  public:
    /** One contiguous piece of a read's data; a read's pieces tile
     *  the requested range in order. */
    struct Piece
    {
        sim::Addr addr = sim::kNullAddr;
        uint64_t len = 0;
        /** addr lies in a frame pinned for key; otherwise in the
         *  read's transients[transient]. */
        bool pinned = false;
        CacheKey key;
        size_t transient = 0;
    };

    /** What a read gathered; hand it back to release(). */
    struct ReadResult
    {
        ReadStatus status = ReadStatus::Ok;
        std::vector<Piece> pieces;
        std::vector<sim::Addr> transients;
    };

    /** Runs once per transient buffer, in ReadResult::transients
     *  order, the moment a read commits to serving data from it and
     *  before any further CPU charge: where V3 registers it with its
     *  NIC. */
    using TransientHook = std::function<void(sim::Addr, uint64_t)>;

    /** Builds the volume and its disks ("<node>.d.<i>", phantom
     *  exactly when the node's memory is phantom), and registers
     *  integrity_verify_failures and the cache's metrics (".cache.*")
     *  under the front end's @p metric_prefix. */
    BlockPath(sim::Simulation &sim, osmodel::Node &node,
              const std::string &metric_prefix,
              const BlockPathConfig &config);

    BlockPath(const BlockPath &) = delete;
    BlockPath &operator=(const BlockPath &) = delete;

    /** The node's one volume; every cache key names it as volume 0. */
    disk::StripeVolume &volume() { return volume_; }
    /** The block cache; null when caching is off. */
    BlockCache *cache() { return cache_.get(); }

    double
    cacheHitRatio() const
    {
        return cache_ ? cache_->hitRatio() : 0.0;
    }

    /** Verify-on-read hits: reads found damaged on disk. */
    uint64_t
    integrityErrorCount() const
    {
        return integrity_errors_.value();
    }

    /**
     * Gathers [offset, offset+len), which must lie inside the volume,
     * into pinned frames and transient pieces: one sector-aligned
     * envelope read with caching off, else per-block lookups with
     * miss coalescing. Waits release the CPU held by @p lease and
     * reacquire it under @p order_key. A failed result still holds
     * what was gathered.
     */
    sim::Task<ReadResult> read(osmodel::CpuLease &lease,
                               uint64_t order_key, uint64_t offset,
                               uint64_t len,
                               const TransientHook &on_transient = {});

    /** Unpins a read's frames and frees its transients. */
    void release(const ReadResult &result);

    /**
     * Write-through of @p src to [offset, offset+len): full blocks
     * are inserted into the cache, partial ones update resident
     * blocks only; then the disk commit. If @p alive reads false
     * after the cache update, the commit is skipped (a crashed node
     * writes nothing more). Returns true once the commit succeeded.
     */
    sim::Task<bool> write(osmodel::CpuLease &lease, uint64_t order_key,
                          uint64_t offset, uint64_t len, sim::Addr src,
                          const bool *alive = nullptr);

  private:
    /** Claims @p b and the cold, unclaimed blocks after it up to
     *  @p last in loading_; returns the end of the claimed run. */
    uint64_t claimRun(uint64_t b, uint64_t last);

    /** Reads the claimed run [b, run_end) into a transient, verifies
     *  it, installs what the stale-fill guard allows and releases the
     *  claims. Appends each block's overlap with [offset, offset+len)
     *  to @p out. */
    sim::Task<ReadStatus> fill(osmodel::CpuLease &lease,
                               uint64_t order_key, uint64_t b,
                               uint64_t run_end, uint64_t offset,
                               uint64_t len, ReadResult &out,
                               const TransientHook &on_transient);

    /** Verify-on-read verdict for a disk read of [off, off+len). */
    ReadStatus verify(bool read_ok, uint64_t off, uint64_t len);

    osmodel::Node &node_;
    BlockPathConfig config_;
    disk::StripeVolume volume_;
    std::unique_ptr<BlockCache> cache_;

    /** Blocks currently being read from disk (miss coalescing). */
    util::FlatMap<CacheKey, std::unique_ptr<sim::CondEvent>,
                  CacheKeyHash>
        loading_;

    /** Writes in flight per block, counted from the cache update to
     *  the disk commit returning. A miss fill whose disk read raced
     *  such a write may hold pre-commit bytes; installing them would
     *  shadow the committed data in the cache indefinitely, so fills
     *  skip blocks with a write in flight. */
    util::FlatMap<CacheKey, uint32_t, CacheKeyHash> writing_;

    /** Fills invalidated by a write that committed while the fill
     *  was still in loading_: the filler consumes (erases) its mark
     *  and serves the read from its transient instead of installing
     *  a possibly-stale frame. */
    util::FlatMap<CacheKey, bool, CacheKeyHash> fill_stale_;

    sim::CounterHandle integrity_errors_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_BLOCK_PATH_HH
