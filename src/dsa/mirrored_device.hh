/**
 * @file
 * Block-level mirroring across two (or more) V3 replicas — RAID-1
 * over storage nodes, composable under StripedDevice for RAID-10.
 *
 * The paper presents V3 as a storage *cluster* (§1, Table 1/2: 4 and
 * 8 nodes) whose DSA layer supplies the reliability VI lacks (§2.2);
 * this device extends that reliability story from link faults to
 * whole-node faults, the redundancy baseline commodity-storage
 * follow-ups assume. Semantics:
 *
 *  - writes are duplicated to every active replica and succeed while
 *    at least one replica accepts them;
 *  - reads round-robin across active replicas (doubling read
 *    bandwidth when healthy) and retry on the survivor when a
 *    replica fails mid-read;
 *  - a replica whose client gave up (DSA retransmission and
 *    reconnection exhausted — the node is *down*, not just lossy)
 *    is failed over: it stops receiving I/O and every write it
 *    misses is recorded in a dirty-region log;
 *  - a background resync task probes the failed node; once its
 *    client revives, the replica enters *catch-up*: new writes are
 *    duplicated to it directly again (so the dirty log stops
 *    growing and resync converges even under sustained writes),
 *    while the resync task replays the regions missed during the
 *    down window from a surviving replica in bounded chunks;
 *  - the replica is readmitted for reads only when the log is
 *    drained and no write is still in flight, so a readmitted
 *    replica has observed every completed write.
 *
 * Exactly-once across the failover is inherited from the DSA layer:
 * the server's per-connection dedup filter absorbs duplicate
 * retransmissions, and the mirror completes each application I/O
 * once regardless of how many replicas acknowledged it.
 */

#ifndef V3SIM_DSA_MIRRORED_DEVICE_HH
#define V3SIM_DSA_MIRRORED_DEVICE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsa/block_device.hh"
#include "dsa/protocol.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace v3sim::dsa
{

class DsaClient;

/** Mirror configuration. */
struct MirrorConfig
{
    std::string name = "mirror";

    /**
     * Initial delay before the resync task's first revive probe of a
     * down replica. Failed probes back off binary-exponentially up
     * to probe_max_interval (the TcpStream RTO rule): a node that
     * stays down costs geometrically fewer connection attempts, and
     * a successful revive resets the next outage to this base. The
     * bounded waits inside the replay phase (no surviving source,
     * straggler writes in flight) poll at this fixed interval — they
     * wait on local state, not on a dead node.
     */
    sim::Tick probe_interval = sim::msecs(10);

    /** Backoff cap for the revive probe. */
    static constexpr sim::Tick probe_max_interval = sim::msecs(80);

    /** Bytes replayed per resync I/O: one staging slot, the largest
     *  write the replay path (ordinary DSA writes) can carry. */
    static constexpr uint64_t resync_chunk = kStagingSlotBytes;

    /**
     * Chunk replays in flight at once. The dirty log of a random
     * write load is many scattered small regions; replaying them one
     * at a time is bounded by a single disk's write latency, so the
     * resync pipelines a small batch (still far below the server's
     * staging-slot budget).
     */
    static constexpr uint32_t resync_parallel = 8;

    /**
     * Background scrubber rate in bytes per simulated second; 0 (the
     * default) disables scrubbing, which keeps fault-free runs
     * bit-identical to builds without the scrubber. When enabled, a
     * background task walks every active replica at this rate,
     * reading each chunk so the server's verify-on-read surfaces
     * latent sector errors, and repairs damaged ranges from a peer
     * replica — catching rot in cold data before an application read
     * trips over it. The walk starts lazily with the mirror's first
     * I/O, so connect-time Simulation::run() drains still terminate.
     */
    uint64_t scrub_rate_bytes_per_sec = 0;

    /** Bytes per scrub read (must fit the server staging slot so the
     *  repair write is valid). */
    uint64_t scrub_chunk = 64 * 1024;

    /** Full passes the scrubber makes before stopping; 0 = unbounded
     *  (callers driving the sim with runUntil). A bounded pass count
     *  lets Simulation::run() terminate. */
    uint32_t scrub_pass_limit = 0;
};

/** RAID-1 across V3 replicas with failover and background resync. */
class MirroredDevice : public BlockDevice
{
  public:
    /**
     * @param memory host memory for the resync bounce buffer.
     * @param replicas at least two legs, one DSA client each, all
     *        the same capacity class (effective capacity is the
     *        minimum).
     */
    MirroredDevice(sim::Simulation &sim, sim::MemorySpace &memory,
                   std::vector<DsaClient *> replicas,
                   MirrorConfig config = {});

    /** Retires the dirty_bytes gauge. */
    ~MirroredDevice() override { sim_.metrics().retire(this); }

    MirroredDevice(const MirroredDevice &) = delete;
    MirroredDevice &operator=(const MirroredDevice &) = delete;

    /** BlockDevice API. @{ */
    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::Addr buffer) override;
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          sim::Addr buffer) override;
    uint64_t capacity() const override;
    /** @} */

    /**
     * Fails a leg out of the mirror proactively (idempotent). The
     * mirror learns about a dead node reactively — the first I/O
     * whose DSA client exhausts retransmission and reconnection —
     * which costs a full client-death timeout ladder per victim. A
     * cluster-level failure detector (heartbeats, src/cluster) that
     * already knows the node is down calls this instead, so I/O
     * stops targeting the dead leg immediately and the resync task
     * takes over; when the node was in fact healthy, the next revive
     * probe readmits it after an empty replay.
     */
    void failLeg(size_t idx);

    /** @name Statistics @{ */
    size_t replicaCount() const { return replicas_.size(); }
    size_t activeReplicas() const;
    /** True when leg @p idx currently serves I/O. */
    bool legActive(size_t idx) const { return replicas_[idx].active; }
    /** True while leg @p idx is reachable again but still replaying
     *  missed writes (duplicated-to, not yet readable). */
    bool
    legCatchingUp(size_t idx) const
    {
        return replicas_[idx].catching_up;
    }
    /** True while any replica is failed out of the mirror. */
    bool degraded() const;
    uint64_t failoverCount() const { return failovers_.value(); }
    uint64_t readmitCount() const { return readmits_.value(); }
    uint64_t resyncBytes() const { return resync_bytes_.value(); }
    /** Total bytes currently in dirty-region logs. */
    uint64_t dirtyBytes() const;
    /** Dirty-log bytes of one leg. */
    uint64_t legDirtyBytes(size_t idx) const;
    /** Damaged ranges rewritten from a peer replica (foreground
     *  reads and scrub passes both land here). */
    uint64_t
    integrityRepairCount() const
    {
        return integrity_repairs_.value();
    }
    /** Reads that failed verify-on-read on every replica: data loss
     *  the mirror could not mask. */
    uint64_t
    unrecoverableCount() const
    {
        return unrecoverable_.value();
    }
    uint64_t scrubbedBytes() const { return scrubbed_bytes_.value(); }
    uint64_t scrubPassCount() const { return scrub_passes_.value(); }
    /** @} */

  private:
    struct Replica
    {
        DsaClient *client = nullptr;
        bool active = true;
        bool resyncing = false;
        /** Tick of the most recent failover; orders the legs of a
         *  fully-failed mirror so resync can pick a safe fallback
         *  source (see fallbackSource). */
        sim::Tick failed_at = 0;
        /** Node reachable again, replay in progress: new writes are
         *  duplicated to this replica, reads still avoid it. */
        bool catching_up = false;
        /** Dirty-region log: offset -> length, merged intervals. */
        std::map<uint64_t, uint64_t> dirty;
        /** Writes in flight that do not target this replica (it was
         *  down when they were issued). They log their region on
         *  completion, so readmission waits for this to reach zero
         *  rather than for *all* writes to drain — the latter never
         *  happens under a sustained closed-loop load. */
        uint64_t inflight_missing = 0;
        /** Replay chunks currently in flight (offset -> length):
         *  application writes overlapping one are re-logged, since
         *  the replayed snapshot may land after their data. */
        std::map<uint64_t, uint64_t> replaying;
    };

    /** Fails a replica out of the mirror (idempotent) and starts its
     *  resync task. */
    void failReplica(size_t idx);

    /** Merges [offset, offset+len) into the replica's dirty log. */
    static void logDirty(Replica &replica, uint64_t offset,
                         uint64_t len);

    /** Probe -> replay -> readmit loop for one failed replica. */
    sim::Task<> resyncTask(size_t idx);

    /**
     * Repairs [offset, offset+len) on replica @p idx: reads the good
     * copy from another active replica into @p buffer (so the caller
     * gets valid data either way), then rewrites the damaged leg
     * from it. Returns true when a good copy was obtained; the
     * rewrite failing (node just died, unaligned range) only defers
     * the repair to the dirty log.
     */
    sim::Task<bool> repairRange(size_t idx, uint64_t offset,
                                uint64_t len, sim::Addr buffer);

    /** Spawns the scrubber on the first I/O (not at construction:
     *  an infinite background task would keep connect-time
     *  Simulation::run() drains from terminating). */
    void maybeStartScrub();

    /** Paced background walk over all replicas (scrub_rate > 0). */
    sim::Task<> scrubTask();

    /** Index of an active replica to read from, or replicas_.size()
     *  when none is left. Advances the round-robin cursor. */
    size_t pickReader();

    /**
     * Resync source of last resort when *no* leg is active (double
     * fault): the failed leg with the strictly latest
     * (failed_at, index) rank that is quiescent (no in-flight missed
     * writes, no replay chunks). Returns replicas_.size() when
     * replica @p idx is itself the latest-failed leg — it waits
     * until an earlier-failed leg readmits and serves as an active
     * source.
     */
    size_t fallbackSource(size_t idx) const;

    sim::Simulation &sim_;
    sim::MemorySpace &memory_;
    MirrorConfig config_;
    std::vector<Replica> replicas_;

    /** Resync bounce buffers, resync_parallel chunks. */
    sim::Addr scratch_ = 0;

    size_t rr_cursor_ = 0;
    bool scrub_started_ = false;

    // Prefix member must precede the metric references (init order).
    std::string metric_prefix_;
    sim::CounterHandle failovers_;
    sim::CounterHandle readmits_;
    sim::CounterHandle resyncs_;
    sim::CounterHandle resync_bytes_;
    sim::CounterHandle degraded_reads_;
    sim::CounterHandle degraded_writes_;
    sim::CounterHandle integrity_repairs_;
    sim::CounterHandle unrecoverable_;
    sim::CounterHandle scrubbed_bytes_;
    sim::CounterHandle scrub_passes_;
    sim::SamplerHandle resync_time_ns_;
    sim::TimeWeightedHandle degraded_replicas_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_MIRRORED_DEVICE_HH
