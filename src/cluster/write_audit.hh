/**
 * @file
 * Durability audit: the bench's exit-code oracle that no committed
 * write was lost across crashes, failovers, and resyncs.
 *
 * The audit interposes on the volume's write path and stamps a
 * unique, monotonically increasing version into the first word of
 * every block each write touches (via the host MemorySpace, so the
 * stamp travels through the real data path: staging buffers, RDMA,
 * server-side landing, mirror legs, resync replay). Per block it
 * tracks:
 *
 *  - settled: the highest version whose write COMPLETED SUCCESSFULLY
 *    while no other write to that block was in flight. A committed
 *    transaction's data is at least this fresh — anything older is
 *    provably lost data.
 *  - attempted: every version ever issued and not yet superseded by
 *    a later settled version. A crash can legitimately leave a block
 *    at a version that was in flight (the write reached some legs
 *    before the failure and its completion failed back to the
 *    client) — that is allowed; a version nobody ever wrote, or one
 *    older than settled, is not.
 *
 * At quiesce (all I/O drained, all mirrors whole, dirty logs empty)
 * audit() reads every tracked block back through the device —
 * round-robin across mirror legs, so each replica is checked — and
 * verdicts each stamp: lost if stamp < settled, foreign if the stamp
 * was never attempted. Both are durability violations and fail the
 * bench.
 *
 * Soundness of the settled floor: in this simulator every
 * server-side landing of a write happens strictly before the
 * client-side completion event, so when a write completes with no
 * concurrent writes outstanding on the block, every replica that
 * will ever serve the block (including via resync from a peer) holds
 * that version or newer.
 */

#ifndef V3SIM_CLUSTER_WRITE_AUDIT_HH
#define V3SIM_CLUSTER_WRITE_AUDIT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsa/block_device.hh"
#include "sim/memory.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::cluster
{

/** Write-versioning BlockDevice wrapper with a read-back audit. */
class DurabilityAudit : public dsa::BlockDevice
{
  public:
    /**
     * @param memory the host memory space I/O buffers live in; must
     *               be backed (not phantom), or stamps would vanish.
     * @param block_size granularity of version tracking; writes must
     *               be block-aligned multiples (TPC-C pages are).
     */
    DurabilityAudit(sim::Simulation &sim, sim::MemorySpace &memory,
                    dsa::BlockDevice &under,
                    uint64_t block_size = 8192);

    DurabilityAudit(const DurabilityAudit &) = delete;
    DurabilityAudit &operator=(const DurabilityAudit &) = delete;

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         uint64_t buffer) override;
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          uint64_t buffer) override;
    uint64_t capacity() const override { return under_.capacity(); }

    /**
     * Reads every tracked block back and checks its stamp. Call only
     * at quiesce. @p replica_count reads are issued per block, back
     * to back, so the mirror's round-robin reader visits every leg.
     * Returns true iff no block is lost or foreign.
     */
    sim::Task<bool> audit(size_t replica_count);

    /** @name Statistics @{ */
    uint64_t auditedBlocks() const { return blocks_checked_.value(); }
    uint64_t lostBlocks() const { return lost_.value(); }
    uint64_t foreignBlocks() const { return foreign_.value(); }
    uint64_t stampedWrites() const { return stamped_.value(); }
    /** @} */

    /** @p block's durability floor (0 before its first settled
     *  write): the stamp any read issued now must reach. */
    uint64_t
    settledVersion(uint64_t block) const
    {
        const auto it = blocks_.find(block);
        return it == blocks_.end() ? 0 : it->second.settled;
    }

  private:
    struct BlockState
    {
        /** Durability floor: highest version settled with no
         *  concurrent writes outstanding on this block. */
        uint64_t settled = 0;
        /** Writes currently in flight covering this block. */
        uint64_t outstanding = 0;
        /** Versions issued and not yet superseded; any of these is
         *  an acceptable stamp. */
        std::vector<uint64_t> attempted;
    };

    sim::Simulation &sim_;
    sim::MemorySpace &memory_;
    dsa::BlockDevice &under_;
    uint64_t block_size_;

    uint64_t next_version_ = 0;
    std::map<uint64_t, BlockState> blocks_;

    // Prefix member must precede the metric references (init order).
    std::string metric_prefix_;
    sim::CounterHandle stamped_;
    sim::CounterHandle blocks_checked_;
    sim::CounterHandle lost_;
    sim::CounterHandle foreign_;
};

} // namespace v3sim::cluster

#endif // V3SIM_CLUSTER_WRITE_AUDIT_HH
