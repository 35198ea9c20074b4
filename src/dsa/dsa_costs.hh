/**
 * @file
 * Client-side DSA cost and policy knobs.
 *
 * The per-implementation path costs reflect the structural findings
 * of sections 2.2, 3 and 5.1:
 *  - cDSA has the leanest paths: a new API with no Win32 semantics
 *    to satisfy ("up to 15% better than kDSA, and up to 30% than
 *    wDSA", "wDSA incurring nearly three times more [CPU] overhead
 *    than cDSA");
 *  - kDSA is a thin monolithic kernel driver: cheap itself, but it
 *    rides the I/O-manager path (osmodel::IoManager) and completes
 *    through interrupts;
 *  - wDSA must emulate kernel32.dll semantics at user level and
 *    signal completions back through kernel events.
 *
 * The optimization switches correspond one-to-one to Figures 9/12:
 * batched deregistration, interrupt batching, and reduced lock
 * synchronization, each individually toggleable so the benches can
 * reproduce the stacked bars.
 */

#ifndef V3SIM_DSA_DSA_COSTS_HH
#define V3SIM_DSA_DSA_COSTS_HH

#include <compare>
#include <cstdint>

#include "sim/types.hh"

namespace v3sim::dsa
{

/** The three optimizations of section 3, individually toggleable. */
struct DsaOptimizations
{
    /** Section 3.1: region-batched deregistration. */
    bool batched_dereg = true;
    /** Section 3.2: interrupt batching (kDSA thresholds / cDSA
     *  polled flags). */
    bool interrupt_batching = true;
    /** Section 3.3: one sync pair per path instead of three. */
    bool reduced_sync = true;

    static DsaOptimizations
    none()
    {
        return DsaOptimizations{false, false, false};
    }

    static DsaOptimizations all() { return DsaOptimizations{}; }

    bool operator==(const DsaOptimizations &) const = default;
    std::strong_ordering operator<=>(const DsaOptimizations &) const;
};

// Defaulted out of the class: defaulted inside it, GCC 12.2 crashes
// (internal compiler error) on mirrored_device.cc at -O2 -g -DNDEBUG.
inline std::strong_ordering
DsaOptimizations::operator<=>(const DsaOptimizations &) const = default;

/** Per-implementation client path costs; only poll_check is
 *  settable, the rest are constants. */
struct DsaClientCosts
{
    /** Common request marshalling: build the 64 B request and CRC32C
     *  its header (the headerDigest of protocol.hh — small enough to
     *  be folded into the marshalling cost rather than metered per
     *  byte like the payload digest below). */
    static constexpr sim::Tick request_build = sim::usecs(0.4);

    /**
     * End-to-end payload digest cost per KiB (CRC32C over the block
     * data: computed on write before staging, verified on read after
     * the RDMA lands). ~0.32 us for an 8 K block — table-driven
     * software CRC at a few GB/s on era-appropriate hardware. Charged
     * whenever digests are enabled, in phantom and real runs alike.
     */
    static constexpr sim::Tick digest_per_kb = sim::usecs(0.04);

    /** kDSA driver work per request, issue / completion side. */
    static constexpr sim::Tick kdsa_issue = sim::usecs(0.9);
    static constexpr sim::Tick kdsa_complete = sim::usecs(1.2);

    /** wDSA kernel32-semantics emulation per request (handle-table
     *  and OVERLAPPED bookkeeping in the kernel32 shim). */
    static constexpr sim::Tick wdsa_issue = sim::usecs(3.0);
    static constexpr sim::Tick wdsa_complete = sim::usecs(5.0);

    /** Critical-section length of the shim's process-wide lock: the
     *  kernel32 emulation serializes on shared handle state, which
     *  is what makes wDSA collapse first under 32-way load (the
     *  uncontended cost is modest; the queueing is not). */
    static constexpr sim::Tick wdsa_lock_hold = sim::usecs(1.5);

    /** cDSA library work per request. */
    static constexpr sim::Tick cdsa_issue = sim::usecs(0.7);
    static constexpr sim::Tick cdsa_complete = sim::usecs(0.6);

    /** One completion-flag poll check (cDSA polling mode). */
    sim::Tick poll_check = sim::usecs(0.2);

    // Defaulted in dsa_costs.cc, out of the includers' sight: GCC
    // 12.2 has crashed (internal compiler error) on comparisons
    // defaulted in this header, depending on what includes it (see
    // DsaOptimizations).
    bool operator==(const DsaClientCosts &) const;
    std::strong_ordering operator<=>(const DsaClientCosts &) const;
};

/** DSA client configuration. */
struct DsaConfig
{
    DsaOptimizations opts;
    DsaClientCosts costs;

    /** Upper bound on outstanding requests per connection; the
     *  effective bound is min(this, server-granted credits). */
    uint32_t max_outstanding = 64;

    /** Request-level retransmission timer (section 2.2). Sized well
     *  above worst-case storage latency so it only fires on real
     *  loss: a spurious retransmit costs a duplicate response, which
     *  consumes an extra client receive descriptor. */
    sim::Tick retransmit_timeout = sim::msecs(500);

    /** Retransmissions before the connection is declared dead and
     *  reconnection starts. */
    int max_retransmits = 4;

    /** Backoff before a reconnection attempt. */
    sim::Tick reconnect_delay = sim::msecs(5);

    /** Reconnection attempts before the client declares the volume
     *  unreachable and fails outstanding I/O. */
    int max_reconnect_attempts = 10;

    /** Handshake timeout: a ConnectReq or Hello whose answer never
     *  arrives (lost packet, dead server) fails the establish
     *  attempt instead of hanging it. */
    sim::Tick connect_timeout = sim::msecs(20);

    /**
     * Extra kernel driver layers stacked above kDSA (0 = the paper's
     * thin monolithic driver). Section 2.2: "kDSA is built as a thin
     * monolithic driver to reduce the overhead of going through
     * multiple layers of software. Alternative implementations ...
     * can layer existing kernel modules, such as SCSI miniport
     * drivers, on top of kDSA." Each layer adds dispatch work and a
     * synchronization pair on both the issue and completion paths
     * (see abl_miniport).
     */
    int kdsa_extra_layers = 0;

    /** Per-layer dispatch cost (IRP forwarding, stack location). */
    static constexpr sim::Tick driver_layer_cost = sim::usecs(1.8);

    /** cDSA polling-mode parameters (section 3.2): check the flag
     *  every poll_interval; after poll_timeout fall back to sleeping
     *  until woken (interrupt-equivalent cost). */
    sim::Tick poll_interval = sim::usecs(10);
    sim::Tick poll_timeout = sim::usecs(400);

    /** kDSA interrupt batching thresholds (section 3.2): disable
     *  completion interrupts above the high watermark; re-enable
     *  below the low watermark. */
    uint32_t intr_high_watermark = 4;
    uint32_t intr_low_watermark = 2;

    /** Backup completion-drain period while interrupts are disabled
     *  (guards the batching scheme against idle stalls). */
    static constexpr sim::Tick backup_poll_period = sim::usecs(50);

    /** Field by field, so a config can key a run memo; defaulted in
     *  dsa_costs.cc like DsaClientCosts'. */
    bool operator==(const DsaConfig &) const;
    std::strong_ordering operator<=>(const DsaConfig &) const;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_DSA_COSTS_HH
