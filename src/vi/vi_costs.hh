/**
 * @file
 * Cost constants for the VI provider and NIC model.
 *
 * Every value is taken from, or calibrated against, figures the paper
 * states for the Giganet cLan platform (sections 3.1, 3.2, 4, 5.1):
 *
 *  - "the maximum end-to-end user-level bandwidth of Giganet is about
 *    110 MB/s and the one-way latency for a 64-bytes message is about
 *    7 us" (section 4) — bandwidth lives in FabricConfig; the latency
 *    budget is split below across doorbell, NIC processing, wire and
 *    receive dispatch so the total lands at ~7 us.
 *  - "takes about 10 us to register and deregister an 8K buffer",
 *    "registration/deregistration cost (5-10 microseconds each)"
 *    (sections 3.1, 5.1) — an 8 KB buffer spans 2 pages, so
 *    register = pin 2 pages + 1 table write ~= 5 us, deregister
 *    similar.
 *  - "allows 1 GB of outstanding registered buffers" (section 3.1).
 *  - "the packet size in the cLan VI implementation is 64K - 64
 *    bytes" (section 5.3).
 *  - interrupt cost of 5-10 us is a *host* property and lives in
 *    osmodel::HostCosts.
 */

#ifndef V3SIM_VI_VI_COSTS_HH
#define V3SIM_VI_VI_COSTS_HH

#include <cstdint>

#include "sim/types.hh"
#include "util/units.hh"

namespace v3sim::vi
{

/** The VI provider/NIC cost model of Giganet cLan: constants, but
 *  for the two registration capacity limits, which the registration
 *  ablation and the registration tests shrink. */
struct ViCosts
{
    /** Host cost to ring a doorbell (post a descriptor) from user
     *  level: "a few instructions" plus a PIO write. */
    static constexpr sim::Tick doorbell = sim::nsecs(700);

    /** Extra host cost when the provider call must enter the kernel
     *  (kernel-level VI as used by kDSA). */
    static constexpr sim::Tick kernel_transition = sim::usecs(1.2);

    /** NIC-side processing per transmitted packet (descriptor fetch,
     *  address translation, DMA setup). */
    static constexpr sim::Tick nic_tx_processing = sim::usecs(1.5);

    /** NIC-side processing per received packet (match to recv
     *  descriptor or RDMA target, DMA to host memory). */
    static constexpr sim::Tick nic_rx_processing = sim::usecs(1.5);

    /** Host cost to poll a completion queue once (check + pop). */
    static constexpr sim::Tick cq_poll = sim::nsecs(300);

    /** Host cost to pin or unpin one page (enters the kernel). */
    static constexpr sim::Tick page_pin = sim::usecs(1.8);

    /** Host cost to install one NIC translation-table entry. */
    static constexpr sim::Tick table_update = sim::usecs(1.4);

    /** Host cost to remove translation-table entries; one operation
     *  can cover a whole region (batched deregistration). */
    static constexpr sim::Tick table_remove = sim::usecs(1.4);

    /** Maximum bytes the NIC allows registered at once (cLan: 1 GB). */
    uint64_t max_registered_bytes = 1ull * util::kGiB;

    /** Maximum NIC translation-table entries. The cLan table holds
     *  one entry per registered buffer; regions of 1000 entries map
     *  4 MB of host memory (section 3.1). 64 Ki entries comfortably
     *  exceeds any realistic count of concurrently registered I/O
     *  buffers while keeping the simulated table small. */
    uint32_t max_table_entries = 65536;

    /** Maximum wire packet (cLan: 64K - 64 bytes). */
    static constexpr uint64_t max_packet_bytes = 64 * util::kKiB - 64;

    /**
     * Wire overhead bytes added per packet (headers/CRC). This is the
     * *link-level* CRC the NIC hardware checks and strips on every
     * hop; it protects a single wire segment only. It is distinct
     * from — and no substitute for — the *end-to-end* CRC32C digests
     * the DSA protocol carries (dsa/protocol.hh, util/crc32c.hh),
     * which survive NIC buffers, DMA engines and staging copies and
     * are the detection layer of the integrity subsystem.
     */
    static constexpr uint64_t packet_header_bytes = 64;
};

} // namespace v3sim::vi

#endif // V3SIM_VI_VI_COSTS_HH
