/**
 * @file
 * Host operating-system cost model.
 *
 * These constants model the Windows 2000/XP host behaviours the paper
 * measures or cites:
 *  - "interrupt cost is high on Windows, in the order of 5-10 us on
 *    our platforms" (section 3.2);
 *  - the kernel I/O path (I/O manager) adds per-request processing
 *    and "at least two more synchronization pairs in both the send
 *    and receive paths" beyond kDSA's own (section 3.3);
 *  - lock/unlock pairs get more expensive with processor count
 *    (coherence traffic), which is why "deregistration requires
 *    locking pages, which becomes more expensive at larger processor
 *    counts" (section 6.1) — the per-platform factories below encode
 *    that.
 */

#ifndef V3SIM_OSMODEL_HOST_COSTS_HH
#define V3SIM_OSMODEL_HOST_COSTS_HH

#include "sim/types.hh"

namespace v3sim::osmodel
{

/** Per-host OS cost constants. Defaults model a mid-size 4-way SMP;
 *  the fields large() raises are the only per-platform ones, the
 *  rest are the same on every host. */
struct HostCosts
{
    /** User/kernel boundary crossing, round trip. */
    static constexpr sim::Tick syscall = sim::usecs(1.3);

    /** Interrupt service entry/exit (paper: 5-10 us). */
    static constexpr sim::Tick interrupt = sim::usecs(7);

    /** Dispatching deferred completion work (DPC-level processing). */
    static constexpr sim::Tick dpc_dispatch = sim::usecs(1.2);

    /** Waking a blocked thread (scheduler + context switch). */
    sim::Tick context_switch = sim::usecs(3.5);

    /** I/O-manager per-request processing on the issue side
     *  (IRP allocation, validation, driver dispatch). */
    static constexpr sim::Tick irp_issue = sim::usecs(2.2);

    /** I/O-manager per-request completion processing. */
    static constexpr sim::Tick irp_complete = sim::usecs(1.8);

    /** Probe-and-lock (pin) cost per page when the kernel prepares a
     *  buffer for DMA; unlock costs the same on completion. */
    sim::Tick probe_lock_page = sim::usecs(0.9);

    /** Signalling a Win32 event / scheduling an APC callback into an
     *  application thread (wDSA's completion notification). */
    static constexpr sim::Tick event_signal = sim::usecs(2.4);

    /** Acquire half of a lock/unlock synchronization pair (atomic op
     *  plus coherence traffic; rises with CPU count). */
    sim::Tick lock_acquire = sim::usecs(0.20);

    /** Release half of a synchronization pair. */
    sim::Tick lock_release = sim::usecs(0.15);

    /** Typical critical-section length inside the I/O path. */
    sim::Tick lock_hold = sim::usecs(0.25);

    /** @name Kernel TCP/socket path (the iSCSI rival transport,
     * DESIGN.md §11).
     * These are the per-I/O costs a user-level, zero-copy VI path
     * avoids by construction: the kernel protocol stack touches every
     * segment, copies every byte across the user/kernel boundary, and
     * checksums payloads in software (paper-era server NICs offered
     * no TCP checksum offload worth relying on).
     * @{ */
    /** TCP/IP per-segment protocol processing (header build/parse,
     *  state machine, socket demux) — charged on transmit and
     *  receive alike. */
    static constexpr sim::Tick tcp_segment = sim::usecs(1.8);
    /** Socket-buffer copy across the user/kernel boundary, per KB
     *  (send: user->kernel; receive: kernel->user). VI RDMA places
     *  data directly in registered user buffers instead. */
    static constexpr sim::Tick sock_copy_per_kb = sim::usecs(1.0);
    /** Internet checksum over segment payload, per KB, in software.
     *  VI relies on the NIC's hardware CRC per hop plus DSA's
     *  end-to-end digests. */
    static constexpr sim::Tick inet_checksum_per_kb = sim::usecs(0.45);
    /** @} */

    /** Extra per-path cost of the *unoptimized* I/O request path:
     *  shared structures without cache-conscious layout bounce
     *  cache lines between processors (section 3.3). Grows steeply
     *  with the coherence domain. */
    sim::Tick sync_restructure = sim::usecs(6);

    /** Mid-size platform: 4 x 700 MHz PIII Xeon (Table 1). */
    static HostCosts midSize() { return HostCosts{}; }

    /**
     * Large platform: 32 x 800 MHz PIII Xeon in eight nodes with a
     * crossbar (Table 1). Lock primitives cost more because the
     * coherence fabric spans nodes; everything else is comparable.
     */
    static HostCosts
    large()
    {
        HostCosts costs;
        costs.lock_acquire = sim::usecs(0.55);
        costs.lock_release = sim::usecs(0.40);
        costs.lock_hold = sim::usecs(0.35);
        costs.probe_lock_page = sim::usecs(1.4);
        costs.context_switch = sim::usecs(4.5);
        costs.sync_restructure = sim::usecs(20);
        return costs;
    }

    /** V3 storage node: 2 x 700 MHz PIII (Table 2). */
    static constexpr HostCosts storageNode() { return HostCosts{}; }
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_HOST_COSTS_HH
