/**
 * @file
 * Coroutine-facing wrapper around the pure AdmissionQueue: the piece
 * a storage server embeds to gate its data path (DESIGN.md §12).
 *
 * The wrapper supplies the determinism discipline the queue itself
 * leaves to the caller (admission.hh): every Admit/Queue/Shed
 * decision is deferred to a single final-band pass per tick, which
 * offers the tick's arrivals to the queue in content-key order and
 * only then refills freed service slots from the DRR backlog — so
 * outcomes are functions of the same-tick contender *set*, never of
 * intra-tick arrival order (DESIGN.md §8.3). Both V3Server and the
 * iSCSI target embed one, keeping overload behavior apples-to-apples
 * across transports.
 *
 * Contract for callers: admit() must be awaited holding NO CPU
 * lease. A queued request parks here, off-CPU, until a slot frees —
 * if it held a CPU, a deep backlog would pin the request-manager
 * CPUs and starve the in-service requests that would drain it.
 */

#ifndef V3SIM_STORAGE_ADMISSION_GATE_HH
#define V3SIM_STORAGE_ADMISSION_GATE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/admission.hh"

namespace v3sim::storage
{

/** The embedded admission gate. Registers its own metrics under
 *  `<prefix>.admission_*`. */
class AdmissionGate
{
  public:
    AdmissionGate(sim::Simulation &sim, const std::string &prefix,
                  AdmissionConfig config);

    AdmissionGate(const AdmissionGate &) = delete;
    AdmissionGate &operator=(const AdmissionGate &) = delete;

    /** True when the gate is configured on; when false, admit()
     *  still resolves true immediately (no gating). */
    bool enabled() const { return queue_.config().enabled; }

    /**
     * One request of @p cost bytes from @p tenant asks to enter the
     * data path. Resolves true (admitted — call release() when the
     * request leaves the data path) or false (shed — refuse the
     * request with a Busy status). @p order_key is the content
     * arbitration key (DESIGN.md §8.3) ordering same-tick arrivals.
     *
     * Must be awaited holding no CPU lease (see file comment).
     */
    sim::Task<bool> admit(uint64_t tenant, uint64_t cost,
                          uint64_t order_key);

    /** An admitted request left the data path: frees its service
     *  slot and schedules a backlog refill pass. */
    void release();

    /**
     * Node crash: wakes every parked waiter as shed (their Busy
     * completions are dropped by the caller's dead connections) and
     * zeroes the gate. In-flight handlers past the gate may still
     * call release() as they unwind; the underlying queue tolerates
     * the reset count.
     */
    void shedAll();

    /** @name Statistics @{ */
    uint64_t shedCount() const { return shed_.value(); }
    const AdmissionQueue &queue() const { return queue_; }
    /** @} */

  private:
    /** One request waiting on the gate. Lives on the admitting
     *  coroutine's frame for the duration of the wait. */
    struct Waiter
    {
        uint64_t tenant = 0;
        uint64_t cost = 0;
        /** Content arbitration key (DESIGN.md §8.3): same-tick
         *  arrivals are offered to the gate in this order. */
        uint64_t order_key = 0;
        AdmissionQueue::Decision decision =
            AdmissionQueue::Decision::Shed;
        /** True once the waiter entered the DRR backlog (its wait is
         *  then sampled into admission_wait_ns). */
        bool queued = false;
        sim::Completion<> ready;
    };

    /** The tick's single decision pass (final band). */
    void pass();
    void schedulePass();

    sim::Simulation &sim_;
    AdmissionQueue queue_;
    std::vector<Waiter *> staged_;
    /** Queued waiters by gate token (ordered: shedAll() wakes them
     *  in token order; tokens are assigned in the final-band pass,
     *  so they are deterministic). */
    std::map<uint64_t, Waiter *> waiting_;
    uint64_t next_token_ = 0;
    bool pass_scheduled_ = false;

    sim::CounterHandle admitted_;
    sim::CounterHandle queued_ct_;
    sim::CounterHandle shed_;
    sim::SamplerHandle wait_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_ADMISSION_GATE_HH
