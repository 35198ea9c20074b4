/**
 * @file
 * Open-loop multi-tenant load generator (DESIGN.md §12).
 *
 * The paper's OLTP experiments are closed-loop: a fixed worker pool
 * issues the next I/O only when the previous one completes, so
 * offered load self-limits at saturation. A consolidated storage
 * service sees the opposite regime — millions of independent tenants
 * whose arrivals do not slow down because the server is busy. This
 * driver models that population: arrivals come from a configurable
 * process (Poisson, on/off bursty, or a diurnal rate swing), each
 * carrying a tenant id drawn from a Zipf popularity distribution
 * over `tenants` ids, multiplexed onto the bounded device
 * connections through `max_inflight` lanes (the client library's
 * connection pool).
 *
 * Past saturation an open-loop backlog grows without bound, so the
 * client library bounds its own submit queue at `queue_cap`:
 * arrivals beyond it are refused locally (counted as overflow) the
 * way a full accept queue refuses connections. What the driver
 * *measures* is therefore exactly the overload story: goodput
 * (completions inside `deadline`), late completions, failures
 * (including server-side sheds surfacing as Busy), and client
 * overflow — every arrival disposed exactly once.
 *
 * Determinism: one sequential generator coroutine makes every random
 * draw (tenant, op, offset, inter-arrival gap) from one forked
 * sim::Rng, so draw order never depends on same-tick completion
 * order; concurrent request coroutines consume pre-drawn values and
 * contend only through content-keyed semaphore lanes (DESIGN.md §8).
 */

#ifndef V3SIM_DB_OPEN_LOOP_HH
#define V3SIM_DB_OPEN_LOOP_HH

#include <cstdint>
#include <set>
#include <string>

#include "dsa/block_device.hh"
#include "osmodel/node.hh"
#include "sim/random.hh"
#include "sim/resource.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace v3sim::db
{

/** Arrival process shapes. All are rate-modulated Poisson: the
 *  instantaneous rate is a deterministic function of simulated time,
 *  and gaps are exponential at that rate. */
enum class ArrivalProcess : uint8_t
{
    Poisson, ///< constant rate `offered_iops`
    Bursty,  ///< on/off: burst_factor x rate for burst_on, then
             ///< idle_factor x rate for burst_off
    Diurnal, ///< sinusoidal swing of amplitude `diurnal_amplitude`
             ///< around `offered_iops` with period `diurnal_period`
};

const char *arrivalProcessName(ArrivalProcess process);

/** Driver configuration. */
struct OpenLoopConfig
{
    /** Simulated tenant population (ids 0..tenants-1). Tenants are
     *  identities, not threads: memory cost is O(1) per tenant. */
    uint64_t tenants = 1'000'000;
    /** Zipf skew of tenant popularity (0 = uniform). A heavy hitter
     *  at theta ~1 is what the server's DRR gate must contain. */
    static constexpr double zipf_theta = 0.99;

    ArrivalProcess process = ArrivalProcess::Poisson;
    /** Mean arrival rate (I/Os per second of simulated time). */
    double offered_iops = 20'000.0;

    /** @name Bursty process @{ */
    static constexpr double burst_factor = 4.0;
    static constexpr double idle_factor = 0.25;
    static constexpr sim::Tick burst_on = sim::msecs(20);
    static constexpr sim::Tick burst_off = sim::msecs(80);
    /** @} */

    /** @name Diurnal process @{ */
    static constexpr sim::Tick diurnal_period = sim::msecs(2000);
    static constexpr double diurnal_amplitude = 0.8;
    /** @} */

    /** Fraction of arrivals that are reads. */
    static constexpr double read_fraction = 0.7;
    /** Bytes per I/O (also the offset alignment). */
    static constexpr uint64_t io_bytes = 8192;

    /** Concurrent I/Os in flight toward the device — the client
     *  library's connection-pool bound. */
    static constexpr uint32_t max_inflight = 256;
    /** Arrivals waiting for a lane beyond which the client refuses
     *  locally (overflow). Bounds the open-loop backlog so drains
     *  terminate; the refusals are part of the measured story. */
    static constexpr uint32_t queue_cap = 4096;

    /** Completion SLO: completions slower than this are "late" and
     *  do not count toward goodput. */
    sim::Tick deadline = sim::msecs(50);
};

/** The load generator. Construct, start(), run the simulation for
 *  the window, stop(), then let the simulation drain. */
class OpenLoopDriver
{
  public:
    /** @param rng a forked stream (sim.forkRng()); the driver owns
     *  every draw it makes. */
    OpenLoopDriver(osmodel::Node &host, dsa::BlockDevice &device,
                   OpenLoopConfig config, sim::Rng rng);

    OpenLoopDriver(const OpenLoopDriver &) = delete;
    OpenLoopDriver &operator=(const OpenLoopDriver &) = delete;
    ~OpenLoopDriver();

    /** Spawns the arrival generator. Call after the device is
     *  connected (capacity must be known). */
    void start();

    /** Stops generating at the next arrival; requests already in the
     *  system complete as the simulation drains. */
    void stop() { running_ = false; }

    /** Requests currently queued or in flight (0 once drained). */
    uint32_t inSystem() const { return in_system_; }

    /** @name Disposition counters — every arrival lands in exactly
     *  one of overflow / failed / late / goodput. @{ */
    uint64_t offeredCount() const { return offered_.value(); }
    uint64_t overflowCount() const { return overflow_.value(); }
    uint64_t failedCount() const { return failed_.value(); }
    uint64_t lateCount() const { return late_.value(); }
    uint64_t goodputCount() const { return goodput_.value(); }
    /** @} */

    /** End-to-end latency (arrival to completion, ns) of completed
     *  requests; the histogram supplies p99/p99.9. */
    const sim::Sampler &latency() const { return latency_.raw(); }
    const sim::Histogram &latencyHistogram() const
    {
        return latency_hist_.raw();
    }
    /** Lane-queue wait (ns) — where open-loop overload accumulates
     *  when the server does not shed. */
    const sim::Sampler &queueWait() const { return queue_wait_.raw(); }

    void resetStats();

  private:
    sim::Task<> generate();
    sim::Task<> request(uint64_t tenant, bool is_read,
                        uint64_t offset, uint64_t seq);
    /** Instantaneous arrival rate (IOPS) at the current tick. */
    double currentRate() const;

    osmodel::Node &host_;
    dsa::BlockDevice &device_;
    OpenLoopConfig config_;
    sim::Rng rng_;
    sim::ZipfGenerator zipf_;

    bool running_ = false;
    uint32_t in_system_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t blocks_ = 0;

    /** Connection-pool lanes; grants keyed by arrival seq (assigned
     *  by the sequential generator, so pure content). */
    sim::Semaphore lanes_;
    /** One I/O buffer per lane, kept *ordered*: a granted lane takes
     *  the lowest free address, so the request->buffer mapping is a
     *  function of the free set — never of same-tick return order,
     *  which the tie shuffle permutes. The address matters because
     *  it is the client library's flow-control content key
     *  (DESIGN.md §8.3). */
    std::set<sim::Addr> free_buffers_;

    /// Registry path prefix ("db.openloop", uniquified); must
    /// precede the metric references so it is initialised first.
    std::string metric_prefix_;

    sim::CounterHandle offered_;
    sim::CounterHandle overflow_;
    sim::CounterHandle failed_;
    sim::CounterHandle late_;
    sim::CounterHandle goodput_;
    sim::SamplerHandle latency_;
    sim::HistogramHandle latency_hist_;
    sim::SamplerHandle queue_wait_;
};

} // namespace v3sim::db

#endif // V3SIM_DB_OPEN_LOOP_HH
