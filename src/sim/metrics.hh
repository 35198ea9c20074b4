/**
 * @file
 * MetricRegistry: one observability spine for the whole simulator.
 *
 * Every instrumented component registers its statistics here under a
 * dotted path (`client.cdsa.ios`, `server.v3.0.cache.hits`,
 * `nic.db.nic0.mem_registry.pinned_bytes`, `cpu.db.cpu.category.lock`)
 * instead of hoarding private Counter/Sampler members behind bespoke
 * accessors. One Simulation owns one registry, so:
 *
 *  - benches and tests can snapshot *everything* a run observed and
 *    export it (util::JsonWriter renders the snapshot as the
 *    BENCH_*.json perf artifacts);
 *  - one resetEpoch() call replaces the old per-class resetStats()
 *    fan-out when a harness wants warmup-free measurement windows;
 *  - future sharding/batching/caching work can measure itself against
 *    a uniform, queryable surface.
 *
 * Two registration styles:
 *  - owned metrics: counter()/sampler()/histogram()/timeWeighted()
 *    allocate the metric inside the registry and return a
 *    CounterHandle/SamplerHandle/... the component keeps. The handle
 *    is resolved once at registration — per-event recording through
 *    it is a single pointer dereference, never a string lookup (the
 *    simlint `metric-handle` rule enforces this in hot paths). The
 *    string-keyed map exists only for registration, lookup, and
 *    snapshot/JSON export. Handles stay valid (frozen) even after
 *    the registering component dies, but must not outlive the
 *    registry.
 *  - gauges + hooks: gauge() registers a lazy callback for derived
 *    values (hit ratio, utilization, live table entries).
 *    onEpochReset() registers a callback for window-style state the
 *    registry cannot reset by itself (CpuPool's accounting window, a
 *    Disk's busy integral). Both name the owner their callback reads,
 *    and the owner's destructor calls retire(): from then on its
 *    gauges report the value read at retirement (frozen, like a dead
 *    owner's counter handle) and its hooks no longer run.
 *
 * Paths must be unique; duplicate registration throws. Components
 * whose instance names are not guaranteed unique derive their prefix
 * via uniquePrefix(), which appends "#N" on collision.
 */

#ifndef V3SIM_SIM_METRICS_HH
#define V3SIM_SIM_METRICS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace v3sim::sim
{

class MetricRegistry;

/** What shape of metric lives at a path. */
enum class MetricKind : uint8_t
{
    Counter,
    Sampler,
    Histogram,
    TimeWeighted,
    Gauge,
};

const char *metricKindName(MetricKind kind);

/**
 * @name Metric handles
 *
 * Thin stable pointers into registry-owned metric storage, resolved
 * once at registration. Copyable; default-constructed handles are
 * null and must be assigned before use. A handle must not outlive
 * its MetricRegistry (DESIGN.md §10.3).
 * @{
 */

/** Handle to a registry-owned Counter. */
class CounterHandle
{
  public:
    CounterHandle() = default;

    void increment(uint64_t by = 1) { counter_->increment(by); }
    uint64_t value() const { return counter_->value(); }
    void reset() { counter_->reset(); }

    /** The underlying metric, for read-style accessors. */
    const Counter &raw() const { return *counter_; }

  private:
    friend class MetricRegistry;
    explicit CounterHandle(Counter *counter) : counter_(counter) {}
    Counter *counter_ = nullptr;
};

/** Handle to a registry-owned Sampler. */
class SamplerHandle
{
  public:
    SamplerHandle() = default;

    void add(double sample) { sampler_->add(sample); }
    uint64_t count() const { return sampler_->count(); }
    double sum() const { return sampler_->sum(); }
    double mean() const { return sampler_->mean(); }
    double min() const { return sampler_->min(); }
    double max() const { return sampler_->max(); }
    double stddev() const { return sampler_->stddev(); }
    void reset() { sampler_->reset(); }

    /** The underlying metric, for read-style accessors. */
    const Sampler &raw() const { return *sampler_; }

  private:
    friend class MetricRegistry;
    explicit SamplerHandle(Sampler *sampler) : sampler_(sampler) {}
    Sampler *sampler_ = nullptr;
};

/** Handle to a registry-owned Histogram. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;

    void add(double value) { histogram_->add(value); }
    uint64_t count() const { return histogram_->count(); }
    double quantile(double q) const
    {
        return histogram_->quantile(q);
    }
    void reset() { histogram_->reset(); }

    /** The underlying metric, for read-style accessors. */
    const Histogram &raw() const { return *histogram_; }

  private:
    friend class MetricRegistry;
    explicit HistogramHandle(Histogram *histogram)
        : histogram_(histogram)
    {}
    Histogram *histogram_ = nullptr;
};

/** Handle to a registry-owned TimeWeighted. */
class TimeWeightedHandle
{
  public:
    TimeWeightedHandle() = default;

    void set(Tick now, double value) { tw_->set(now, value); }
    void adjust(Tick now, double delta) { tw_->adjust(now, delta); }
    double current() const { return tw_->current(); }
    double average(Tick now) const { return tw_->average(now); }
    void reset(Tick now, double value = 0.0)
    {
        tw_->reset(now, value);
    }

    /** The underlying metric, for read-style accessors. */
    const TimeWeighted &raw() const { return *tw_; }

  private:
    friend class MetricRegistry;
    explicit TimeWeightedHandle(TimeWeighted *tw) : tw_(tw) {}
    TimeWeighted *tw_ = nullptr;
};

/** @} */

/** Hierarchical registry of named metrics, one per Simulation. */
class MetricRegistry
{
  public:
    using NowFn = std::function<Tick()>;

    /** @param now clock used for epoch bookkeeping and
     *  time-weighted averages; defaults to a clock stuck at 0. */
    explicit MetricRegistry(NowFn now = {});

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** @name Owned-metric registration (throws std::invalid_argument
     *  on an empty or duplicate path) @{ */
    CounterHandle counter(const std::string &path);
    SamplerHandle sampler(const std::string &path);
    HistogramHandle histogram(const std::string &path);
    TimeWeightedHandle timeWeighted(const std::string &path);
    /** @} */

    /** Registers a lazy derived value read from @p owner, which
     *  calls retire() before it dies (so the registry outlives it);
     *  a null owner must outlive the registry. */
    void gauge(const std::string &path, std::function<double()> fn,
               const void *owner = nullptr);

    /** Registers a hook run by resetEpoch() (accounting windows the
     *  registry cannot reset itself). Same owner rule as gauges. */
    void onEpochReset(std::function<void(Tick)> hook,
                      const void *owner = nullptr);

    /**
     * Retires everything @p owner (non-null) registered: each gauge
     * reads its callback one last time and reports that value from
     * then on; each hook stops running. Owners call this from their
     * destructors.
     */
    void retire(const void *owner);

    /**
     * Returns a registry-unique dotted prefix: @p base itself the
     * first time, "base#2", "base#3", ... for later instances of the
     * same base. Components with caller-supplied names use this so
     * two same-named instances in one simulation cannot collide.
     */
    std::string uniquePrefix(const std::string &base);

    /** @name Lookup @{ */
    bool contains(const std::string &path) const;
    const Counter *findCounter(const std::string &path) const;
    const Sampler *findSampler(const std::string &path) const;
    const Histogram *findHistogram(const std::string &path) const;
    const TimeWeighted *findTimeWeighted(const std::string &path) const;
    /** Number of registered metrics (gauges included). */
    size_t size() const { return index_.size(); }
    /** @} */

    /** Current time per the registry's clock. */
    Tick now() const { return now_ ? now_() : 0; }

    /** Start of the current measurement epoch. */
    Tick epochStart() const { return epoch_start_; }

    /**
     * Starts a new measurement epoch: resets every owned metric
     * (time-weighted values restart their integration at the current
     * value) and runs every onEpochReset hook. Replaces the old
     * scattered per-component resetStats() chains.
     */
    void resetEpoch();

    /** One metric's state at snapshot time. Which fields are
     *  meaningful depends on kind (see toJson for the mapping). */
    struct Value
    {
        MetricKind kind = MetricKind::Counter;
        uint64_t count = 0; ///< counter value / sample count
        double value = 0;   ///< gauge value / time-weighted current
        double sum = 0, mean = 0, min = 0, max = 0, stddev = 0;
        double p50 = 0, p95 = 0, p99 = 0, p999 = 0; ///< histogram quantiles
        double average = 0;               ///< time-weighted average
    };

    /** Path -> value for every registered metric (sorted, so JSON
     *  output is deterministic). */
    using Snapshot = std::map<std::string, Value>;
    Snapshot snapshot() const;

    /**
     * Per-path difference @p after - @p before for monotone fields
     * (counter values, sample counts and sums; mean is recomputed
     * from the deltas). Non-subtractable fields (min/max/stddev,
     * quantiles, gauges) keep @p after's reading. Paths absent from
     * @p before pass through unchanged.
     */
    static Snapshot delta(const Snapshot &before,
                          const Snapshot &after);

    /** The full snapshot rendered as one JSON object
     *  { "path": {"kind": ..., ...}, ... }. */
    std::string toJson() const;

    /** @copydoc toJson, for an arbitrary snapshot. */
    static std::string toJson(const Snapshot &snap);

  private:
    /** Where a path's metric lives: which per-kind store, at which
     *  index. Deques never relocate elements, so the raw pointers
     *  handed out as handles stay stable for the registry's life. */
    struct Entry
    {
        MetricKind kind;
        size_t index;
    };

    /** Throws on empty/duplicate path. */
    void checkNewPath(const std::string &path) const;

    const Entry *find(const std::string &path,
                      MetricKind kind) const;

    /** Registration/snapshot map only — never touched by recording. */
    std::map<std::string, Entry> index_;
    std::deque<Counter> counters_;
    std::deque<Sampler> samplers_;
    std::deque<Histogram> histograms_;
    std::deque<TimeWeighted> time_weighted_;

    /** A gauge or hook callback and the object it reads (null once
     *  retired, or for callbacks that outlive the registry). */
    template <typename Fn>
    struct Owned
    {
        Fn fn;
        const void *owner;
    };
    std::deque<Owned<std::function<double()>>> gauges_;
    std::vector<Owned<std::function<void(Tick)>>> hooks_;
    std::map<std::string, uint32_t> prefix_uses_;
    NowFn now_;
    Tick epoch_start_ = 0;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_METRICS_HH
