/**
 * @file
 * v3perf: one repetition of one benchmark workload, reported as JSON.
 *
 * Runs a single workload once in this (single-threaded) process: it
 * builds the testbed, connects, warms caches, then drives a warmup,
 * a measurement window and a drain of simulated client I/O. It prints
 * one JSON object on stdout with host timings, simulated results,
 * per-layer metrics and the outcome of every output check. The
 * wrapper perfbench/run.py repeats it, takes medians and applies the
 * benchmark contract.
 *
 * Usage: v3perf --workload NAME --seed N [--trace FILE]
 *
 * Every I/O passes through SpanDevice, a dsa::BlockDevice decorator
 * between the I/O source (database engine, closed-loop workers or the
 * open-loop driver) and the testbed's device. sim::Task resumes by
 * symmetric transfer, so the decorator adds no simulation events;
 * simulated results are the same with and without it. Percentiles are
 * exact order statistics over the decorator's per-I/O samples.
 *
 * --trace adds what only the traced run needs: the layer probes and a
 * Chrome trace-event file holding one span per client I/O (simulated
 * time) and one per harness phase (host time).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/oltp_engine.hh"
#include "db/open_loop.hh"
#include "scenarios/testbed.hh"
#include "scenarios/tpcc_run.hh"
#include "sim/memory.hh"
#include "sim/metrics.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "storage/mq_cache.hh"
#include "util/crc32c.hh"
#include "util/json.hh"
#include "util/units.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds this process has used. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One client I/O as seen at the device boundary. */
struct IoSpan
{
    sim::Tick start;
    sim::Tick end;
    uint64_t offset;
    uint64_t len;
    bool write;
    bool ok;
};

/** Records one IoSpan per I/O and forwards it unchanged. */
class SpanDevice final : public dsa::BlockDevice
{
  public:
    SpanDevice(sim::Simulation &sim, dsa::BlockDevice &inner)
        : sim_(sim), inner_(inner)
    {}

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return track(inner_.read(offset, len, buffer), offset, len,
                     false);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return track(inner_.write(offset, len, buffer), offset, len,
                     true);
    }

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer,
         uint64_t tenant) override
    {
        return track(inner_.read(offset, len, buffer, tenant), offset,
                     len, false);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer,
          uint64_t tenant) override
    {
        return track(inner_.write(offset, len, buffer, tenant), offset,
                     len, true);
    }

    uint64_t capacity() const override { return inner_.capacity(); }

    /** Spans in completion order. */
    const std::vector<IoSpan> &spans() const { return spans_; }

  private:
    sim::Task<bool>
    track(sim::Task<bool> io, uint64_t offset, uint64_t len, bool write)
    {
        const sim::Tick start = sim_.now();
        const bool ok = co_await std::move(io);
        spans_.push_back({start, sim_.now(), offset, len, write, ok});
        co_return ok;
    }

    sim::Simulation &sim_;
    dsa::BlockDevice &inner_;
    std::vector<IoSpan> spans_;
};

/** A host-timed harness phase (seconds since process start). */
struct PhaseSpan
{
    std::string name;
    double begin;
    double end;
    double cpu; ///< CPU seconds the process used in the phase
};

using Snapshot = sim::MetricRegistry::Snapshot;

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

/** Sum of Value::count over paths prefix...suffix. */
uint64_t
sumCount(const Snapshot &snap, const std::string &prefix,
         const std::string &suffix)
{
    uint64_t total = 0;
    for (const auto &[path, value] : snap) {
        if (startsWith(path, prefix) && endsWith(path, suffix))
            total += value.count;
    }
    return total;
}

/** Sum of Value::sum over paths prefix...suffix (sampler totals). */
double
sumSum(const Snapshot &snap, const std::string &prefix,
       const std::string &suffix)
{
    double total = 0;
    for (const auto &[path, value] : snap) {
        if (startsWith(path, prefix) && endsWith(path, suffix))
            total += value.sum;
    }
    return total;
}

/** Growth of monotone gauges (cumulative counts) between snapshots. */
double
gaugeGrowth(const Snapshot &before, const Snapshot &after,
            const std::string &prefix, const std::string &suffix)
{
    double total = 0;
    for (const auto &[path, value] : after) {
        if (!startsWith(path, prefix) || !endsWith(path, suffix))
            continue;
        const auto it = before.find(path);
        total += value.value -
                 (it == before.end() ? 0.0 : it->second.value);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** State captured at one window edge. */
struct Edge
{
    sim::Tick tick = 0;
    uint64_t events = 0;
    Snapshot snap;
    /** Host CPU busy time per category since construction. */
    std::array<sim::Tick, osmodel::kCpuCatCount> cpu{};
    uint64_t interrupts = 0;
};

/**
 * The measured experiment: a testbed, the span decorator in front of
 * its device, the host-timed phases and the two window edges.
 */
class Harness
{
  public:
    explicit Harness(double origin) : origin_(origin) {}

    /** Runs @p fn as phase @p name, timing it on the host clock. */
    void
    phase(const std::string &name, const std::function<void()> &fn)
    {
        const double begin = wallNow();
        const double cpu = cpuNow();
        fn();
        phases_.push_back({name, begin - origin_, wallNow() - origin_,
                           cpuNow() - cpu});
    }

    double
    phaseSeconds(const std::string &name) const
    {
        double total = 0;
        for (const PhaseSpan &p : phases_) {
            if (p.name == name)
                total += p.end - p.begin;
        }
        return total;
    }

    double
    phaseCpuSeconds(const std::string &name) const
    {
        double total = 0;
        for (const PhaseSpan &p : phases_) {
            if (p.name == name)
                total += p.cpu;
        }
        return total;
    }

    void
    attach(std::unique_ptr<Testbed> bed)
    {
        bed_ = std::move(bed);
        device_ = std::make_unique<SpanDevice>(bed_->sim(),
                                               bed_->device());
    }

    Testbed &bed() { return *bed_; }
    SpanDevice &device() { return *device_; }
    const SpanDevice &device() const { return *device_; }
    sim::Simulation &sim() { return bed_->sim(); }

    Edge
    edge()
    {
        Edge e;
        e.tick = sim().now();
        e.events = sim().queue().firedCount();
        e.snap = sim().metrics().snapshot();
        for (size_t c = 0; c < osmodel::kCpuCatCount; ++c) {
            e.cpu[c] = bed_->host().cpus().busyTime(
                static_cast<osmodel::CpuCat>(c));
        }
        e.interrupts = bed_->hostInterrupts();
        return e;
    }

    const std::vector<PhaseSpan> &phases() const { return phases_; }

  private:
    double origin_;
    std::vector<PhaseSpan> phases_;
    std::unique_ptr<Testbed> bed_;
    std::unique_ptr<SpanDevice> device_;
};

/** Output checks: name -> passed. */
using Checks = std::vector<std::pair<std::string, bool>>;

/** Everything one repetition reports. */
struct Report
{
    std::map<std::string, double> sim_metrics; ///< simulated results
    std::map<std::string, double> layers;      ///< per-layer metrics
    Checks checks;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t run_ios = 0;
    uint64_t run_events = 0;
    std::string notes;
};

/** Exact order statistic: the smallest sample with at least q of
 *  the samples at or below it. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<size_t>(rank, 1) - 1];
}

/**
 * Fills the metrics every workload shares from the window edges.
 *
 * @param window_ios completions inside the window (per-I/O base)
 * @param latencies_ns latency samples of the measured I/O set
 * @param good_ios I/Os of the measured set that count as served
 */
void
fillCommon(Harness &h, const Edge &w0, const Edge &w1,
           uint64_t window_ios, std::vector<double> latencies_ns,
           uint64_t good_ios, Report &r)
{
    const Snapshot d = sim::MetricRegistry::delta(w0.snap, w1.snap);
    const double ios = static_cast<double>(window_ios);
    const double window_s = sim::toSecs(w1.tick - w0.tick);
    osmodel::CpuPool &cpus = h.bed().host().cpus();

    std::sort(latencies_ns.begin(), latencies_ns.end());
    const size_t samples = latencies_ns.size();
    const size_t p999_rank = static_cast<size_t>(
        std::ceil(0.999 * static_cast<double>(samples)));
    r.checks.push_back({"p999_has_10_samples_beyond",
                        samples >= p999_rank + 10});

    sim::Tick cpu_busy = 0;
    static constexpr const char *kCat[osmodel::kCpuCatCount] = {
        "sql", "kernel", "lock", "dsa", "vi", "other"};
    for (size_t c = 0; c < osmodel::kCpuCatCount; ++c) {
        const sim::Tick busy = w1.cpu[c] - w0.cpu[c];
        cpu_busy += busy;
        r.layers[std::string("osmodel.cpu_us_per_io.") + kCat[c]] =
            ratio(sim::toUsecs(busy), ios);
    }

    r.sim_metrics["sim_iops"] =
        ratio(static_cast<double>(good_ios), window_s);
    r.sim_metrics["sim_io_p50_us"] = quantile(latencies_ns, 0.5) / 1e3;
    r.sim_metrics["sim_io_p999_us"] =
        quantile(latencies_ns, 0.999) / 1e3;
    r.sim_metrics["sim_cpu_us_per_io"] =
        ratio(sim::toUsecs(cpu_busy), ios);

    // sim
    r.layers["sim.events_per_io"] =
        ratio(static_cast<double>(w1.events - w0.events), ios);
    r.layers["sim.io_samples"] = static_cast<double>(samples);

    // osmodel
    r.layers["osmodel.cpu_util"] = ratio(
        static_cast<double>(cpu_busy),
        static_cast<double>(w1.tick - w0.tick) * cpus.cpus());
    r.layers["osmodel.interrupts_per_io"] =
        ratio(static_cast<double>(w1.interrupts - w0.interrupts), ios);

    // vi
    r.layers["vi.packets_per_io"] = ratio(
        static_cast<double>(sumCount(d, "nic.", ".packets_sent")), ios);
    r.layers["vi.registrations_per_io"] =
        ratio(gaugeGrowth(w0.snap, w1.snap, "nic.db.",
                          ".mem_registry.registrations"),
              ios);
    r.layers["vi.deregistrations_per_io"] =
        ratio(gaugeGrowth(w0.snap, w1.snap, "nic.db.",
                          ".mem_registry.deregistrations"),
              ios);

    // dsa
    const double polled = static_cast<double>(
        sumCount(d, "client.", ".polled_completions"));
    const double interrupted = static_cast<double>(
        sumCount(d, "client.", ".intr_completions"));
    r.layers["dsa.polled_frac"] = ratio(polled, polled + interrupted);
    r.layers["dsa.retransmits"] =
        static_cast<double>(sumCount(d, "client.", ".retransmits"));
    r.layers["dsa.busy_frac"] =
        ratio(static_cast<double>(sumCount(d, "client.", ".busy")),
              static_cast<double>(sumCount(d, "client.", ".ios")));

    // net
    r.layers["net.tcp_segs_per_io"] = ratio(
        static_cast<double>(sumCount(d, "iscsi.", ".tcp.segs_tx")), ios);
    r.layers["net.tcp_acks_per_io"] = ratio(
        static_cast<double>(sumCount(d, "iscsi.", ".tcp.acks_tx")), ios);
    r.layers["net.tcp_retransmits"] = static_cast<double>(
        sumCount(d, "iscsi.", ".tcp.retransmits"));

    // iscsi: the database host's (initiator-side) protocol CPU
    for (const char *part : {"intr", "proto", "copy", "crc", "syscall"}) {
        r.layers[std::string("iscsi.cpu_us_per_io.") + part] = ratio(
            static_cast<double>(sumCount(
                d, "iscsi.init", std::string(".cpu.") + part + "_ns")) /
                1e3,
            ios);
    }

    // storage (V3 servers and iSCSI targets alike)
    const double hits = gaugeGrowth(w0.snap, w1.snap, "", ".cache.hits");
    const double misses =
        gaugeGrowth(w0.snap, w1.snap, "", ".cache.misses");
    r.layers["storage.cache_hit_ratio"] = ratio(hits, hits + misses);
    r.layers["storage.server_us_mean"] =
        ratio(sumSum(d, "", ".server_time_ns"),
              static_cast<double>(sumCount(d, "", ".server_time_ns"))) /
        1e3;
    const double admitted =
        static_cast<double>(sumCount(d, "", ".admission_admitted"));
    const double shed =
        static_cast<double>(sumCount(d, "", ".admission_shed"));
    r.layers["storage.admission_wait_us_mean"] =
        ratio(sumSum(d, "", ".admission_wait_ns"),
              static_cast<double>(
                  sumCount(d, "", ".admission_wait_ns"))) /
        1e3;
    r.layers["storage.admission_queued_frac"] = ratio(
        static_cast<double>(sumCount(d, "", ".admission_queued")),
        admitted + shed);
    r.layers["storage.admission_shed_frac"] =
        ratio(shed, admitted + shed);

    // disk
    const double disk_ops =
        static_cast<double>(sumCount(d, "disk.", ".completed"));
    const double service_ns = sumSum(d, "disk.", ".service_ns");
    const double latency_ns = sumSum(d, "disk.", ".latency_ns");
    r.layers["disk.ops_per_io"] = ratio(disk_ops, ios);
    r.layers["disk.service_us_mean"] = ratio(service_ns, disk_ops) / 1e3;
    r.layers["disk.queue_us_mean"] =
        ratio(latency_ns - service_ns, disk_ops) / 1e3;
    // A disk's utilization gauge averages busy time since the disk was
    // built at tick 0, so busy time up to tick t is gauge(t) * t.
    double busy_ns = 0;
    int disks = 0;
    for (const auto &[path, value] : w1.snap) {
        if (!startsWith(path, "disk.") || !endsWith(path, ".utilization"))
            continue;
        const auto it = w0.snap.find(path);
        busy_ns += value.value * static_cast<double>(w1.tick) -
                   (it == w0.snap.end() ? 0.0 : it->second.value) *
                       static_cast<double>(w0.tick);
        ++disks;
    }
    r.layers["disk.utilization"] =
        ratio(busy_ns, static_cast<double>(w1.tick - w0.tick) * disks);

    // db
    const double committed =
        static_cast<double>(sumCount(d, "db.oltp", ".committed"));
    r.layers["db.txn_us_mean"] =
        ratio(sumSum(d, "db.oltp", ".txn_latency_ns"),
              static_cast<double>(
                  sumCount(d, "db.oltp", ".txn_latency_ns"))) /
        1e3;
    r.layers["db.ios_per_txn"] = ratio(
        static_cast<double>(sumCount(d, "db.oltp", ".ios")), committed);
    r.layers["sim_tpmc"] = ratio(
        static_cast<double>(sumCount(d, "db.oltp", ".new_orders")),
        window_s / 60.0);
    const double offered =
        static_cast<double>(sumCount(d, "db.openloop", ".offered"));
    r.layers["db.lane_wait_us_mean"] =
        ratio(sumSum(d, "db.openloop", ".queue_wait_ns"),
              static_cast<double>(
                  sumCount(d, "db.openloop", ".queue_wait_ns"))) /
        1e3;
    r.layers["db.late_frac"] = ratio(
        static_cast<double>(sumCount(d, "db.openloop", ".late")),
        offered);
    r.layers["db.overflow_frac"] = ratio(
        static_cast<double>(sumCount(d, "db.openloop", ".overflow")),
        offered);
}

/** How many counters end in one of @p suffixes, and their sum. */
std::pair<size_t, uint64_t>
suffixCounters(const Snapshot &snap,
               std::initializer_list<const char *> suffixes)
{
    size_t matched = 0;
    uint64_t total = 0;
    for (const auto &[path, value] : snap) {
        for (const char *suffix : suffixes) {
            if (value.kind == sim::MetricKind::Counter &&
                endsWith(path, suffix)) {
                ++matched;
                total += value.count;
            }
        }
    }
    return {matched, total};
}

/** Checks that hold for every fault-free run, read at the end. */
void
fillFinal(Harness &h, const Edge &start, Report &r)
{
    const Snapshot end = h.sim().metrics().snapshot();
    // The suffixes DsaClient, V3Server, iscsi::Initiator and
    // iscsi::Target register. Each kind must match some counter on
    // every workload, so a renamed counter fails the check.
    const auto [digest_counters, digest_errors] = suffixCounters(
        end, {".integrity_digest_mismatches", ".digest_retries"});
    const auto [verify_counters, verify_errors] = suffixCounters(
        end, {".integrity_errors", ".integrity_verify_failures",
              ".integrity_bad_requests"});
    r.checks.push_back({"zero_digest_mismatches",
                        digest_counters > 0 && digest_errors == 0});
    r.checks.push_back({"zero_integrity_errors",
                        verify_counters > 0 && verify_errors == 0});
    r.run_events = h.sim().queue().firedCount() - start.events;
    const std::string json = sim::MetricRegistry::toJson(end);
    r.sim_metrics["metrics_crc32c"] =
        util::crc32c(json.data(), json.size());
    r.sim_metrics["events_fired"] =
        static_cast<double>(h.sim().queue().firedCount());
}

/** Spans ending inside [w0, w1). */
std::vector<const IoSpan *>
endedIn(const std::vector<IoSpan> &spans, const Edge &w0, const Edge &w1)
{
    std::vector<const IoSpan *> out;
    for (const IoSpan &s : spans) {
        if (s.end >= w0.tick && s.end < w1.tick)
            out.push_back(&s);
    }
    return out;
}

/** Connects the testbed as the timed "connect" phase. */
bool
connect(Harness &h, Report &r)
{
    bool connected = false;
    h.phase("connect", [&] { connected = h.bed().connectAll(); });
    r.checks.push_back({"connected", connected});
    return connected;
}

/** Edges of one measured run: its start and the window's two ends. */
struct Window
{
    Edge run_start;
    Edge w0;
    Edge w1;
};

/**
 * Runs the timed warmup, window and drain phases. @p start begins
 * the load at the start of the warmup; @p drain ends it after the
 * window and runs the simulation until the load has drained.
 */
Window
measure(Harness &h, sim::Tick warmup, sim::Tick window,
        const std::function<void()> &start,
        const std::function<void()> &drain)
{
    Window w;
    w.run_start = h.edge();
    h.phase("warmup", [&] {
        start();
        h.sim().runUntil(h.sim().now() + warmup);
    });
    w.w0 = h.edge();
    h.phase("window", [&] { h.sim().runUntil(w.w0.tick + window); });
    w.w1 = h.edge();
    h.phase("drain", drain);
    return w;
}

/** Closed-loop bookkeeping shared by the two closed-loop workloads. */
void
fillClosedLoop(Harness &h, const Window &w, Report &r)
{
    const std::vector<IoSpan> &spans = h.device().spans();
    std::vector<double> latencies;
    for (const IoSpan *s : endedIn(spans, w.w0, w.w1))
        latencies.push_back(static_cast<double>(s->end - s->start));
    fillCommon(h, w.w0, w.w1, latencies.size(), latencies,
               latencies.size(), r);
    uint64_t failed = 0;
    for (const IoSpan &s : spans)
        failed += s.ok ? 0 : 1;
    r.attempted = spans.size();
    r.failed = failed;
    r.run_ios = spans.size();
    r.checks.push_back({"every_closed_loop_io_ok", failed == 0});
    fillFinal(h, w.run_start, r);
}

// ---------------------------------------------------------------------
// Workloads

constexpr uint64_t kPage = 8192;

/** scenarios::runTpcc's Figure 10 run at @p seed. */
TpccRunConfig
fig10Config(uint64_t seed)
{
    TpccRunConfig config;
    config.platform = Platform::Large;
    config.backend = Backend::Cdsa;
    config.seed = seed;
    return config;
}

/**
 * tpcc_large_cdsa: the Figure 10 configuration (Large platform, cDSA,
 * phantom payloads, warmed caches, 512 closed-loop workers). Mirrors
 * scenarios::runTpcc with the span decorator in front of the device;
 * checkSameAsRunTpcc() holds the copy to the original.
 */
Report
runTpccLarge(Harness &h, uint64_t seed)
{
    const TpccRunConfig fig10 = fig10Config(seed);

    HostParams host = HostParams::large();
    host.phantom_memory = true;
    // runTpcc's loaded-database DSA settings: the scheduler polls
    // between work items, with a cheap in-pass flag check.
    dsa::DsaConfig dsa_config;
    dsa_config.poll_interval = sim::usecs(25);
    dsa_config.poll_timeout = sim::msecs(50);
    dsa_config.costs.poll_check = sim::nsecs(200);

    std::unique_ptr<tpcc::Workload> workload;
    std::unique_ptr<db::OltpEngine> engine;
    h.phase("build", [&] {
        h.attach(std::make_unique<Testbed>(Backend::Cdsa, host,
                                           StorageParams::large(),
                                           dsa_config, seed));
    });
    Report r;
    if (!connect(h, r))
        return r;

    const tpcc::TpccConfig wl = platformWorkload(Platform::Large);
    h.phase("build", [&] {
        workload = std::make_unique<tpcc::Workload>(
            wl, h.device().capacity(), h.sim().forkRng());
        engine = std::make_unique<db::OltpEngine>(
            h.bed().host(), h.device(), *workload,
            platformEngine(Platform::Large, Backend::Cdsa));
    });
    h.phase("warm", [&] {
        // runTpcc's warm start: each node's cache holds its share of
        // the hot set, at the start of its own volume.
        std::vector<storage::BlockCache *> caches = h.bed().caches();
        const uint64_t hot_pages =
            static_cast<uint64_t>(
                static_cast<double>(workload->workingSetBytes()) *
                wl.hot_space_fraction) /
            wl.page_size;
        for (storage::BlockCache *cache : caches) {
            const uint64_t fill = std::min(hot_pages / caches.size(),
                                           cache->capacityBlocks());
            for (uint64_t b = 0; b < fill; ++b) {
                const storage::CacheKey key{0, b};
                if (cache->insertAndPin(key))
                    cache->unpin(key);
            }
            cache->resetStats();
        }
    });

    const Window w = measure(
        h, fig10.warmup, fig10.window, [&] { engine->start(); },
        [&] {
            engine->stop();
            h.sim().run();
        });
    fillClosedLoop(h, w, r);
    return r;
}

/**
 * Runs scenarios::runTpcc at @p seed and checks that runTpccLarge's
 * copy of its set-up fired the same events and committed the same new
 * orders, so the benchmark still measures Figure 10.
 */
void
checkSameAsRunTpcc(uint64_t seed, Report &r)
{
    const TpccRunResult ref = runTpcc(fig10Config(seed));
    r.checks.push_back(
        {"same_as_runTpcc",
         static_cast<double>(ref.events_fired) ==
                 r.sim_metrics.at("events_fired") &&
             ref.oltp.tpmc == r.layers.at("sim_tpmc")});
}

/**
 * micro_cached_kdsa: MicroRig's platform (one client, one V3 node,
 * kDSA, real payload bytes), 4 outstanding 8 KiB reads over a region
 * the server cache holds.
 */
Report
runMicroCached(Harness &h, uint64_t seed)
{
    constexpr int kOutstanding = 4;
    constexpr uint64_t kRegion = 8 * util::kMiB;
    constexpr uint64_t kMaxThink = 20'000; // ns between a worker's reads
    const sim::Tick kWarmup = sim::msecs(100);
    const sim::Tick kWindow = sim::msecs(2500);

    // MicroRig::Config defaults: 512 MiB cache, 8 disks.
    StorageParams storage;
    storage.v3_nodes = 1;
    storage.disks_per_node = 8;
    storage.cache_bytes_per_node = 512 * util::kMiB;
    storage.local_disks = 8;

    sim::Addr buffers = sim::kNullAddr;
    h.phase("build", [&] {
        h.attach(std::make_unique<Testbed>(Backend::Kdsa,
                                           HostParams::midSize(),
                                           storage, dsa::DsaConfig{},
                                           seed));
        buffers = h.bed().host().memory().allocate(kOutstanding * kPage);
    });
    Report r;
    if (!connect(h, r))
        return r;

    h.phase("warm", [&] {
        // One read sweep loads every block of the region.
        sim::spawn([](dsa::BlockDevice &dev, sim::Addr buf) -> sim::Task<> {
            for (uint64_t off = 0; off < kRegion; off += kPage)
                co_await dev.read(off, kPage, buf);
        }(h.bed().device(), buffers));
        h.sim().run();
    });

    bool stop = false;
    const auto start = [&] {
        for (int w = 0; w < kOutstanding; ++w) {
            // Every cached read costs the same, so without a seeded
            // think time between requests the workers would report
            // identical latencies for every seed; a seeded start
            // offset alone does not change that. The think time keeps
            // the simulated latency metrics seed-dependent, as every
            // timed metric of the benchmark must be.
            sim::spawn([](sim::Simulation &s, dsa::BlockDevice &dev,
                          sim::Addr buf, sim::Rng rng,
                          const bool &halt) -> sim::Task<> {
                while (!halt) {
                    const uint64_t block =
                        rng.uniformInt(0, kRegion / kPage - 1);
                    co_await dev.read(block * kPage, kPage, buf);
                    co_await s.sleep(static_cast<sim::Tick>(
                        rng.uniformInt(1, kMaxThink)));
                }
            }(h.sim(), h.device(),
              buffers + static_cast<uint64_t>(w) * kPage,
              h.sim().forkRng(), stop));
        }
    };
    const Window w = measure(h, kWarmup, kWindow, start, [&] {
        stop = true;
        h.sim().run();
    });
    fillClosedLoop(h, w, r);
    const Snapshot d = sim::MetricRegistry::delta(w.w0.snap, w.w1.snap);
    r.checks.push_back({"zero_disk_ops_in_window",
                        sumCount(d, "disk.", ".completed") == 0});
    return r;
}

/**
 * openloop_mid_iscsi: the mid-size platform over iSCSI/TCP with the
 * admission gate on, driven by 1M Zipf(0.99) tenants with Poisson
 * arrivals at a fixed rate just below the knee.
 */
constexpr double kOpenLoopIops = 5000;
constexpr sim::Tick kOpenLoopDeadline = sim::msecs(100);

Report
runOpenLoop(Harness &h, uint64_t seed)
{
    const sim::Tick kWarmup = sim::msecs(500);
    const sim::Tick kWindow = sim::msecs(6000);
    const sim::Tick kDrainCap = sim::msecs(10000);

    StorageParams storage = StorageParams::midSize();
    storage.admission.enabled = true;

    std::unique_ptr<db::OpenLoopDriver> driver;
    h.phase("build", [&] {
        h.attach(std::make_unique<Testbed>(Backend::Iscsi,
                                           HostParams::midSize(),
                                           storage, dsa::DsaConfig{},
                                           seed));
    });
    Report r;
    if (!connect(h, r))
        return r;
    h.phase("build", [&] {
        db::OpenLoopConfig load;
        load.offered_iops = kOpenLoopIops;
        load.deadline = kOpenLoopDeadline;
        driver = std::make_unique<db::OpenLoopDriver>(
            h.bed().host(), h.device(), load, h.sim().forkRng());
    });
    // Uniform offsets over the whole volume: nothing to pre-warm.
    h.phase("warm", [] {});

    const Window w = measure(
        h, kWarmup, kWindow, [&] { driver->start(); },
        [&] {
            driver->stop();
            const sim::Tick cap = h.sim().now() + kDrainCap;
            while (driver->inSystem() > 0 && h.sim().now() < cap)
                h.sim().runUntil(h.sim().now() + sim::msecs(20));
        });

    // Measured set: arrivals inside the window. The generator spawns
    // each request at its due time and no lane ever waits (checked
    // below), so a span's start is its arrival's due time.
    const std::vector<IoSpan> &spans = h.device().spans();
    std::vector<double> latencies;
    uint64_t good = 0;
    for (const IoSpan &s : spans) {
        if (s.start < w.w0.tick || s.start >= w.w1.tick)
            continue;
        latencies.push_back(static_cast<double>(s.end - s.start));
        if (s.ok && s.end - s.start <= kOpenLoopDeadline)
            ++good;
    }
    fillCommon(h, w.w0, w.w1, endedIn(spans, w.w0, w.w1).size(),
               latencies, good, r);

    const bool drained = driver->inSystem() == 0;
    const uint64_t offered = driver->offeredCount();
    const uint64_t refused = driver->overflowCount() +
                             driver->failedCount() + driver->lateCount();
    r.checks.push_back({"open_loop_drained", drained});
    r.checks.push_back(
        {"open_loop_disposition_balanced",
         offered == refused + driver->goodputCount()});
    r.checks.push_back({"open_loop_no_lane_wait",
                        driver->queueWait().max() == 0.0});
    r.attempted = offered;
    r.failed = refused;
    r.run_ios = spans.size();
    r.notes = "open loop: latency timed from each arrival's due time; "
              "arrivals come from the simulator's own generator, so "
              "generator lateness is zero by construction";
    fillFinal(h, w.run_start, r);
    return r;
}

// ---------------------------------------------------------------------
// Layer probes: fixed-size calls into public functions, timed from
// outside the model. Each reports the median of several batches.

template <typename Fn>
double
medianBatchSeconds(int batches, Fn &&fn)
{
    std::vector<double> times;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wallNow();
        fn();
        times.push_back(wallNow() - t0);
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

void
runProbes(uint64_t seed, Report &r)
{
    constexpr int kBatches = 7;
    sim::Rng rng(seed);

    // util::crc32c and sim::MemorySpace::copy over 8 KiB.
    std::vector<uint8_t> bytes(kPage);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    constexpr int kCrcCalls = 2000;
    uint32_t crc = 0;
    const double crc_s = medianBatchSeconds(kBatches, [&] {
        for (int i = 0; i < kCrcCalls; ++i)
            crc = util::crc32c(bytes.data(), bytes.size(), crc);
    });
    r.layers["util.probe.crc32c_ns_per_kib"] =
        crc_s * 1e9 / (kCrcCalls * (kPage / 1024.0));

    sim::MemorySpace src_space;
    sim::MemorySpace dst_space;
    const sim::Addr src = src_space.allocate(kPage);
    const sim::Addr dst = dst_space.allocate(kPage);
    src_space.write(src, bytes.data(), kPage);
    constexpr int kCopies = 20000;
    bool copied = true;
    const double copy_s = medianBatchSeconds(kBatches, [&] {
        for (int i = 0; i < kCopies; ++i)
            copied = sim::MemorySpace::copy(src_space, src, dst_space,
                                            dst, kPage) &&
                     copied;
    });
    r.layers["sim.probe.memcopy_ns_per_kib"] =
        copy_s * 1e9 / (kCopies * (kPage / 1024.0));
    std::vector<uint8_t> back(kPage);
    dst_space.read(dst, back.data(), kPage);
    r.checks.push_back(
        {"probe_results_valid",
         copied && back == bytes &&
             util::crc32c(back.data(), back.size()) ==
                 util::crc32c(bytes.data(), bytes.size())});

    // sim::EventQueue schedule/fire/cancel churn: bench/selftime's
    // "core" mix (self-rescheduling actors, zero-delay continuations,
    // final-band events, cancelled timers).
    constexpr int kActors = 64;
    constexpr uint64_t kEvents = 200000;
    struct Actor
    {
        sim::Simulation &sim;
        sim::Rng rng;
        uint64_t *remaining;
        uint64_t fires = 0;
        sim::EventQueue::Handle timer;

        void
        step()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            ++fires;
            sim.queue().schedule(0, [] {});
            if ((fires & 7) == 0)
                sim.queue().scheduleFinal([] {});
            if ((fires & 15) == 0) {
                timer.cancel();
                timer = sim.queue().scheduleCancelable(sim::msecs(100),
                                                       [] {});
            }
            sim.queue().schedule(
                sim::nsecs(100 + static_cast<sim::Tick>(rng.next() %
                                                        50000)),
                [this] { step(); });
        }
    };
    std::vector<double> per_event;
    for (int b = 0; b < kBatches; ++b) {
        sim::Simulation churn(seed);
        sim::Rng actor_rng = churn.forkRng();
        uint64_t remaining = kEvents;
        std::vector<std::unique_ptr<Actor>> actors;
        for (int a = 0; a < kActors; ++a) {
            actors.push_back(std::unique_ptr<Actor>(
                new Actor{churn, actor_rng.fork(), &remaining, 0, {}}));
        }
        const double t0 = wallNow();
        for (auto &actor : actors)
            actor->step();
        churn.run();
        per_event.push_back(
            (wallNow() - t0) * 1e9 /
            static_cast<double>(churn.queue().firedCount()));
    }
    std::sort(per_event.begin(), per_event.end());
    r.layers["sim.probe.queue_ns_per_event"] =
        per_event[per_event.size() / 2];

    // storage::MqCache lookup/insert over a fixed key stream that is
    // four times the cache (micro_engine's MQ touch loop).
    constexpr uint64_t kCacheBlocks = 4096;
    constexpr int kOps = 200000;
    std::vector<uint64_t> keys(kOps);
    for (uint64_t &k : keys)
        k = rng.uniformInt(0, 4 * kCacheBlocks - 1);
    const double mq_s = medianBatchSeconds(kBatches, [&] {
        sim::MemorySpace mem(/*phantom=*/true);
        storage::MqCache cache(mem, kPage, kCacheBlocks);
        for (uint64_t block : keys) {
            const storage::CacheKey key{0, block};
            if (cache.lookupAndPin(key) || cache.insertAndPin(key))
                cache.unpin(key);
        }
    });
    r.layers["storage.probe.mq_ns_per_op"] = mq_s * 1e9 / kOps;
}

// ---------------------------------------------------------------------
// Output

/** Chrome trace-event JSON: async spans for client I/O (simulated
 *  microseconds, pid 1) and complete spans for the host phases (host
 *  microseconds since process start, pid 2). */
bool
writeTrace(const std::string &path, const std::string &workload,
           const Harness &h)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\""
        << workload << "\"},\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"simulated client I/O\"}},\n";
    out << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
           "\"args\":{\"name\":\"host phases\"}}";
    char line[256];
    uint64_t id = 0;
    for (const IoSpan &s : h.device().spans()) {
        const char *op = s.write ? "write" : "read";
        std::snprintf(line, sizeof(line),
                      ",\n{\"ph\":\"b\",\"cat\":\"io\",\"name\":\"%s\","
                      "\"pid\":1,\"tid\":1,\"id\":%llu,\"ts\":%.3f,"
                      "\"args\":{\"offset\":%llu,\"len\":%llu,"
                      "\"ok\":%s}}",
                      op, static_cast<unsigned long long>(id),
                      static_cast<double>(s.start) / 1e3,
                      static_cast<unsigned long long>(s.offset),
                      static_cast<unsigned long long>(s.len),
                      s.ok ? "true" : "false");
        out << line;
        std::snprintf(line, sizeof(line),
                      ",\n{\"ph\":\"e\",\"cat\":\"io\",\"name\":\"%s\","
                      "\"pid\":1,\"tid\":1,\"id\":%llu,\"ts\":%.3f}",
                      op, static_cast<unsigned long long>(id),
                      static_cast<double>(s.end) / 1e3);
        out << line;
        ++id;
    }
    for (const PhaseSpan &p : h.phases()) {
        out << ",\n{\"ph\":\"X\",\"cat\":\"phase\",\"name\":\""
            << p.name << "\",\"pid\":2,\"tid\":1,\"ts\":"
            << util::JsonWriter::number(p.begin * 1e6)
            << ",\"dur\":" << util::JsonWriter::number(
                                  (p.end - p.begin) * 1e6)
            << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: v3perf --workload tpcc_large_cdsa|"
                 "micro_cached_kdsa|openloop_mid_iscsi --seed N "
                 "[--trace FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const double origin = wallNow();
    std::string workload;
    std::string trace_path;
    uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--workload") {
            workload = argv[i + 1];
        } else if (flag == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(argv[i + 1], &end, 10);
            have_seed = end && *end == '\0';
        } else if (flag == "--trace") {
            trace_path = argv[i + 1];
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_seed)
        return usage();

    using Runner = Report (*)(Harness &, uint64_t);
    const std::map<std::string, Runner> runners = {
        {"tpcc_large_cdsa", runTpccLarge},
        {"micro_cached_kdsa", runMicroCached},
        {"openloop_mid_iscsi", runOpenLoop},
    };
    const auto it = runners.find(workload);
    if (it == runners.end())
        return usage();

    Harness h(origin);
    Report r = it->second(h, seed);
    const bool traced = !trace_path.empty();
    if (traced) {
        runProbes(seed, r);
        bool written = false;
        h.phase("trace",
                [&] { written = writeTrace(trace_path, workload, h); });
        r.checks.push_back({"trace_written", written});
        if (workload == "tpcc_large_cdsa")
            checkSameAsRunTpcc(seed, r);
    }

    const double setup_s = h.phaseSeconds("build") +
                           h.phaseSeconds("connect") +
                           h.phaseSeconds("warm");
    const double run_s = h.phaseSeconds("warmup") +
                         h.phaseSeconds("window") +
                         h.phaseSeconds("drain");

    util::JsonWriter json;
    json.beginObject();
    json.key("workload").value(workload);
    json.key("seed").value(seed);
    json.key("traced").value(traced);
    json.key("host").beginObject();
    json.key("setup_s").value(setup_s);
    json.key("run_s").value(run_s);
    json.key("host_us_per_io")
        .value(ratio(run_s * 1e6, static_cast<double>(r.run_ios)));
    json.key("host_ns_per_event")
        .value(ratio(run_s * 1e9, static_cast<double>(r.run_events)));
    json.key("peak_rss_mib").value(peakRssMib());
    for (const char *name : {"build", "connect", "warm", "warmup",
                             "window", "drain", "trace"}) {
        json.key(std::string(name) + "_s").value(h.phaseSeconds(name));
        json.key(std::string(name) + "_cpu_s")
            .value(h.phaseCpuSeconds(name));
    }
    json.endObject();
    json.key("sim").beginObject();
    for (const auto &[name, value] : r.sim_metrics)
        json.key(name).value(value);
    json.endObject();
    json.key("layers").beginObject();
    for (const auto &[name, value] : r.layers)
        json.key(name).value(value);
    json.endObject();
    json.key("checks").beginObject();
    bool all_ok = true;
    for (const auto &[name, ok] : r.checks) {
        json.key(name).value(ok);
        all_ok = all_ok && ok;
    }
    json.endObject();
    json.key("attempted").value(r.attempted);
    json.key("failed").value(r.failed);
    json.key("run_ios").value(r.run_ios);
    json.key("run_events").value(r.run_events);
    json.key("notes").value(r.notes);
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    return all_ok ? 0 : 1;
}
