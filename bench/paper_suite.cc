/**
 * @file
 * The paper's evaluation as one binary: Tables 1-2, Figures 3-14, the
 * DESIGN.md ablations A1-A5 and A7-A11 and the iSCSI rival runs R1-R3,
 * each an *item* that prints its paper-style table and records it as
 * a schema-1 artifact.
 *
 *   paper_suite [--quick] [--tie-seed N] [--json DIR] [ITEM...]
 *
 * No items runs them all, in paper order. `--json DIR` writes
 * DIR/BENCH_<item>.json per item; `--quick` shrinks every item to
 * smoke scale; `--tie-seed N` turns on the event-tie shuffle
 * (DESIGN.md §8.3) in every simulation an item builds, except the
 * MicroRig sweeps (fig03-fig08, rival_latency, rival_throughput).
 * The seed is not recorded: an artifact must not depend on it.
 *
 * Every TPC-C run goes through one memo keyed by the whole
 * scenarios::TpccRunConfig, so a configuration several figures plot
 * runs once per process: fig10's runs are fig11's bars and fig09's
 * top step, fig13's V3 points are fig14's bars, fig12's top step and
 * rival_tpmc's VI rows. runTpcc() is a pure function of its config
 * (DESIGN.md §8), so a shared run writes what a lone item would;
 * ctest `paper_suite_shared_vs_solo` holds the suite to that.
 *
 * Items state their pass/fail conditions through Suite::check. The
 * exit code is 0 only when every check passed and every artifact was
 * written.
 */

#include <algorithm>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/write_audit.hh"
#include "db/oltp_engine.hh"
#include "db/open_loop.hh"
#include "dsa/reg_cache.hh"
#include "scenarios/microbench.hh"
#include "scenarios/testbed.hh"
#include "scenarios/tpcc_run.hh"
#include "sim/random.hh"
#include "storage/mq_cache.hh"
#include "util/bench_reporter.hh"
#include "util/crc32c.hh"
#include "util/json.hh"
#include "util/stripe.hh"
#include "util/table.hh"
#include "vi/memory_registry.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

using util::TextTable;

/** One column of a view: its printed header ("" = artifact only), its
 *  artifact key ("" = printed only) and the decimals numbers print
 *  with. */
struct Column
{
    std::string header;
    std::string key;
    int decimals = 1;
};

/** One cell: a number or a text. A number with a text prints as the
 *  text (the artifact records integral numbers as integers). */
struct Cell
{
    Cell(double v) : number(v) {}
    template <std::integral T>
    Cell(T v) : number(static_cast<double>(v))
    {}
    Cell(const char *v) : text(v) {}
    Cell(std::string v) : text(std::move(v)) {}
    template <typename Number>
    Cell(Number v, std::string shown) : Cell(v)
    {
        text = std::move(shown);
    }

    std::optional<double> number;
    std::string text;
};

/** A printed table and the artifact rows it mirrors: the columns are
 *  declared once and add() takes a cell per column, so every cell is
 *  stated once and lands in both. */
class Table
{
  public:
    Table(util::BenchReporter &out, std::vector<Column> columns)
        : out_(out), columns_(std::move(columns)), text_(headers(columns_))
    {}

    /** Throws std::invalid_argument unless there is one cell per
     *  column: a missing cell would drop a key from the artifact. */
    void
    add(const std::vector<Cell> &cells)
    {
        if (cells.size() != columns_.size()) {
            throw std::invalid_argument(
                "Table::add: " + std::to_string(cells.size()) +
                " cells for " + std::to_string(columns_.size()) +
                " columns");
        }
        out_.beginRow();
        std::vector<std::string> printed;
        for (size_t c = 0; c < cells.size(); ++c) {
            const Column &column = columns_[c];
            const Cell &cell = cells[c];
            if (!column.key.empty() && cell.number)
                out_.col(column.key, *cell.number);
            else if (!column.key.empty())
                out_.col(column.key, cell.text);
            if (!column.header.empty()) {
                printed.push_back(
                    cell.text.empty()
                        ? TextTable::num(*cell.number, column.decimals)
                        : cell.text);
            }
        }
        text_.addRow(std::move(printed));
    }

    void print() const { text_.print(); }

  private:
    static std::vector<std::string>
    headers(const std::vector<Column> &columns)
    {
        std::vector<std::string> headers;
        for (const Column &column : columns) {
            if (!column.header.empty())
                headers.push_back(column.header);
        }
        return headers;
    }

    util::BenchReporter &out_;
    std::vector<Column> columns_;
    TextTable text_;
};

/** Records a note and prints it as the item's closing line. */
void
closingNote(util::BenchReporter &out, const std::string &key,
            const std::string &text)
{
    std::printf("\n%s: %s\n",
                key == "anchors" ? "paper anchors" : key.c_str(),
                text.c_str());
    out.note(key, text);
}

/** printf into a string, for check texts. */
[[gnu::format(printf, 1, 2)]] std::string
strprintf(const char *fmt, ...)
{
    char text[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(text, sizeof(text), fmt, args);
    va_end(args);
    return text;
}

using TpccRun = std::pair<const TpccRunConfig, TpccRunResult>;

/** What the items of one process share: the command-line scale and
 *  tie seed, the TPC-C run memo and the pass/fail verdict. */
struct Suite
{
    bool quick = false;
    uint64_t tie_seed = 0; ///< 0: no tie shuffle
    std::map<TpccRunConfig, TpccRunResult> runs;
    int reused = 0;
    bool failed = false;

    /** The run of @p config, --quick windows and --tie-seed applied
     *  (the one place they are); only the first request executes it.
     *  Its metrics snapshot goes to @p out, so an artifact carries its
     *  last run's. */
    const TpccRun &
    tpcc(TpccRunConfig config, util::BenchReporter &out)
    {
        if (quick) {
            config.warmup = sim::msecs(60);
            config.window = sim::msecs(250);
        }
        config.tie_seed = tie_seed;
        auto it = runs.find(config);
        if (it != runs.end())
            ++reused;
        else
            it = runs.emplace(config, runTpcc(config)).first;
        out.attachMetricsJson(it->second.metrics_json);
        return *it;
    }

    /** Connects a testbed an item built itself, with --tie-seed armed
     *  first so connect handshakes and fault schedules race under the
     *  tiebreak too. A failed connect is a failed check. */
    bool
    connect(Testbed &bed)
    {
        if (tie_seed)
            bed.sim().queue().setTieShuffle(tie_seed);
        return bed.connectAll() || check(false, "testbed connects");
    }

    /** Prints `check: <what>: yes|NO`; a NO makes paper_suite exit 1. */
    bool
    check(bool passed, const std::string &what)
    {
        std::printf("check: %s: %s\n", what.c_str(), passed ? "yes" : "NO");
        failed = failed || !passed;
        return passed;
    }
};

/** A platform-default run; the ablations pass an 800 ms window. */
TpccRunConfig
tpccConfig(Platform platform, Backend backend, sim::Tick window = 0)
{
    TpccRunConfig config;
    config.platform = platform;
    config.backend = backend;
    if (window)
        config.window = window;
    return config;
}

const sim::Tick kAblationWindow = sim::msecs(800);

/** Host interrupts per second of the run, printed as an integer. */
Cell
intrPerSec(const TpccRun &run)
{
    const double rate = static_cast<double>(run.second.host_interrupts) /
                        sim::toSecs(run.first.window + run.first.warmup);
    return {rate, TextTable::num(static_cast<int64_t>(rate))};
}

/** @p cat's share of busy host CPU, in percent. */
double
cpuShare(const TpccRunResult &result, osmodel::CpuCat cat)
{
    return result.oltp.cpu_breakdown[static_cast<size_t>(cat)] /
           std::max(result.oltp.cpu_utilization, 1e-9) * 100;
}

MicroRig::Config
rigConfig(Backend backend)
{
    MicroRig::Config config;
    config.backend = backend;
    return config;
}

/** A request size: recorded in bytes, printed as "8K". */
Cell
sizeCell(uint64_t bytes)
{
    return {bytes, util::formatSize(bytes)};
}

// Tables 1-2 ----------------------------------------------------------

/** Printed from the very objects the simulation runs with, so the
 *  tables and the experiments cannot drift apart. */
void
table1_2(Suite &, util::BenchReporter &out)
{
    const std::vector<Column> columns = {{"", "table"},
                                         {"Component", "component"},
                                         {"Mid-size", "mid_size"},
                                         {"Large", "large"}};
    const HostParams mid = HostParams::midSize();
    const HostParams large = HostParams::large();
    const tpcc::TpccConfig mid_wl = platformWorkload(Platform::MidSize);
    const tpcc::TpccConfig large_wl = platformWorkload(Platform::Large);
    auto lockPair = [](const HostParams &host) {
        return TextTable::num(sim::toUsecs(host.costs.lock_acquire +
                                           host.costs.lock_release),
                              2);
    };
    auto interrupt = [](const HostParams &host) {
        return TextTable::num(sim::toUsecs(host.costs.interrupt), 1);
    };
    std::printf("Table 1: database host configuration summary\n\n");
    Table table1(out, columns);
    table1.add({1, "CPUs", "4 x 700 MHz PIII", "32 x 800 MHz PIII"});
    table1.add({1, "CPUs (model)", std::to_string(mid.cpus),
                std::to_string(large.cpus)});
    table1.add({1, "lock pair (us)", lockPair(mid), lockPair(large)});
    table1.add({1, "interrupt (us)", interrupt(mid), interrupt(large)});
    table1.add({1, "# warehouses", std::to_string(mid_wl.warehouses),
                std::to_string(large_wl.warehouses)});
    table1.add({1, "working set (model)",
                util::formatSize(mid_wl.workingSetBytes()),
                util::formatSize(large_wl.workingSetBytes())});
    table1.add({1, "(paper working set)", "~100 GB", "~1 TB"});
    table1.print();
    std::printf("\n(model working set = paper / %llu; see "
                "DESIGN.md scaling note)\n",
                static_cast<unsigned long long>(kTpccScale));

    const StorageParams mid_v3 = StorageParams::midSize();
    const StorageParams large_v3 = StorageParams::large();
    auto disks = [](const StorageParams &v3) {
        return v3.v3_nodes * v3.disks_per_node;
    };
    auto space = [&](const StorageParams &v3) {
        return util::formatSize(static_cast<uint64_t>(disks(v3)) *
                                v3.disk_spec.capacity_bytes);
    };
    std::printf("\nTable 2: V3 server configuration summary\n\n");
    Table table2(out, columns);
    table2.add({2, "# V3 nodes", std::to_string(mid_v3.v3_nodes),
                std::to_string(large_v3.v3_nodes)});
    table2.add({2, "CPUs/node", "2 x 700 MHz PIII", "2 x 700 MHz PIII"});
    table2.add({2, "disks/node", std::to_string(mid_v3.disks_per_node),
                std::to_string(large_v3.disks_per_node)});
    table2.add({2, "total disks", std::to_string(disks(mid_v3)),
                std::to_string(disks(large_v3))});
    table2.add({2, "disk type", mid_v3.disk_spec.model,
                large_v3.disk_spec.model});
    table2.add({2, "disk RPM", std::to_string(mid_v3.disk_spec.rpm),
                std::to_string(large_v3.disk_spec.rpm)});
    table2.add({2, "V3 cache/node (model)",
                util::formatSize(mid_v3.cache_bytes_per_node),
                util::formatSize(large_v3.cache_bytes_per_node)});
    table2.add({2, "(paper cache/node)", "1.6 GB", "2.4 GB"});
    table2.add({2, "total disk space", space(mid_v3), space(large_v3)});
    table2.print();
    std::printf("\nNetwork: Giganet cLan model — %.0f MB/s link, "
                "64-byte one-way ~7 us, max packet 64K-64 B\n",
                net::FabricConfig{}.bandwidth_bps / 1e6);
}

// Figures 3-8: micro-benchmarks ---------------------------------------

void
fig03(Suite &, util::BenchReporter &out)
{
    const int vi_iters = out.quick() ? 10 : 60;
    const int dsa_iters = out.quick() ? 12 : 80;
    std::printf("Figure 3: latency of raw VI and DSA "
                "(ms, single outstanding cached read)\n\n");
    const uint64_t sizes[] = {512, 1024, 2048, 4096, 8192, 16384};
    std::vector<double> ms[4]; // VI, kDSA, wDSA, cDSA
    for (const uint64_t size : sizes)
        ms[0].push_back(rawViLatencyUs(size, vi_iters) / 1e3);
    const Backend backends[] = {Backend::Kdsa, Backend::Wdsa,
                                Backend::Cdsa};
    for (int c = 1; c <= 3; ++c) {
        MicroRig rig(rigConfig(backends[c - 1]));
        for (const uint64_t size : sizes) {
            ms[c].push_back(
                rig.measureLatency(size, true, dsa_iters, true).mean_us /
                1e3);
        }
        // Last wins: the snapshot is cDSA's.
        out.attachMetricsJson(rig.sim().metrics().toJson());
    }
    Table table(out, {{"size", "size"}, {"VI", "vi_ms", 3},
                      {"kDSA", "kdsa_ms", 3}, {"wDSA", "wdsa_ms", 3},
                      {"cDSA", "cdsa_ms", 3},
                      {"kDSA-VI(us)", "kdsa_minus_vi_us"}});
    for (size_t i = 0; i < std::size(sizes); ++i) {
        table.add({sizeCell(sizes[i]), ms[0][i], ms[1][i], ms[2][i],
                   ms[3][i], (ms[1][i] - ms[0][i]) * 1e3});
    }
    table.print();
    closingNote(out, "anchors",
                "VI@8K ~0.09-0.13ms; DSA adds 15-50us; order cDSA < "
                "kDSA < wDSA");
}

void
fig04(Suite &, util::BenchReporter &out)
{
    const int iters = out.quick() ? 12 : 80;
    std::printf("Figure 4: response-time breakdown for a read "
                "(milliseconds)\n\n");
    Table table(out, {{"config", ""}, {"", "backend"}, {"", "size"},
                      {"total", "total_ms", 3}, {"cpu", "cpu_ms", 3},
                      {"node-to-node", "node_to_node_ms", 3},
                      {"server", "server_ms", 3},
                      {"server%", "server_pct"}});
    for (const uint64_t size : {2048ull, 8192ull}) {
        for (const Backend backend :
             {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa}) {
            MicroRig rig(rigConfig(backend));
            const auto r = rig.measureLatency(size, true, iters, true);
            const std::string name = backendName(backend);
            table.add({name + " @ " + util::formatSize(size), name,
                       size, r.mean_us / 1e3,
                       r.cpu_overhead_us / 1e3, r.wireUs() / 1e3,
                       r.server_us / 1e3, r.server_us / r.mean_us * 100});
            // Last wins: the snapshot is cDSA's at 8K.
            out.attachMetricsJson(rig.sim().metrics().toJson());
        }
    }
    table.print();
    closingNote(out, "anchors",
                "server ~20% of total at 2K, ~9% at 8K; wDSA CPU ~3x "
                "cDSA; cDSA lowest CPU");
}

void
fig05(Suite &, util::BenchReporter &out)
{
    const sim::Tick window =
        out.quick() ? sim::msecs(25) : sim::msecs(150);
    std::printf("Figure 5: V3 cached 8K read response time vs "
                "outstanding I/Os (kDSA)\n\n");
    Table table(out, {{"outstanding", "outstanding", 0},
                      {"response(ms)", "response_ms", 3},
                      {"MB/s", "mbps"}, {"p95(ms)", "p95_ms", 3},
                      {"p99(ms)", "p99_ms", 3}});
    MicroRig rig(rigConfig(Backend::Kdsa));
    for (const int outstanding : {1, 2, 4, 8, 16, 32}) {
        const auto r = rig.measureThroughput(8192, true, outstanding,
                                             window, true);
        table.add({outstanding, r.mean_response_us / 1e3, r.mbps,
                   r.p95_us / 1e3, r.p99_us / 1e3});
    }
    table.print();
    closingNote(out, "anchors",
                "slow growth below ~4 outstanding, then linear "
                "(network queuing)");
    out.attachMetricsJson(rig.sim().metrics().toJson());
}

void
fig06(Suite &, util::BenchReporter &out)
{
    const sim::Tick window =
        out.quick() ? sim::msecs(20) : sim::msecs(120);
    std::printf("Figure 6: V3 cached read throughput (MB/s), kDSA\n\n");
    const int outstanding[] = {1, 2, 4, 8, 16};
    std::vector<Column> columns = {{"size", "size"}};
    for (const int n : outstanding) {
        columns.push_back(
            {std::to_string(n) + " I/O", "mbps_" + std::to_string(n)});
    }
    Table table(out, columns);
    MicroRig::Config config = rigConfig(Backend::Kdsa);
    config.cache_bytes = 512ull * util::kMiB; // 128K sweeps stay resident
    MicroRig rig(config);
    for (const uint64_t size :
         {512ull, 2048ull, 8192ull, 32768ull, 65536ull, 131072ull}) {
        std::vector<Cell> row = {sizeCell(size)};
        for (const int n : outstanding) {
            row.push_back(
                rig.measureThroughput(size, true, n, window, true).mbps);
        }
        table.add(row);
    }
    table.print();
    closingNote(out, "anchors",
                "~90 MB/s @128K with 1 outstanding; ~110 MB/s ceiling; "
                "saturated at 8K with 4 outstanding");
    out.attachMetricsJson(rig.sim().metrics().toJson());
}

/** Figures 7/8 compare kDSA with the V3 cache off (section 5.3) with
 *  the directly attached disks, over these sizes. */
MicroRig::Config
uncachedKdsa()
{
    MicroRig::Config config = rigConfig(Backend::Kdsa);
    config.cache_bytes = 0;
    return config;
}

const uint64_t kUncachedSizes[] = {512, 2048, 8192, 32768, 131072};

void
fig07(Suite &, util::BenchReporter &out)
{
    const int iters = out.quick() ? 20 : 120;
    std::printf("Figure 7: V3 vs local response time, cache off, "
                "random, 1 outstanding\n");
    for (const bool is_read : {true, false}) {
        std::printf("\n(%s)\n", is_read ? "a: Read" : "b: Write");
        Table table(out, {{"", "op"}, {"size", "size"},
                          {"V3(ms)", "v3_ms", 2},
                          {"Local(ms)", "local_ms", 2},
                          {"V3 overhead", "overhead_pct"},
                          {"", "v3_p50_ms"}, {"", "v3_p95_ms"},
                          {"V3 p99(ms)", "v3_p99_ms", 2},
                          {"", "local_p50_ms"}, {"", "local_p95_ms"},
                          {"Local p99(ms)", "local_p99_ms", 2}});
        MicroRig v3(uncachedKdsa());
        MicroRig local(rigConfig(Backend::Local));
        for (const uint64_t size : kUncachedSizes) {
            const auto v = v3.measureLatency(size, is_read, iters, false);
            const auto l = local.measureLatency(size, is_read, iters, false);
            const double overhead = (v.mean_us / l.mean_us - 1) * 100;
            char shown[32];
            std::snprintf(shown, sizeof(shown), "%+.1f%%", overhead);
            table.add({is_read ? "read" : "write", sizeCell(size),
                       v.mean_us / 1e3, l.mean_us / 1e3,
                       {overhead, shown}, v.p50_us / 1e3, v.p95_us / 1e3,
                       v.p99_us / 1e3, l.p50_us / 1e3, l.p95_us / 1e3,
                       l.p99_us / 1e3});
        }
        table.print();
        out.attachMetricsJson(v3.sim().metrics().toJson());
    }
    closingNote(out, "anchors", "<3% overhead below 64K; ~10% at 128K");
}

void
fig08(Suite &, util::BenchReporter &out)
{
    const sim::Tick window =
        out.quick() ? sim::msecs(40) : sim::msecs(400);
    struct Sweep
    {
        bool is_read;
        int outstanding;
        const char *label;
    };
    const Sweep sweeps[] = {
        {true, 2, "a: Read"},
        {false, 2, "b: Write, two outstanding"},
        {false, 8, "b': Write, eight outstanding (paper: V3 matches "
                   "local at eight)"},
    };
    std::printf("Figure 8: V3 vs local throughput, cache off, random\n");
    for (const Sweep &sweep : sweeps) {
        std::printf("\n(%s, %d outstanding)\n", sweep.label,
                    sweep.outstanding);
        Table table(out, {{"", "op"}, {"", "outstanding"}, {"size", "size"},
                          {"V3(MB/s)", "v3_mbps", 2},
                          {"Local(MB/s)", "local_mbps", 2}});
        MicroRig v3(uncachedKdsa());
        MicroRig local(rigConfig(Backend::Local));
        for (const uint64_t size : kUncachedSizes) {
            const auto v = v3.measureThroughput(
                size, sweep.is_read, sweep.outstanding, window, false);
            const auto l = local.measureThroughput(
                size, sweep.is_read, sweep.outstanding, window, false);
            table.add({sweep.is_read ? "read" : "write", sweep.outstanding,
                       sizeCell(size), v.mbps, l.mbps});
        }
        table.print();
        out.attachMetricsJson(v3.sim().metrics().toJson());
    }
    closingNote(out, "anchors",
                "V3 read throughput ~= local at two outstanding; writes "
                "match at eight");
}

// Figures 9-14: TPC-C -------------------------------------------------

/** Figures 9/12: the section 3 optimizations stacked one at a time,
 *  normalized to the unoptimized run. */
void
optimizationStack(Suite &suite, util::BenchReporter &out,
                  Platform platform)
{
    struct Step
    {
        const char *label;
        dsa::DsaOptimizations opts;
    };
    const Step steps[] = {
        {"unoptimized", dsa::DsaOptimizations::none()},
        {"+dereg", {true, false, false}},
        {"+dereg+intrpt", {true, true, false}},
        {"+dereg+intrpt+sync", {true, true, true}},
    };
    Table table(out, {{"optimizations", "optimizations"},
                      {"kDSA", "kdsa_norm"}, {"cDSA", "cdsa_norm"}});
    double base[2] = {0, 0};
    for (const Step &step : steps) {
        std::vector<Cell> row = {step.label};
        for (const int c : {0, 1}) {
            TpccRunConfig config = tpccConfig(
                platform, c == 0 ? Backend::Kdsa : Backend::Cdsa);
            config.dsa.opts = step.opts;
            const double tpmc = suite.tpcc(config, out).second.oltp.tpmc;
            if (base[c] == 0)
                base[c] = tpmc;
            row.push_back(tpmc / base[c] * 100);
        }
        table.add(row);
    }
    table.print();
}

/** Figures 11/14: host CPU by category, in percent of busy CPU. */
void
cpuBreakdown(Suite &suite, util::BenchReporter &out, Platform platform)
{
    Table table(out, {{"backend", "backend"}, {"SQL", "sql_pct"},
                      {"OS Kernel", "kernel_pct"}, {"Lock", "lock_pct"},
                      {"DSA", "dsa_pct"}, {"VI", "vi_pct"},
                      {"Other", "other_pct"}, {"busy%", "busy_pct"}});
    for (const Backend backend :
         {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa}) {
        const TpccRunResult &result =
            suite.tpcc(tpccConfig(platform, backend), out).second;
        std::vector<Cell> row = {backendName(backend)};
        for (size_t c = 0; c < osmodel::kCpuCatCount; ++c)
            row.push_back(cpuShare(result, static_cast<osmodel::CpuCat>(c)));
        row.push_back(result.oltp.cpu_utilization * 100);
        table.add(row);
    }
    table.print();
}

void
fig09(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 9: optimization stack vs tpmC, large "
                "configuration (normalized to unoptimized)\n\n");
    optimizationStack(suite, out, Platform::Large);
    closingNote(out, "anchors",
                "cumulative: dereg +15/+10%; intrpt +7/+14%; sync "
                "+12/+24%");
}

void
fig10(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 10: normalized TPC-C transaction rate, "
                "large configuration\n\n");
    Table table(out, {{"backend", "backend"}, {"tpmC(norm)", "tpmc_norm"},
                      {"", "tpmc"}, {"cpu%", "cpu_pct"}, {"hit%", "hit_pct"},
                      {"disk%", "disk_pct"}, {"intr/s", "intr_per_sec"}});
    double local = 0;
    for (const Backend backend : {Backend::Local, Backend::Kdsa,
                                  Backend::Wdsa, Backend::Cdsa}) {
        const TpccRun &run =
            suite.tpcc(tpccConfig(Platform::Large, backend), out);
        const TpccRunResult &result = run.second;
        if (backend == Backend::Local)
            local = result.oltp.tpmc;
        table.add({backendName(backend), result.oltp.tpmc / local * 100,
                   result.oltp.tpmc, result.oltp.cpu_utilization * 100,
                   result.server_cache_hit * 100,
                   result.disk_utilization * 100, intrPerSec(run)});
    }
    table.print();
    closingNote(out, "anchors",
                "local=100; kDSA ~100; wDSA ~78 (22% below kDSA); cDSA "
                "~118");
}

void
fig11(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 11: CPU utilization breakdown, TPC-C large "
                "configuration (%% of busy CPU)\n\n");
    cpuBreakdown(suite, out, Platform::Large);
    closingNote(out, "anchors",
                "SQL <40% (kDSA,wDSA), ~50% (cDSA); cDSA kernel+lock "
                "~30%, DSA ~15%; VI roughly constant");
}

void
fig12(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 12: optimization stack vs tpmC, mid-size "
                "configuration (normalized to unoptimized)\n\n");
    optimizationStack(suite, out, Platform::MidSize);
    closingNote(out, "anchors",
                "cumulative: dereg +10/+7%; intrpt +2/+8%; sync "
                "+7/+10%");
}

void
fig13(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 13: normalized TPC-C rate vs disk count, "
                "mid-size configuration\n\n");
    const int disk_counts[] = {30, 60, 90, 120, 150, 176, 210};
    std::vector<double> local;
    double local176 = 0;
    for (const int disks : disk_counts) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Local);
        config.local_disks = disks;
        local.push_back(suite.tpcc(config, out).second.oltp.tpmc);
        if (disks == 176)
            local176 = local.back();
    }
    Table local_table(out, {{"", "series"},
                            {"local disks", "local_disks", 0},
                            {"tpmC(norm)", "tpmc_norm"}});
    for (size_t i = 0; i < local.size(); ++i)
        local_table.add({"local", disk_counts[i], local[i] / local176 * 100});
    local_table.print();

    std::printf("\nV3 backends at 60 disks (4 nodes x 15):\n");
    Table v3_table(out, {{"", "series"}, {"backend", "backend"},
                         {"tpmC(norm)", "tpmc_norm"},
                         {"cache hit%", "cache_hit_pct"},
                         {"disk util%", "disk_util_pct"}});
    for (const Backend backend :
         {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa}) {
        const TpccRunResult &result =
            suite.tpcc(tpccConfig(Platform::MidSize, backend), out).second;
        v3_table.add({"v3", backendName(backend),
                      result.oltp.tpmc / local176 * 100,
                      result.server_cache_hit * 100,
                      result.disk_utilization * 100});
    }
    v3_table.print();
    closingNote(out, "anchors",
                "kDSA ~98, wDSA ~90, cDSA ~103 (of local@176); hit "
                "ratio 40-45%");
}

void
fig14(Suite &suite, util::BenchReporter &out)
{
    std::printf("Figure 14: CPU utilization breakdown, TPC-C "
                "mid-size configuration (%% of busy CPU)\n\n");
    cpuBreakdown(suite, out, Platform::MidSize);
    closingNote(out, "anchors",
                "cDSA SQL ~60%; kernel+lock less pronounced than the "
                "large configuration");
}

// Ablations (DESIGN.md §4) --------------------------------------------

/** A1: batched-dereg region size. Tiny regions approach per-I/O
 *  deregistration cost; a region frees only once all its entries
 *  complete, so huge ones force flushes under NIC-capacity pressure. */
void
abl_dereg_region(Suite &, util::BenchReporter &out)
{
    const int kIos = out.quick() ? 100000 : 1000000;
    std::printf("Ablation A1: batched-dereg region size "
                "(%d simulated I/O completions)\n\n", kIos);
    Table table(out, {{"region", "region", 0},
                      {"dereg ops", "dereg_ops", 0},
                      {"mean cost/IO(us)", "mean_cost_per_io_us", 3},
                      {"forced flushes", "forced_flushes", 0}});
    for (const uint32_t region : {1u, 16u, 128u, 1000u, 4096u, 16384u}) {
        vi::ViCosts costs;
        costs.max_registered_bytes = 64ull * util::kMiB;
        costs.max_table_entries = 32768;
        vi::MemoryRegistry registry(costs, region);
        dsa::RegCache cache(registry, /*pre_pinned=*/true,
                            /*batched=*/region > 1);

        sim::Rng rng(7);
        sim::Tick total_cost = 0;
        const int kOutstanding = 64;
        std::vector<vi::MemHandle> inflight;
        uint64_t next_addr = 1 << 20;
        for (int i = 0; i < kIos; ++i) {
            auto reg = cache.acquire(next_addr, 8192);
            next_addr += 16384;
            if (reg) {
                total_cost += reg->cost;
                inflight.push_back(reg->handle);
            }
            if (inflight.size() >= kOutstanding) {
                // Complete a random outstanding I/O.
                const size_t pick =
                    rng.uniformInt(0, inflight.size() - 1);
                total_cost += cache.release(inflight[pick]);
                inflight[pick] = inflight.back();
                inflight.pop_back();
            }
        }
        for (const auto &handle : inflight)
            total_cost += cache.release(handle);
        table.add({region,
                   registry.deregistrationCount() +
                       registry.regionDeregCount(),
                   sim::toUsecs(total_cost) / kIos,
                   cache.forcedFlushCount()});
    }
    table.print();
    closingNote(out, "shape",
                "cost/IO falls steeply then flattens near the paper's "
                "1000-entry choice; oversized regions add capacity "
                "pressure");
}

/** A2: kDSA interrupt batching masks completion interrupts above a
 *  high watermark of outstanding I/Os until the count falls below a
 *  low one (section 3.2). */
void
abl_intr_threshold(Suite &suite, util::BenchReporter &out)
{
    std::printf("Ablation A2: kDSA interrupt-batching watermarks "
                "(mid-size TPC-C)\n\n");
    Table table(out, {{"high/low", ""}, {"", "high_watermark"},
                      {"", "low_watermark"}, {"tpmC(norm)", "tpmc_norm"},
                      {"interrupts/s", "intr_per_sec"}});
    const std::pair<uint32_t, uint32_t> marks[] = {
        {1, 0}, {2, 1}, {4, 2}, {8, 4}, {16, 8}, {64, 32}};
    double base = 0;
    for (const auto &[high, low] : marks) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Kdsa, kAblationWindow);
        config.dsa.intr_high_watermark = high;
        config.dsa.intr_low_watermark = low;
        const TpccRun &run = suite.tpcc(config, out);
        if (base == 0)
            base = run.second.oltp.tpmc;
        table.add({std::to_string(high) + "/" + std::to_string(low), high,
                   low, run.second.oltp.tpmc / base * 100,
                   intrPerSec(run)});
    }
    table.print();
    closingNote(out, "shape",
                "interrupts collapse once the high watermark drops below "
                "the typical outstanding count; tpmC flat-to-rising as "
                "batching kicks in");
}

/** A3: cDSA completion-flag poll interval, detection latency against
 *  polling CPU (section 3.2). */
void
abl_poll_interval(Suite &suite, util::BenchReporter &out)
{
    std::printf("Ablation A3: cDSA poll interval (mid-size TPC-C)\n\n");
    Table table(out, {{"interval(us)", "interval_us", 0},
                      {"tpmC(norm)", "tpmc_norm"},
                      {"DSA share%", "dsa_share_pct"},
                      {"txn lat(ms)", "txn_lat_ms"}});
    double base = 0;
    for (const int interval_us : {5, 10, 25, 50, 100, 250}) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Cdsa, kAblationWindow);
        config.dsa.poll_interval = sim::usecs(interval_us);
        const TpccRunResult &result = suite.tpcc(config, out).second;
        if (base == 0)
            base = result.oltp.tpmc;
        table.add({interval_us, result.oltp.tpmc / base * 100,
                   cpuShare(result, osmodel::CpuCat::Dsa),
                   result.oltp.mean_txn_latency_us / 1e3});
    }
    table.print();
    closingNote(out, "shape",
                "very short intervals burn DSA CPU; very long ones add "
                "detection latency");
}

/** A4: the authors' Multi-Queue cache policy vs LRU, on a synthetic
 *  second-level trace (the policy alone) and on mid-size TPC-C. */
void
abl_cache_policy(Suite &suite, util::BenchReporter &out)
{
    std::printf("Ablation A4: V3 cache policy (MQ vs LRU)\n\n");
    const int touches = out.quick() ? 50000 : 400000;
    std::printf("Synthetic second-level trace (frequency-skewed, "
                "recency-poor):\n");
    Table synthetic(out, {{"", "series"},
                          {"cache blocks", "cache_blocks", 0},
                          {"LRU hit%", "lru_hit_pct"},
                          {"MQ hit%", "mq_hit_pct"}});
    sim::Rng rng(31);
    for (const uint64_t capacity : {128u, 256u, 512u, 1024u}) {
        sim::MemorySpace mem_a, mem_b;
        storage::LruCache lru(mem_a, 8192, capacity);
        storage::MqCache mq(mem_b, 8192, capacity);
        auto touch = [](storage::BlockCache &cache, uint64_t block) {
            const storage::CacheKey key{0, block};
            if (cache.lookupAndPin(key)) {
                cache.unpin(key);
                return;
            }
            if (cache.insertAndPin(key))
                cache.unpin(key);
        };
        for (int i = 0; i < touches; ++i) {
            uint64_t block;
            if (rng.bernoulli(0.5))
                block = rng.uniformInt(0, capacity / 2);
            else
                block = capacity + rng.uniformInt(0, 16384);
            touch(lru, block);
            touch(mq, block);
        }
        synthetic.add({"synthetic", capacity,
                       lru.hitRatio() * 100, mq.hitRatio() * 100});
    }
    synthetic.print();

    std::printf("\nMid-size TPC-C (kDSA):\n");
    Table table(out, {{"", "series"}, {"policy", "policy"},
                      {"tpmC(norm)", "tpmc_norm"}, {"hit%", "hit_pct"}});
    double base = 0;
    for (const storage::CachePolicy policy :
         {storage::CachePolicy::Lru, storage::CachePolicy::Mq}) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Kdsa, kAblationWindow);
        config.cache_policy = policy;
        const TpccRunResult &result = suite.tpcc(config, out).second;
        if (base == 0)
            base = result.oltp.tpmc;
        table.add({"tpcc", policy == storage::CachePolicy::Mq ? "MQ" : "LRU",
                   result.oltp.tpmc / base * 100,
                   result.server_cache_hit * 100});
    }
    table.print();
}

/** A5: flow-control credits bound each connection's outstanding
 *  requests: too few throttle the pipeline, and past the workload's
 *  concurrency they stop mattering. */
void
abl_flow_credits(Suite &suite, util::BenchReporter &out)
{
    std::printf("Ablation A5: flow-control credits per connection "
                "(mid-size TPC-C, kDSA)\n\n");
    Table table(out, {{"credits", "credits", 0},
                      {"tpmC(norm)", "tpmc_norm"}, {"iops", "iops", 0},
                      {"txn lat(ms)", "txn_lat_ms"}});
    double base = 0;
    for (const uint32_t credits : {2u, 4u, 8u, 16u, 32u, 64u}) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Kdsa, kAblationWindow);
        config.dsa.max_outstanding = credits;
        const TpccRunResult &result = suite.tpcc(config, out).second;
        if (base == 0)
            base = result.oltp.tpmc;
        table.add({credits, result.oltp.tpmc / base * 100,
                   result.oltp.io_per_second,
                   result.oltp.mean_txn_latency_us / 1e3});
    }
    table.print();
    closingNote(out, "shape",
                "throughput rises with credits until the worker pool's "
                "concurrency is covered, then flattens");
}

/** A7: driver layers stacked above the thin monolithic kDSA (section
 *  2.2), each adding dispatch work and a sync pair per path. */
void
abl_miniport(Suite &suite, util::BenchReporter &out)
{
    std::printf("Ablation A7: kDSA driver stacking (mid-size "
                "TPC-C + cached-read latency)\n\n");
    Table table(out, {{"extra layers", "extra_layers", 0},
                      {"tpmC(norm)", "tpmc_norm"},
                      {"latency 8K (ms)", "latency_8k_ms", 3},
                      {"kernel share%", "kernel_share_pct"}});
    const int lat_iters = out.quick() ? 12 : 60;
    double base = 0;
    for (const int layers : {0, 1, 2, 4}) {
        TpccRunConfig config =
            tpccConfig(Platform::MidSize, Backend::Kdsa, kAblationWindow);
        config.dsa.kdsa_extra_layers = layers;
        const TpccRunResult &result = suite.tpcc(config, out).second;
        if (base == 0)
            base = result.oltp.tpmc;
        MicroRig::Config rig_config = rigConfig(Backend::Kdsa);
        rig_config.dsa.kdsa_extra_layers = layers;
        MicroRig rig(rig_config);
        table.add({layers, result.oltp.tpmc / base * 100,
                   rig.measureLatency(8192, true, lat_iters, true).mean_us /
                       1e3,
                   cpuShare(result, osmodel::CpuCat::Kernel)});
    }
    table.print();
    closingNote(out, "shape",
                "every stacked layer costs throughput and latency — the "
                "paper's case for the thin monolithic driver");
}

// Fault, overload and cluster ablations (DESIGN.md §7, §8, §12) -------

constexpr uint64_t kIoBytes = 8192; ///< every fault item's request size

/** Failure detection for the fault items: @p max_retransmits
 *  retransmissions @p retransmit_timeout apart, then three reconnects
 *  2 ms apart with an 8 ms connect timeout each. */
dsa::DsaConfig
failureDetection(sim::Tick retransmit_timeout, int max_retransmits)
{
    dsa::DsaConfig config;
    config.retransmit_timeout = retransmit_timeout;
    config.max_retransmits = max_retransmits;
    config.reconnect_delay = sim::msecs(2);
    config.max_reconnect_attempts = 3;
    config.connect_timeout = sim::msecs(8);
    return config;
}

/** Two V3 nodes of four SCSI disks with 4 MiB of cache each: small
 *  enough that faults and overload bite within a short run. */
StorageParams
smallStorage()
{
    StorageParams params;
    params.v3_nodes = 2;
    params.disks_per_node = 4;
    params.disk_spec = disk::DiskSpec::scsi10k();
    params.cache_bytes_per_node = 4 * util::kMiB;
    return params;
}

/** A7 (availability): throughput through a V3 node crash.
 *
 *  The paper argues DSA supplies the reliability VI lacks (section
 *  2.2); this item measures what that buys at the *cluster* level
 *  when a whole storage node fail-stops. Two V3 nodes form a
 *  dsa::MirroredDevice; closed-loop workers run a random 8K
 *  read/write mix while the fault injector crashes one node mid-run
 *  and restarts it later. The output is the throughput-vs-time curve
 *  across the fault window: the dip while DSA burns its
 *  retransmission/reconnection budget against the dead node,
 *  degraded-mode operation on the survivor, background resync after
 *  restart, and the return to two active replicas.
 *
 *  Expected shape, checked: throughput dips at the crash but never
 *  reaches zero (the survivor keeps serving), recovers to degraded
 *  steady state within the client's failure-detection latency, and
 *  the restarted node is resynced and readmitted before the run
 *  ends. */
void
abl_failover(Suite &suite, util::BenchReporter &out)
{
    struct RunTimes
    {
        sim::Tick crash;
        sim::Tick restart;
        sim::Tick end;
        sim::Tick bucket;
    };
    const RunTimes times =
        out.quick() ? RunTimes{sim::msecs(200), sim::msecs(500),
                               sim::msecs(1000), sim::msecs(100)}
                    : RunTimes{sim::msecs(400), sim::msecs(1000),
                               sim::msecs(2000), sim::msecs(100)};
    const uint64_t span = out.quick() ? 8 * util::kMiB : 32 * util::kMiB;
    const int workers = 12;

    StorageParams storage_params;
    storage_params.v3_nodes = 2;
    storage_params.disks_per_node = 6;
    storage_params.cache_bytes_per_node = 16 * util::kMiB;
    storage_params.layout = Layout::Mirrored;
    storage_params.mirror.probe_interval = sim::msecs(5);
    // Failure detection tuned for the run length: patient enough that
    // disk-bound tails don't trip it (three 20 ms retransmit windows),
    // but the full exhaust-reconnect-die sequence (~90 ms) still
    // completes well before the node restarts, so the mirror genuinely
    // fails over rather than riding out the outage.
    Testbed bed(Backend::Cdsa, HostParams::midSize(), storage_params,
                failureDetection(sim::msecs(20), 2), /*seed=*/7);
    if (!suite.connect(bed))
        return;

    sim::Simulation &sim = bed.sim();
    dsa::MirroredDevice &mirror = *bed.mirrors().front();
    bed.faults().scheduleNodeOutage(times.crash, times.restart,
                                    *bed.servers().front());

    const size_t nbuckets = static_cast<size_t>(times.end / times.bucket);
    std::vector<uint64_t> completions(nbuckets, 0);
    std::vector<uint64_t> failures(nbuckets, 0);
    std::vector<size_t> active_at(nbuckets, 0);
    std::vector<uint64_t> dirty_at(nbuckets, 0);
    sim::Tick failover_at = 0, readmit_at = 0;

    // Closed-loop workers: random 8K I/O, 75 % reads.
    for (int w = 0; w < workers; ++w) {
        const sim::Addr buf = bed.host().memory().allocate(kIoBytes);
        sim::spawn([](sim::Simulation &s, dsa::BlockDevice &device,
                      sim::Rng rng, sim::Addr buffer, uint64_t range,
                      const RunTimes &t, std::vector<uint64_t> &done,
                      std::vector<uint64_t> &bad) -> sim::Task<> {
            while (s.now() < t.end) {
                const uint64_t offset =
                    rng.uniformInt(0, range / kIoBytes - 1) * kIoBytes;
                const bool is_read = rng.bernoulli(0.75);
                const bool ok =
                    is_read ? co_await device.read(offset, kIoBytes, buffer)
                            : co_await device.write(offset, kIoBytes,
                                                    buffer);
                const size_t bucket = std::min(
                    static_cast<size_t>(s.now() / t.bucket),
                    done.size() - 1);
                (ok ? done : bad)[bucket]++;
            }
        }(sim, bed.device(), sim.forkRng(), buf, span, times, completions,
          failures));
    }

    // Bucket-boundary sampler for mirror state.
    sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &m,
                  const RunTimes &t, std::vector<size_t> &active,
                  std::vector<uint64_t> &dirty) -> sim::Task<> {
        // Sample one tick before each absolute bucket boundary
        // (connectAll() already advanced the clock, so relative
        // sleeps would shift the grid past t.end).
        for (size_t b = 0; b < active.size(); ++b) {
            const sim::Tick when =
                static_cast<sim::Tick>(b + 1) * t.bucket - 1;
            if (when > s.now())
                co_await s.sleep(when - s.now());
            // Sample in the final band: mirror state changes landing
            // in this same tick are then always observed, not raced
            // against under tie-shuffle (DESIGN.md §8.3).
            co_await s.queue().finalBand();
            active[b] = m.activeReplicas();
            dirty[b] = m.dirtyBytes();
        }
    }(sim, mirror, times, active_at, dirty_at));

    // Fine-grained watcher for the failover/readmit instants.
    sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &m,
                  const RunTimes &t, sim::Tick &failover,
                  sim::Tick &readmit) -> sim::Task<> {
        while (s.now() < t.end) {
            co_await s.sleep(sim::msecs(1));
            // Final band for the same reason as the bucket sampler:
            // a failover in this exact tick must not be a coin flip.
            co_await s.queue().finalBand();
            if (failover == 0 && m.degraded())
                failover = s.now();
            if (failover != 0 && readmit == 0 && m.readmitCount() > 0)
                readmit = s.now();
        }
    }(sim, mirror, times, failover_at, readmit_at));

    sim.runUntil(times.end);

    auto ms = [](sim::Tick t) {
        return std::to_string(static_cast<long long>(sim::toMsecs(t)));
    };
    std::printf("Ablation A7: throughput through a V3 node crash "
                "(2-node mirror, cDSA, %d workers, 8K mix)\n",
                workers);
    std::printf("crash @%s ms, restart @%s ms\n\n", ms(times.crash).c_str(),
                ms(times.restart).c_str());
    Table table(out, {{"t(ms)", "t_ms", 0}, {"iops", "iops", 0},
                      {"failed", "failed_ios", 0},
                      {"active", "active_replicas", 0},
                      {"dirty(KiB)", "", 0}, {"", "dirty_bytes"}});
    uint64_t min_iops_in_outage = UINT64_MAX;
    for (size_t b = 0; b < nbuckets; ++b) {
        const sim::Tick t_end = static_cast<sim::Tick>(b + 1) * times.bucket;
        if (t_end > times.crash && t_end <= times.restart) {
            min_iops_in_outage =
                std::min(min_iops_in_outage, completions[b]);
        }
        table.add({static_cast<int64_t>(sim::toMsecs(t_end)),
                   static_cast<double>(completions[b]) /
                       sim::toSecs(times.bucket),
                   failures[b], active_at[b], dirty_at[b] / 1024,
                   dirty_at[b]});
    }
    table.print();
    std::printf("\nfailover detected @%s ms, readmitted @%s ms, resynced "
                "%llu KiB\n",
                ms(failover_at).c_str(), ms(readmit_at).c_str(),
                static_cast<unsigned long long>(mirror.resyncBytes() /
                                                1024));
    suite.check(min_iops_in_outage > 0, "iops never zero during outage");
    suite.check(mirror.readmitCount() >= 1 && mirror.activeReplicas() == 2,
                "node resynced and readmitted");
    closingNote(out, "shape",
                "throughput dips at the crash but never reaches zero; "
                "survivor serves degraded; restarted node resyncs and is "
                "readmitted");
    out.note("crash_ms", ms(times.crash));
    out.note("restart_ms", ms(times.restart));
    out.note("failover_ms", ms(failover_at));
    out.note("readmit_ms", ms(readmit_at));
    out.note("failovers", std::to_string(mirror.failoverCount()));
    out.note("readmits", std::to_string(mirror.readmitCount()));
    out.note("resync_bytes", std::to_string(mirror.resyncBytes()));
    out.attachMetricsJson(sim.metrics().toJson());
}

struct IntegrityTimes
{
    sim::Tick fill_cap; ///< budget for the pre-stamp phase
    sim::Tick run;      ///< measured window under injection
    sim::Tick drain;    ///< post-window settle (retransmits, repairs)
};

/** One abl_integrity sweep point's outcome. */
struct IntegrityPoint
{
    double rate = 0.0;
    uint64_t completions = 0;
    uint64_t failures = 0;
    uint64_t undetected = 0;
    double read_us = 0.0;
    double write_us = 0.0;
    uint64_t injected_wire = 0;
    uint64_t injected_latent = 0;
    uint64_t client_digest_mismatches = 0;
    uint64_t server_digest_mismatches = 0;
    uint64_t server_bad_requests = 0;
    uint64_t verify_failures = 0;
    uint64_t repairs = 0;
    uint64_t unrecoverable = 0;
    uint64_t scrubbed_bytes = 0;
    bool latent_clean = false;
};

/** abl_integrity's stamped span starts above the first stripe row,
 *  where the latent errors sit. */
constexpr uint64_t kSpanBase = 1 * util::kMiB;
constexpr int kIntegrityWorkers = 8;

/** Offset-derived block stamp: every 8-byte word is a mix of its own
 *  address, so any displaced/damaged byte is detectable. */
void
stampBlock(std::vector<uint64_t> &words, uint64_t offset)
{
    for (size_t i = 0; i < words.size(); ++i) {
        words[i] = (offset + i * 8) * 0x9E3779B97F4A7C15ull +
                   0x2545F4914F6CDD1Dull;
    }
}

bool
verifyBlock(const sim::MemorySpace &mem, sim::Addr addr, uint64_t offset,
            uint64_t len)
{
    std::vector<uint64_t> got(len / 8);
    mem.read(addr, got.data(), len);
    std::vector<uint64_t> want(len / 8);
    stampBlock(want, offset);
    return got == want;
}

/** Runs one abl_integrity sweep point into @p point; its metrics
 *  snapshot goes to @p out, so the artifact carries the last point's. */
bool
runIntegrityPoint(Suite &suite, double rate, const IntegrityTimes &times,
                  uint64_t span, util::BenchReporter &out,
                  IntegrityPoint &point)
{
    point.rate = rate;

    StorageParams storage_params = smallStorage();
    // Shrink the media so a scrub pass is feasible inside the run.
    storage_params.disk_spec.capacity_bytes = 4 * util::kMiB;
    storage_params.layout = Layout::Mirrored;
    storage_params.mirror.probe_interval = sim::msecs(5);
    storage_params.mirror.scrub_rate_bytes_per_sec = 32 * util::kMiB;
    storage_params.mirror.scrub_chunk = 64 * util::kKiB;
    // The retransmit timer must sit above the true service-time tail
    // (disk-bound writes on this small testbed run ~15 ms): a timer
    // below it fires spurious retransmits whose duplicate read
    // deliveries trample reused buffers. 100 ms keeps recovery from a
    // corrupted (dropped) request reasonably quick while the digest
    // paths handle damaged payloads at wire speed; a generous retry
    // budget keeps p=1e-2 from ever escalating to node death.
    Testbed bed(Backend::Cdsa, HostParams::midSize(), storage_params,
                failureDetection(sim::msecs(100), 8), /*seed=*/11);
    if (!suite.connect(bed))
        return false;

    sim::Simulation &sim = bed.sim();
    sim::MemorySpace &mem = bed.host().memory();
    dsa::MirroredDevice &mirror = *bed.mirrors().front();
    const uint64_t stripe_unit = storage_params.stripe_unit;
    const uint64_t blocks = span / kIoBytes;

    std::vector<sim::Addr> bufs;
    for (int w = 0; w < kIntegrityWorkers; ++w)
        bufs.push_back(mem.allocate(kIoBytes));

    // --- Fill phase: stamp every block in the span (clean wire). ---
    uint64_t filled = 0;
    for (int w = 0; w < kIntegrityWorkers; ++w) {
        sim::spawn([](dsa::MirroredDevice &device, sim::MemorySpace &space,
                      sim::Addr buffer, uint64_t first, uint64_t stride,
                      uint64_t nblocks, uint64_t &done) -> sim::Task<> {
            std::vector<uint64_t> words(kIoBytes / 8);
            for (uint64_t b = first; b < nblocks; b += stride) {
                const uint64_t offset = kSpanBase + b * kIoBytes;
                stampBlock(words, offset);
                space.write(buffer, words.data(), kIoBytes);
                co_await device.write(offset, kIoBytes, buffer);
                ++done;
            }
        }(mirror, mem, bufs[w], static_cast<uint64_t>(w),
          kIntegrityWorkers, blocks, filled));
    }
    while (filled < blocks && sim.now() < times.fill_cap)
        sim.runUntil(sim.now() + sim::msecs(20));
    if (filled < blocks) {
        suite.check(false, strprintf("fill stamped %llu/%llu blocks",
                                  static_cast<unsigned long long>(filled),
                                  static_cast<unsigned long long>(blocks)));
        return false;
    }

    // Fresh measurement epoch, then arm the faults: wire corruption
    // at the sweep rate plus six 8K latent sector errors on node 0,
    // all inside the first stripe row ([0, 4*64K), below kSpanBase)
    // so the application load never overwrites them — only
    // verify-on-read and the scrubber can find them.
    bed.resetStats();
    if (rate > 0.0)
        bed.faults().setCorruptRate(rate);
    const std::vector<uint64_t> latent_offsets = {
        0,
        8 * util::kKiB,
        stripe_unit,
        stripe_unit + 8 * util::kKiB,
        2 * stripe_unit,
        3 * stripe_unit,
    };
    disk::StripeVolume &rotten = bed.servers().front()->volume();
    for (uint64_t off : latent_offsets) {
        const util::StripeChunk chunk = util::stripeChunk(
            off, kIoBytes, stripe_unit, rotten.diskCount());
        bed.faults().injectLatentError(rotten.disk(chunk.child),
                                       chunk.child_offset, chunk.len);
    }
    const disk::StripeVolume *vol0 = &rotten;
    const disk::StripeVolume *vol1 = &bed.servers()[1]->volume();

    const sim::Tick t_end = sim.now() + times.run;

    // --- Timed phase: stamped 8K mix, 75 % reads, verify on read. ---
    sim::Sampler read_lat, write_lat;
    for (int w = 0; w < kIntegrityWorkers; ++w) {
        sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &device,
                      sim::MemorySpace &space, sim::Rng rng,
                      sim::Addr buffer, uint64_t nblocks, sim::Tick end,
                      IntegrityPoint &result, sim::Sampler &rd,
                      sim::Sampler &wr) -> sim::Task<> {
            std::vector<uint64_t> words(kIoBytes / 8);
            while (s.now() < end) {
                const uint64_t offset =
                    kSpanBase + rng.uniformInt(0, nblocks - 1) * kIoBytes;
                const bool is_read = rng.bernoulli(0.75);
                const sim::Tick started = s.now();
                bool ok;
                if (is_read) {
                    ok = co_await device.read(offset, kIoBytes, buffer);
                    rd.add(static_cast<double>(s.now() - started));
                    if (ok && !verifyBlock(space, buffer, offset, kIoBytes))
                        ++result.undetected;
                } else {
                    stampBlock(words, offset);
                    space.write(buffer, words.data(), kIoBytes);
                    ok = co_await device.write(offset, kIoBytes, buffer);
                    wr.add(static_cast<double>(s.now() - started));
                }
                (ok ? result.completions : result.failures)++;
            }
        }(sim, mirror, mem, sim.forkRng(), bufs[w], blocks, t_end, point,
          read_lat, write_lat));
    }

    // Foreground reader over the rotten region: retries each damaged
    // block until the mirror's read path has repaired it (round-robin
    // legs mean a retry soon lands on the damaged replica). Races
    // benignly with the scrubber — whoever reads the rotten leg
    // first triggers the repair.
    const sim::Addr probe_buf = mem.allocate(kIoBytes);
    sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &device,
                  const disk::StripeVolume *oracle,
                  std::vector<uint64_t> offsets,
                  sim::Addr buffer, sim::Tick deadline) -> sim::Task<> {
        for (uint64_t off : offsets) {
            int attempts = 0;
            while (oracle->corrupt(off, kIoBytes) && s.now() < deadline) {
                co_await device.read(off, kIoBytes, buffer);
                if (++attempts % 4 == 0)
                    co_await s.sleep(sim::msecs(5));
            }
        }
    }(sim, mirror, vol0, latent_offsets, probe_buf,
      t_end + times.drain / 2));

    sim.runUntil(t_end);
    bed.faults().setCorruptRate(0.0);
    sim.runUntil(t_end + times.drain);

    // --- Harvest. ---
    point.read_us = read_lat.mean() / 1e3;
    point.write_us = write_lat.mean() / 1e3;
    point.injected_wire = bed.faults().corruptedCount();
    point.injected_latent = bed.faults().latentErrorCount();
    for (auto &client : bed.clients())
        point.client_digest_mismatches += client->digestMismatchCount();
    for (auto &server : bed.servers()) {
        point.server_digest_mismatches += server->digestMismatchCount();
        point.server_bad_requests += server->badRequestCount();
        point.verify_failures += server->integrityErrorCount();
    }
    point.repairs = mirror.integrityRepairCount();
    point.unrecoverable = mirror.unrecoverableCount();
    point.scrubbed_bytes = mirror.scrubbedBytes();
    const uint64_t rotten_span = latent_offsets.back() + kIoBytes;
    point.latent_clean = !vol0->corrupt(0, rotten_span) &&
                         !vol1->corrupt(0, rotten_span);
    out.attachMetricsJson(sim.metrics().toJson());

    std::printf("rate %.0e: %.0f io/s, %llu undetected, "
                "%llu wire injected, %llu+%llu+%llu detected, "
                "%llu latent -> %llu repairs, clean=%s\n",
                rate,
                static_cast<double>(point.completions) /
                    sim::toSecs(times.run),
                static_cast<unsigned long long>(point.undetected),
                static_cast<unsigned long long>(point.injected_wire),
                static_cast<unsigned long long>(
                    point.client_digest_mismatches),
                static_cast<unsigned long long>(
                    point.server_digest_mismatches),
                static_cast<unsigned long long>(point.server_bad_requests),
                static_cast<unsigned long long>(point.injected_latent),
                static_cast<unsigned long long>(point.repairs),
                point.latent_clean ? "yes" : "NO");

    mem.free(probe_buf);
    for (sim::Addr buf : bufs)
        mem.free(buf);
    return true;
}

/** A8: end-to-end data integrity under injected corruption.
 *
 *  The paper's reliability argument (section 2.2) is that DSA
 *  supplies the guarantees VI lacks; this item extends that argument
 *  from *loss* to *corruption*. A 2-node mirrored cDSA testbed runs a
 *  closed-loop 8K read/write mix whose every block carries an
 *  offset-derived stamp, while the fault injector damages the system
 *  three ways at once:
 *
 *   - wire corruption: each delivered packet is damaged with
 *     probability p (the sweep variable) — request messages arrive
 *     broken (dropped by the server's receive check), write payloads
 *     arrive broken in staging (rejected by the staging digest), read
 *     payloads arrive broken in the client buffer (rejected by the
 *     response digest) — all recovered by retransmission;
 *   - latent sector errors: blocks rot silently on one replica's
 *     disks, detected only by the server's verify-on-read and
 *     repaired by the mirror from the healthy peer;
 *   - a background scrubber walks both replicas so cold rot is found
 *     without waiting for an application read.
 *
 *  The application-level oracle is the stamp: a read that completes
 *  "ok" with wrong bytes is an *undetected* corruption, and the item
 *  fails if it ever sees one. The artifact records injected vs
 *  detected vs repaired counts plus the goodput/latency cost of the
 *  digest machinery (the rate-0 row is the in-artifact baseline).
 *  Under --tie-seed its numbers move (the mirror-reader race of
 *  DESIGN.md §8.3), so it has no determinism diff. */
void
abl_integrity(Suite &suite, util::BenchReporter &out)
{
    const IntegrityTimes times =
        out.quick() ? IntegrityTimes{sim::msecs(2000), sim::msecs(800),
                                     sim::msecs(400)}
                    : IntegrityTimes{sim::msecs(4000), sim::msecs(1500),
                                     sim::msecs(500)};
    const uint64_t span = out.quick() ? 4 * util::kMiB : 8 * util::kMiB;
    const std::vector<double> rates =
        out.quick() ? std::vector<double>{0.0, 1e-3}
                    : std::vector<double>{0.0, 1e-4, 1e-3, 1e-2};

    std::printf("Ablation A8: integrity under corruption injection "
                "(2-node mirror, cDSA, %d workers, 8K stamped mix)\n",
                kIntegrityWorkers);
    std::vector<IntegrityPoint> points(rates.size());
    for (size_t i = 0; i < rates.size(); ++i) {
        if (!runIntegrityPoint(suite, rates[i], times, span, out, points[i]))
            return;
    }

    Table table(out, {{"rate", "corrupt_rate", 4}, {"iops", "iops", 0},
                      {"failed", "failed_ios", 0},
                      {"undetected", "undetected_corruptions", 0},
                      {"read(us)", "read_us"}, {"write(us)", "write_us"},
                      {"wire_inj", "injected_wire", 0},
                      {"detected", "", 0},
                      {"latent", "injected_latent", 0},
                      {"", "client_digest_mismatches"},
                      {"", "server_digest_mismatches"},
                      {"", "server_bad_requests"},
                      {"", "verify_on_read_hits"},
                      {"repairs", "mirror_repairs", 0},
                      {"", "unrecoverable"}, {"", "scrubbed_bytes"},
                      {"clean", "latent_clean"}});
    bool accept = true;
    for (const IntegrityPoint &p : points) {
        const uint64_t detected = p.client_digest_mismatches +
                                  p.server_digest_mismatches +
                                  p.server_bad_requests;
        table.add({p.rate,
                   static_cast<double>(p.completions) /
                       sim::toSecs(times.run),
                   p.failures, p.undetected, p.read_us, p.write_us,
                   p.injected_wire, detected, p.injected_latent,
                   p.client_digest_mismatches, p.server_digest_mismatches,
                   p.server_bad_requests, p.verify_failures, p.repairs,
                   p.unrecoverable, p.scrubbed_bytes,
                   {p.latent_clean ? 1 : 0, p.latent_clean ? "yes" : "NO"}});
        // Acceptance: never an undetected corrupt block or data loss;
        // every latent error repaired; and at injection rates of
        // 1e-3+ the detection machinery visibly fired.
        accept = accept && p.undetected == 0 && p.unrecoverable == 0;
        accept = accept && p.latent_clean && p.repairs >= 1;
        if (p.rate >= 1e-3)
            accept = accept && p.injected_wire > 0 && detected > 0;
    }
    table.print();

    const IntegrityPoint &base = points.front();
    const IntegrityPoint &worst = points.back();
    std::printf("\n");
    suite.check(accept, "zero undetected corruptions, all latent errors "
                        "repaired, detection fired at 1e-3+");
    std::printf("digest overhead at rate 0: read %.1f us, write %.1f us; "
                "at worst rate: read %.1f us, write %.1f us\n",
                base.read_us, base.write_us, worst.read_us, worst.write_us);
    closingNote(out, "shape",
                "goodput degrades gracefully with corruption rate; every "
                "injected fault is detected (digest or verify-on-read) "
                "and repaired (retransmit or mirror rewrite); undetected "
                "corruptions are always zero");
    out.note("latent_injected_per_point",
             std::to_string(base.injected_latent));
    out.note("baseline_read_us", std::to_string(base.read_us));
    out.note("baseline_write_us", std::to_string(base.write_us));
}

struct DeterminismPhase
{
    const char *name;
    Backend backend;
    Layout layout;
    bool faults; ///< corruption + node crash/restart mid-run
};

struct DeterminismResult
{
    uint64_t completions = 0;
    uint64_t failures = 0;
    uint64_t events = 0;
    uint64_t same_tick = 0;
    std::string metrics_json;
};

constexpr int kDeterminismWorkers = 6;

bool
runDeterminismPhase(Suite &suite, const DeterminismPhase &phase,
                    sim::Tick run, sim::Tick drain, uint64_t span,
                    DeterminismResult &out)
{
    StorageParams storage_params = smallStorage();
    storage_params.layout = phase.layout;
    Testbed bed(phase.backend, HostParams::midSize(), storage_params,
                failureDetection(sim::msecs(100), 8), /*seed=*/7);
    if (!suite.connect(bed))
        return false;
    bed.resetStats();

    sim::Simulation &sim = bed.sim();
    sim::MemorySpace &mem = bed.host().memory();
    const uint64_t blocks = span / kIoBytes;
    const sim::Tick t_end = sim.now() + run;

    if (phase.faults) {
        bed.faults().setCorruptRate(5e-4);
        bed.faults().scheduleNodeOutage(sim.now() + run / 4,
                                        sim.now() + run / 2,
                                        *bed.servers().front());
    }

    std::vector<sim::Addr> bufs;
    for (int w = 0; w < kDeterminismWorkers; ++w)
        bufs.push_back(mem.allocate(kIoBytes));

    for (int w = 0; w < kDeterminismWorkers; ++w) {
        sim::spawn([](sim::Simulation &s, dsa::BlockDevice &dev,
                      sim::Rng rng, sim::Addr buffer, uint64_t nblocks,
                      sim::Tick start_stagger, sim::Tick end,
                      DeterminismResult &result) -> sim::Task<> {
            co_await s.sleep(start_stagger);
            while (s.now() < end) {
                const uint64_t offset =
                    rng.uniformInt(0, nblocks - 1) * kIoBytes;
                bool ok;
                if (rng.bernoulli(0.7))
                    ok = co_await dev.read(offset, kIoBytes, buffer);
                else
                    ok = co_await dev.write(offset, kIoBytes, buffer);
                (ok ? result.completions : result.failures)++;
            }
        }(sim, bed.device(), sim.forkRng(), bufs[w], blocks,
          sim::usecs(17) * (w + 1), t_end, out));
    }

    sim.runUntil(t_end);
    if (phase.faults)
        bed.faults().setCorruptRate(0.0);
    sim.runUntil(t_end + drain);

    out.events = sim.queue().firedCount();
    out.same_tick = sim.queue().sameTickFired();
    out.metrics_json = sim.metrics().toJson();
    for (sim::Addr buf : bufs)
        mem.free(buf);
    return true;
}

/** A9: event-tie shuffle race detection (DESIGN.md §8).
 *
 *  The whole BENCH_*.json trajectory rests on the simulator's promise
 *  that fault-free runs are bit-identical — and that no result
 *  depends on the *unspecified* ordering of events that land on the
 *  same tick. This item turns that promise into a checkable property:
 *  it runs a mixed workload — kDSA, wDSA, and a mirrored cDSA testbed
 *  under corruption plus a node crash/restart — under --tie-seed,
 *  which permutes the ordering of independently scheduled same-tick
 *  events by a seed-derived rank (the sim-domain analog of a thread
 *  schedule fuzzer).
 *
 *  The CI contract (ctest `abl_determinism_diff`): two runs under
 *  different `--tie-seed` values must produce byte-identical
 *  artifacts, full MetricRegistry snapshots included. Any state whose
 *  value leaks the tiebreak — a hash-order iteration, a same-tick
 *  arrival race that is not commutative — shows up as a byte diff
 *  here instead of silently skewing a future figure.
 *
 *  The tie seed is deliberately NOT recorded in the artifact: the
 *  artifact describes the simulated system, and the point is that
 *  the tiebreak must not be observable in it. */
void
abl_determinism(Suite &suite, util::BenchReporter &out)
{
    const sim::Tick run = out.quick() ? sim::msecs(300) : sim::msecs(1200);
    const sim::Tick drain = out.quick() ? sim::msecs(150) : sim::msecs(300);
    const uint64_t span = out.quick() ? 4 * util::kMiB : 8 * util::kMiB;
    const DeterminismPhase phases[] = {
        {"kdsa", Backend::Kdsa, Layout::Striped, /*faults=*/false},
        {"wdsa", Backend::Wdsa, Layout::Striped, /*faults=*/false},
        {"cdsa_mirror_faults", Backend::Cdsa, Layout::Mirrored,
         /*faults=*/true},
    };

    std::printf("Ablation A9: tie-shuffle determinism (tie seed %llu, %d "
                "workers, 8K mix; artifact must be byte-identical across "
                "seeds)\n",
                static_cast<unsigned long long>(suite.tie_seed),
                kDeterminismWorkers);
    // same_tick_events is invariant across shuffle seeds (a function of
    // the multiset of scheduled ticks), and evidence the run had
    // same-tick races for the shuffle to permute.
    Table table(out, {{"phase", "phase"}, {"completions", "completions", 0},
                      {"failed", "failed_ios", 0},
                      {"events", "events_fired", 0},
                      {"same_tick", "same_tick_events", 0},
                      {"metrics_crc32c", "metrics_crc32c", 0}});
    bool any_io = true;
    uint64_t ties = 0;
    for (const DeterminismPhase &phase : phases) {
        DeterminismResult result;
        if (!runDeterminismPhase(suite, phase, run, drain, span, result))
            return;
        table.add({phase.name, result.completions, result.failures,
                   result.events, result.same_tick,
                   util::crc32c(result.metrics_json.data(),
                                result.metrics_json.size())});
        // The full snapshot rides along so the byte-diff covers every
        // metric of every phase, not just the digest.
        out.note(std::string("metrics_") + phase.name, result.metrics_json);
        any_io = any_io && result.completions > 0;
        ties += result.same_tick;
    }
    table.print();

    std::printf("\n");
    suite.check(any_io, "every phase completed I/O");
    // A shuffle with nothing to permute would make the diff test
    // vacuous; require that same-tick ties actually occurred.
    suite.check(ties > 0,
                strprintf("same-tick ties to permute (%llu)",
                       static_cast<unsigned long long>(ties)));
    closingNote(out, "shape",
                "columns and the attached per-phase metrics snapshots are "
                "invariant under the tie-shuffle seed; a diff between two "
                "seeds is a determinism bug (same-tick ordering race)");
}

struct OverloadPhase
{
    Backend backend;
    db::ArrivalProcess process;
    double offered_iops;
    bool admission;
};

struct OverloadResult
{
    uint64_t offered = 0;
    uint64_t goodput = 0;
    uint64_t late = 0;
    uint64_t failed = 0;
    uint64_t overflow = 0;
    uint64_t shed = 0;    ///< server-side gate refusals
    bool drained = false; ///< every in-system request completed
    double p99_ms = 0;
    double p999_ms = 0;
    uint32_t metrics_crc = 0;
};

constexpr sim::Tick kDeadline = sim::msecs(100);

bool
runOverloadPhase(Suite &suite, const OverloadPhase &phase, sim::Tick window,
                 sim::Tick drain_cap, uint64_t tenants, OverloadResult &out)
{
    StorageParams storage_params = smallStorage();
    storage_params.admission.enabled = phase.admission;
    // Sized against the transport's credit window (64 requests per
    // connection): the gate must be the *narrower* bound, so excess
    // arrivals inside the window are shed rather than parked, and a
    // full admission queue still drains well inside the deadline at
    // disk-bound capacity.
    storage_params.admission.service_slots = 16;
    storage_params.admission.max_queue_depth = 16;
    storage_params.admission.drr_quantum = 64 * util::kKiB;

    Testbed bed(phase.backend, HostParams::midSize(), storage_params, {},
                /*seed=*/7);
    if (!suite.connect(bed))
        return false;
    sim::Simulation &sim = bed.sim();

    db::OpenLoopConfig load;
    load.tenants = tenants;
    load.process = phase.process;
    load.offered_iops = phase.offered_iops;
    load.deadline = kDeadline;
    db::OpenLoopDriver driver(bed.host(), bed.device(), load,
                              sim.forkRng());
    // No warmup: counting from the first arrival keeps the
    // disposition balance exact (offered == overflow + failed + late +
    // goodput once drained), which the item checks.
    bed.resetStats();
    driver.start();
    const sim::Tick t_end = sim.now() + window;
    sim.runUntil(t_end);
    driver.stop();

    // Drain what is in the system (finite: the client queue is
    // bounded), under a hard cap so a collapse phase cannot stall the
    // harness.
    const sim::Tick t_cap = t_end + drain_cap;
    while (driver.inSystem() > 0 && sim.now() < t_cap)
        sim.runUntil(sim.now() + sim::msecs(20));
    out.drained = driver.inSystem() == 0;

    out.offered = driver.offeredCount();
    out.goodput = driver.goodputCount();
    out.late = driver.lateCount();
    out.failed = driver.failedCount();
    out.overflow = driver.overflowCount();
    for (const auto &node : bed.nodes())
        out.shed += node->shedCount();
    out.p99_ms = driver.latencyHistogram().quantile(0.99) / 1.0e6;
    out.p999_ms = driver.latencyHistogram().quantile(0.999) / 1.0e6;
    const std::string metrics = sim.metrics().toJson();
    out.metrics_crc = util::crc32c(metrics.data(), metrics.size());
    return true;
}

std::string
overloadPhaseName(const OverloadPhase &phase)
{
    return std::string(backendName(phase.backend)) + "_" +
           db::arrivalProcessName(phase.process) + "_" +
           std::to_string(static_cast<uint64_t>(phase.offered_iops)) +
           (phase.admission ? "_gate" : "_nogate");
}

/** A10: open-loop overload and admission control (DESIGN.md §12).
 *
 *  The paper's experiments drive V3 closed-loop, where offered load
 *  self-limits at saturation. This item asks the question a
 *  consolidated storage service faces instead: what happens when a
 *  million-tenant open-loop population pushes offered load through
 *  and past saturation? db::OpenLoopDriver generates the arrivals
 *  (Zipf-popular tenants over bounded connections); the sweep runs
 *  each backend (cDSA, kDSA, and the iSCSI/TCP rival) at rising
 *  offered IOPS, with the server-side admission gate off and on.
 *
 *  Expected shape, checked at the top load point: with the gate OFF
 *  the system collapses — queues absorb the excess, every completion
 *  blows the deadline, goodput falls toward zero. With the gate ON
 *  the server sheds the excess fast (Busy, no retransmission),
 *  admitted requests keep completing inside the deadline, and goodput
 *  plateaus near capacity with bounded p99.9 — graceful degradation
 *  instead of collapse. Two extra phases exercise the bursty and
 *  diurnal arrival shapes under the gate.
 *
 *  Determinism: phase results and the per-phase metric-snapshot CRCs
 *  must be invariant under the event-tie shuffle seed (ctest
 *  `abl_overload_determinism_diff` byte-compares two artifacts). */
void
abl_overload(Suite &suite, util::BenchReporter &out)
{
    const sim::Tick window = out.quick() ? sim::msecs(300) : sim::msecs(600);
    // Hard bound on the post-window drain.
    const sim::Tick drain_cap =
        out.quick() ? sim::msecs(4000) : sim::msecs(8000);
    const uint64_t tenants = out.quick() ? 50'000 : 1'000'000;
    const std::vector<double> loads =
        out.quick() ? std::vector<double>{1'000, 20'000}
                    : std::vector<double>{1'000, 4'000, 20'000, 40'000};
    const Backend backends[] = {Backend::Cdsa, Backend::Kdsa,
                                Backend::Iscsi};

    std::vector<OverloadPhase> phases;
    for (const Backend backend : backends)
        for (const double iops : loads)
            for (const bool admission : {false, true})
                phases.push_back({backend, db::ArrivalProcess::Poisson,
                                  iops, admission});
    // The modulated arrival shapes, under the gate at the top load:
    // bursts and diurnal swings must degrade as gracefully as the
    // steady stream.
    phases.push_back({Backend::Cdsa, db::ArrivalProcess::Bursty,
                      loads.back() / 2, true});
    phases.push_back({Backend::Cdsa, db::ArrivalProcess::Diurnal,
                      loads.back() / 2, true});

    std::printf("Ablation A10: open-loop overload, %llu tenants, deadline "
                "%.0f ms (gate off: collapse; gate on: shed + plateau)\n",
                static_cast<unsigned long long>(tenants),
                sim::toMsecs(kDeadline));
    Table table(out, {{"phase", "phase"}, {"", "backend"}, {"", "process"},
                      {"", "offered_iops"}, {"", "admission"},
                      {"offered", "offered", 0}, {"goodput", "goodput", 0},
                      {"late", "late", 0}, {"failed", "failed", 0},
                      {"overflow", "overflow", 0}, {"shed", "shed", 0},
                      {"", "drained"}, {"p99_ms", "p99_ms", 2},
                      {"p999_ms", "p999_ms", 2}, {"", "metrics_crc32c"}});
    // Each backend's top Poisson load point, gate off and on.
    struct TopLoad
    {
        OverloadResult off, on;
    };
    TopLoad top[std::size(backends)];
    bool accounted = true; // exactly-once disposition, every phase
    for (const OverloadPhase &phase : phases) {
        OverloadResult result;
        if (!runOverloadPhase(suite, phase, window, drain_cap, tenants,
                              result))
            return;
        accounted = accounted && result.drained &&
                    result.overflow + result.failed + result.late +
                            result.goodput ==
                        result.offered;
        table.add({overloadPhaseName(phase), backendName(phase.backend),
                   db::arrivalProcessName(phase.process),
                   phase.offered_iops, phase.admission ? 1 : 0,
                   result.offered, result.goodput, result.late,
                   result.failed, result.overflow, result.shed,
                   result.drained ? 1 : 0, result.p99_ms, result.p999_ms,
                   result.metrics_crc});
        if (phase.process == db::ArrivalProcess::Poisson &&
            phase.offered_iops == loads.back()) {
            TopLoad &t = top[std::find(std::begin(backends),
                                       std::end(backends), phase.backend) -
                             std::begin(backends)];
            (phase.admission ? t.on : t.off) = result;
        }
    }
    table.print();

    std::printf("\n");
    suite.check(accounted, "every arrival disposed exactly once (overflow "
                           "+ failed + late + goodput == offered, all "
                           "phases drained)");
    for (size_t b = 0; b < std::size(backends); ++b) {
        const TopLoad &t = top[b];
        suite.check(t.on.goodput > t.off.goodput && t.on.shed > 0,
                    strprintf("%s at top load: goodput on/off %llu/%llu, shed "
                           "%llu, p99.9 on %.2f ms",
                           backendName(backends[b]),
                           static_cast<unsigned long long>(t.on.goodput),
                           static_cast<unsigned long long>(t.off.goodput),
                           static_cast<unsigned long long>(t.on.shed),
                           t.on.p999_ms));
    }
    closingNote(out, "shape",
                "per backend at the top offered load: admission off "
                "collapses (goodput toward zero, unbounded tail), "
                "admission on sheds (shed > 0) and keeps goodput and p99.9 "
                "bounded; columns and metrics_crc32c are invariant under "
                "--tie-seed");
}

enum class ClusterPhase
{
    Scripted,
    MetaPrimary,
    Chaos,
};

const char *
clusterPhaseName(ClusterPhase kind)
{
    switch (kind) {
      case ClusterPhase::Scripted: return "scripted";
      case ClusterPhase::MetaPrimary: return "meta_primary";
      case ClusterPhase::Chaos: return "chaos";
    }
    return "?";
}

struct ClusterTimes
{
    sim::Tick window;
    sim::Tick bucket;
    sim::Tick crash;   ///< scripted/meta_primary outage start
    sim::Tick restart; ///< scripted/meta_primary outage end
};

struct ClusterShape
{
    int nodes;
    int disks_per_node;
    int workers;
    uint32_t warehouses;
};

struct ClusterResult
{
    uint64_t committed = 0;
    std::vector<uint64_t> buckets;
    double pre_rate = 0;  ///< mean commits/bucket before the crash
    double post_rate = 0; ///< mean commits/bucket at the end
    double recovery = 0;  ///< post_rate / pre_rate
    uint64_t failovers = 0;
    uint64_t readmits = 0;
    uint64_t elections = 0;
    uint64_t epoch = 0;
    uint64_t stale_redirects = 0;
    uint64_t driven_failovers = 0;
    uint64_t chaos_outages = 0;
    bool whole = false;       ///< every mirror back to full health
    bool audit_clean = false; ///< the durability oracle
    uint64_t audited_blocks = 0;
    uint32_t metrics_crc = 0;
};

bool
runClusterPhase(Suite &suite, ClusterPhase kind, const ClusterShape &shape,
                const ClusterTimes &times, ClusterResult &out)
{
    StorageParams storage_params;
    storage_params.v3_nodes = shape.nodes;
    storage_params.disks_per_node = shape.disks_per_node;
    storage_params.cache_bytes_per_node = 8 * util::kMiB;
    storage_params.layout = Layout::Cluster;
    storage_params.mirror.probe_interval = sim::msecs(5);
    // Failure detection: heartbeats (2 ms probes, 3 misses) drive
    // proactive failover long before the DSA client burns its own
    // ~90 ms retransmit/reconnect budget against the dead box.
    Testbed bed(Backend::Cdsa, HostParams::midSize(), storage_params,
                failureDetection(sim::msecs(20), 2), /*seed=*/7);
    if (!suite.connect(bed))
        return false;
    sim::Simulation &sim = bed.sim();

    // The audit interposes between the database and the directory:
    // every page write is stamped through the real data path.
    cluster::DurabilityAudit audit(sim, bed.host().memory(), bed.device(),
                                   /*block_size=*/8192);

    tpcc::TpccConfig tpcc_config;
    tpcc_config.warehouses = shape.warehouses;
    tpcc_config.bytes_per_warehouse = util::kMiB;
    tpcc::Workload workload(tpcc_config, audit.capacity(), sim.forkRng());
    db::OltpConfig oltp_config;
    oltp_config.workers = shape.workers;
    oltp_config.polling_completion = true; // cDSA
    db::OltpEngine engine(bed.host(), audit, workload, oltp_config);

    // Fault schedule.
    std::vector<vi::NodeFaultTarget *> targets = bed.nodeTargets();
    switch (kind) {
      case ClusterPhase::Scripted:
        // A pure data box: the last node hosts no metadata replica.
        bed.faults().scheduleNodeOutage(times.crash, times.restart,
                                        *targets.back());
        break;
      case ClusterPhase::MetaPrimary:
        // Box 0 co-hosts the genesis metadata primary AND shard 0's
        // leg 0: one crash exercises re-election and failover.
        bed.faults().scheduleNodeOutage(times.crash, times.restart,
                                        *targets.front());
        break;
      case ClusterPhase::Chaos: {
        vi::FaultInjector::ChaosConfig chaos;
        chaos.begin = times.crash;
        chaos.end = times.window - sim::msecs(200);
        chaos.mean_gap = sim::msecs(120);
        chaos.min_down = sim::msecs(30);
        chaos.max_down = sim::msecs(80);
        bed.faults().startChaos(chaos, targets);
        break;
      }
    }

    // Drive the engine by hand: OltpEngine::run() ends with a full
    // Simulation::run() drain, which never terminates once the
    // cluster control loops are spawned. runUntil() only, throughout.
    engine.start();
    const size_t nbuckets = static_cast<size_t>(times.window / times.bucket);
    out.buckets.assign(nbuckets, 0);
    uint64_t last_committed = 0;
    for (size_t b = 0; b < nbuckets; ++b) {
        sim.runUntil(static_cast<sim::Tick>(b + 1) * times.bucket);
        const uint64_t committed = engine.committedCount();
        out.buckets[b] = committed - last_committed;
        last_committed = committed;
    }
    engine.stop();
    // Workers stop at their next transaction boundary; give the
    // in-flight transactions a fixed drain.
    sim.runUntil(sim.now() + sim::msecs(200));

    // Quiesce: every leg readmitted, every dirty log drained, under a
    // hard cap so a wedged resync cannot stall the harness.
    const sim::Tick quiesce_cap = sim.now() + sim::msecs(5000);
    auto mirrors_whole = [&bed] {
        for (const auto &mirror : bed.mirrors()) {
            if (mirror->degraded() || mirror->dirtyBytes() > 0)
                return false;
        }
        return true;
    };
    while (!mirrors_whole() && sim.now() < quiesce_cap)
        sim.runUntil(sim.now() + sim::msecs(10));
    out.whole = mirrors_whole();

    // Stop the control plane, then run the durability oracle: read
    // every touched block back from both replicas.
    bed.directory()->stopControl();
    bool audit_done = false, audit_clean = false;
    sim::spawn([](cluster::DurabilityAudit &a, bool &done,
                  bool &clean) -> sim::Task<> {
        clean = co_await a.audit(/*replica_count=*/2);
        done = true;
    }(audit, audit_done, audit_clean));
    const sim::Tick audit_cap = sim.now() + sim::msecs(20000);
    while (!audit_done && sim.now() < audit_cap)
        sim.runUntil(sim.now() + sim::msecs(50));
    out.audit_clean = audit_done && audit_clean;
    out.audited_blocks = audit.auditedBlocks();

    // Goodput recovery: mean commits/bucket fully before the crash
    // (skipping the cold-start bucket) vs the final two buckets.
    const size_t crash_bucket = static_cast<size_t>(times.crash / times.bucket);
    double pre = 0;
    size_t pre_n = 0;
    for (size_t b = 1; b < crash_bucket && b < nbuckets; ++b) {
        pre += static_cast<double>(out.buckets[b]);
        ++pre_n;
    }
    out.pre_rate = pre_n ? pre / static_cast<double>(pre_n) : 0;
    double post = 0;
    size_t post_n = 0;
    for (size_t b = nbuckets >= 2 ? nbuckets - 2 : 0; b < nbuckets; ++b) {
        post += static_cast<double>(out.buckets[b]);
        ++post_n;
    }
    out.post_rate = post_n ? post / static_cast<double>(post_n) : 0;
    out.recovery = out.pre_rate > 0 ? out.post_rate / out.pre_rate : 0;

    out.committed = engine.committedCount();
    for (const auto &mirror : bed.mirrors()) {
        out.failovers += mirror->failoverCount();
        out.readmits += mirror->readmitCount();
    }
    out.elections = bed.meta()->electionCount();
    out.epoch = bed.meta()->committedEpoch();
    out.stale_redirects = bed.directory()->staleRedirectCount();
    out.driven_failovers = bed.directory()->drivenFailoverCount();
    out.chaos_outages = bed.faults().chaosOutageCount();
    const std::string metrics = sim.metrics().toJson();
    out.metrics_crc = util::crc32c(metrics.data(), metrics.size());
    return true;
}

/** A11: the clustered volume service under fire (src/cluster;
 *  DESIGN.md §7.6).
 *
 *  Turns the RAID-10 testbed into the full fault-tolerant volume
 *  service — placement-metadata service with a lease-holding primary,
 *  heartbeat failure detection, epoch-checked client routing — and
 *  crashes whole storage boxes under TPC-C load. Three phases, each
 *  on a fresh testbed:
 *
 *   - scripted: one data node fail-stops mid-run and returns; the
 *     goodput-through-crash curve must recover to >= 90% of the
 *     pre-crash rate after resync and readmission;
 *   - meta_primary: the box co-hosting the metadata primary
 *     fail-stops; the lease lapses, a new primary is elected, the
 *     epoch bumps and stale clients are redirected — while its data
 *     leg also fails over and comes back;
 *   - chaos: a seeded random crash/restart campaign over every box
 *     (one down at a time, so every shard keeps a survivor).
 *
 *  Every phase wraps the volume in cluster::DurabilityAudit: each
 *  write stamps a version through the real data path, and at quiesce
 *  every touched block is read back from both replicas. Each phase's
 *  check carries the durability oracle — a single lost or foreign
 *  block fails it. Columns and per-phase metric CRCs must be
 *  invariant under --tie-seed (ctest abl_cluster_determinism_diff). */
void
abl_cluster(Suite &suite, util::BenchReporter &out)
{
    const ClusterShape shape =
        out.quick() ? ClusterShape{8, 4, 16, 48} : ClusterShape{16, 6, 32, 96};
    const ClusterTimes times =
        out.quick() ? ClusterTimes{sim::msecs(1200), sim::msecs(100),
                                   sim::msecs(300), sim::msecs(600)}
                    : ClusterTimes{sim::msecs(2400), sim::msecs(100),
                                   sim::msecs(600), sim::msecs(1200)};

    std::printf("Ablation A11: clustered volume service under crashes (%d "
                "nodes, %d shards, TPC-C x%d workers)\n",
                shape.nodes, shape.nodes / 2, shape.workers);
    std::printf("oracle: every committed write durable on a surviving "
                "replica at quiesce\n\n");
    Table table(out, {{"phase", "phase"}, {"committed", "committed", 0},
                      {"pre/bkt", "pre_rate", 0},
                      {"post/bkt", "post_rate", 0},
                      {"recovery", "recovery", 2},
                      {"failovers", "failovers", 0},
                      {"readmits", "readmits", 0},
                      {"elections", "elections", 0}, {"epoch", "epoch", 0},
                      {"redirects", "stale_redirects", 0},
                      {"", "driven_failovers"}, {"", "chaos_outages"},
                      {"", "mirrors_whole"}, {"", "audited_blocks"},
                      {"audit", "audit_clean"}, {"", "metrics_crc32c"},
                      {"", "goodput_curve"}});
    for (const ClusterPhase kind : {ClusterPhase::Scripted,
                                    ClusterPhase::MetaPrimary,
                                    ClusterPhase::Chaos}) {
        ClusterResult result;
        if (!runClusterPhase(suite, kind, shape, times, result))
            return;
        const char *name = clusterPhaseName(kind);
        std::string curve;
        for (size_t b = 0; b < result.buckets.size(); ++b)
            curve += (b ? "," : "") + std::to_string(result.buckets[b]);
        table.add({name, result.committed, result.pre_rate,
                   result.post_rate, result.recovery, result.failovers,
                   result.readmits, result.elections, result.epoch,
                   result.stale_redirects, result.driven_failovers,
                   result.chaos_outages, result.whole ? 1 : 0,
                   result.audited_blocks,
                   {result.audit_clean ? 1 : 0,
                    result.audit_clean ? "clean" : "VIOLATED"},
                   result.metrics_crc, curve});

        bool phase_ok = result.audit_clean && result.whole &&
                        result.committed > 0;
        switch (kind) {
          case ClusterPhase::Scripted:
            phase_ok = phase_ok && result.recovery >= 0.90 &&
                       result.driven_failovers >= 1 && result.readmits >= 1;
            break;
          case ClusterPhase::MetaPrimary:
            phase_ok = phase_ok && result.elections >= 1 &&
                       result.stale_redirects >= 1 && result.readmits >= 1;
            break;
          case ClusterPhase::Chaos:
            phase_ok = phase_ok && result.chaos_outages >= 2;
            break;
        }
        suite.check(phase_ok,
                    strprintf("%s durable %s, whole %s, recovery %.2f, "
                           "elections %llu, outages %llu",
                           name, result.audit_clean ? "yes" : "NO",
                           result.whole ? "yes" : "NO", result.recovery,
                           static_cast<unsigned long long>(result.elections),
                           static_cast<unsigned long long>(
                               result.chaos_outages)));
    }
    std::printf("\n");
    table.print();
    closingNote(out, "shape",
                "goodput dips through each crash and recovers to >= 90% "
                "after resync; metadata-primary loss costs one election "
                "and a redirect storm, never durability; the chaos "
                "campaign ends with every block durable on both replicas");
    out.note("oracle",
             "DurabilityAudit: stamp every written block, read both "
             "replicas back at quiesce; lost or foreign stamps fail the "
             "bench");
}

// Rival transport: VI vs iSCSI/TCP (DESIGN.md §11) --------------------

/** R1: the Figure 3 request-size sweep re-run head-to-head against
 *  software iSCSI over TCP.
 *
 *  Single outstanding cached read, 512 B - 16 KB, on identical storage
 *  nodes; the only variable is the transport. Two columns per backend:
 *  end-to-end latency and host CPU busy per I/O — the paper's core
 *  claim is that the second gap (kernel transport overhead:
 *  interrupts, socket copies, checksums, syscalls) is what VI removes,
 *  and it shows even when wire latency is comparable.
 *
 *  Expected shape: iSCSI latency sits above every DSA flavor and grows
 *  faster with size (per-segment costs); iSCSI host CPU per I/O is a
 *  multiple of kDSA's and an order of magnitude over cDSA's. */
void
rival_latency(Suite &suite, util::BenchReporter &out)
{
    const int iters = out.quick() ? 12 : 80;
    std::printf("Rival transport: cached read latency (ms) and host CPU per "
                "I/O (us), VI backends vs iSCSI/TCP\n\n");
    const uint64_t sizes[] = {512, 1024, 2048, 4096, 8192, 16384};
    const Backend backends[] = {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa,
                                Backend::Iscsi};
    std::vector<double> ms[std::size(backends)];
    std::vector<double> cpu_us[std::size(backends)];
    for (size_t c = 0; c < std::size(backends); ++c) {
        MicroRig rig(rigConfig(backends[c]));
        for (const uint64_t size : sizes) {
            const auto r = rig.measureLatency(size, true, iters, true);
            ms[c].push_back(r.mean_us / 1e3);
            cpu_us[c].push_back(r.cpu_overhead_us);
        }
        // Last wins: the snapshot is the iSCSI rig's, whose registry
        // carries the per-layer iscsi.*.cpu.*_ns attribution counters.
        out.attachMetricsJson(rig.sim().metrics().toJson());
    }
    Table table(out, {{"size", "size"}, {"kDSA ms", "kdsa_ms", 3},
                      {"wDSA ms", "wdsa_ms", 3}, {"cDSA ms", "cdsa_ms", 3},
                      {"iSCSI ms", "iscsi_ms", 3},
                      {"kDSA cpu", "kdsa_cpu_us"}, {"", "wdsa_cpu_us"},
                      {"cDSA cpu", "cdsa_cpu_us"},
                      {"iSCSI cpu", "iscsi_cpu_us"}});
    // The headline check: at every size the kernel transport costs
    // more host CPU than any VI flavor.
    bool cpu_gap = true;
    for (size_t i = 0; i < std::size(sizes); ++i) {
        table.add({sizeCell(sizes[i]), ms[0][i], ms[1][i], ms[2][i],
                   ms[3][i], cpu_us[0][i], cpu_us[1][i], cpu_us[2][i],
                   cpu_us[3][i]});
        for (size_t c = 0; c + 1 < std::size(backends); ++c)
            cpu_gap = cpu_gap && cpu_us[3][i] > cpu_us[c][i];
    }
    table.print();
    std::printf("\n");
    suite.check(cpu_gap,
                "iSCSI host CPU/IO above every DSA flavor at every size");
    closingNote(out, "anchors",
                "iSCSI latency above all DSA flavors, host CPU/IO a "
                "multiple of kDSA and an order over cDSA");
}

/** R2: the Figure 6 cached-read scaling sweep re-run VI-vs-iSCSI.
 *
 *  Request sizes x outstanding counts over the same 110 MB/s fabric.
 *  Both transports can eventually fill the wire — the paper's point
 *  is the *price*: iSCSI reaches a given MB/s burning far more host
 *  CPU per I/O (per-segment interrupts, socket copies, Internet
 *  checksum), so the host CPU-per-I/O column is reported next to the
 *  bandwidth.
 *
 *  Expected shape: at deep queues both transports approach the VI
 *  ceiling; iSCSI needs more outstanding requests to get there and its
 *  cpu_us/IO stays a multiple of kDSA's at every point. */
void
rival_throughput(Suite &, util::BenchReporter &out)
{
    const sim::Tick window = out.quick() ? sim::msecs(20) : sim::msecs(120);
    const std::vector<uint64_t> sizes =
        out.quick() ? std::vector<uint64_t>{8192}
                    : std::vector<uint64_t>{8192, 65536};
    const std::vector<int> outstanding =
        out.quick() ? std::vector<int>{1, 4, 16}
                    : std::vector<int>{1, 2, 4, 8, 16};
    std::printf("Rival transport: cached read throughput (MB/s) and host "
                "CPU per I/O (us)\n\n");
    Table table(out, {{"backend", "backend"}, {"size", "size"},
                      {"I/Os", "outstanding", 0}, {"MB/s", "mbps"},
                      {"cpu us/IO", "cpu_us_per_io"}});
    for (const Backend backend :
         {Backend::Kdsa, Backend::Cdsa, Backend::Iscsi}) {
        MicroRig::Config config = rigConfig(backend);
        config.cache_bytes = 512ull * util::kMiB;
        MicroRig rig(config);
        for (const uint64_t size : sizes) {
            for (const int n : outstanding) {
                const auto r =
                    rig.measureThroughput(size, true, n, window, true);
                table.add({backendName(backend), sizeCell(size), n, r.mbps,
                           r.cpu_us_per_io});
            }
        }
        // Last wins: the snapshot is the iSCSI rig's.
        out.attachMetricsJson(rig.sim().metrics().toJson());
    }
    table.print();
    closingNote(out, "anchors",
                "bandwidth parity at depth, host CPU/IO gap stays");
}

/** Sums the "count" of every metric whose path starts with @p prefix
 *  and ends with @p suffix (per-session metric prefixes are
 *  uniquified, so a sum over all sessions is wanted). */
double
sumMetrics(const util::JsonValue &root, const std::string &prefix,
           const std::string &suffix)
{
    double total = 0;
    for (const auto &[path, value] : root.object) {
        if (path.rfind(prefix, 0) != 0 || path.size() < suffix.size() ||
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        if (const util::JsonValue *count = value.find("count");
            count && count->isNumber())
            total += count->number;
    }
    return total;
}

/** R3: the Figure 10/13 experiment re-run with all four network
 *  backends — kDSA, wDSA, cDSA and software iSCSI/TCP — on the
 *  mid-size platform. The VI runs are fig13's.
 *
 *  Reported per backend: tpmC, I/O rate, and the host CPU overhead
 *  per I/O (all non-SQL busy time, i.e. what the transport and OS
 *  cost the database). For iSCSI the overhead gap is decomposed per
 *  layer from the iscsi.init.cpu.*_ns attribution counters:
 *  interrupts, protocol work, socket copies, checksums/digests,
 *  syscall crossings — each a cost the VI transport architecture
 *  removes or bypasses (the paper's Table: per-layer cost map).
 *
 *  Checked: iSCSI host CPU overhead per I/O must be strictly above
 *  every DSA flavor's, and the per-layer decomposition must be
 *  non-trivial (interrupt, copy and checksum layers all nonzero).
 *  Under --tie-seed the artifact must not move: ctest
 *  `rival_tpmc_determinism_diff` byte-compares two seeds. */
void
rival_tpmc(Suite &suite, util::BenchReporter &out)
{
    std::printf("Rival transport: TPC-C on the mid-size platform, all four "
                "network backends\n\n");
    const int host_cpus = HostParams::midSize().cpus;
    Table table(out, {{"backend", "backend"}, {"tpmC", "tpmc", 0},
                      {"IO/s", "io_per_second", 0},
                      {"cpu us/IO", "host_cpu_overhead_us_per_io"},
                      {"cache hit%", "cache_hit_pct"},
                      {"interrupts", "host_interrupts", 0},
                      {"", "retransmits"}, {"", "metrics_crc32c"}});
    std::vector<double> overhead_us;
    const TpccRun *iscsi = nullptr;
    for (const Backend backend :
         {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa, Backend::Iscsi}) {
        const TpccRun &run =
            suite.tpcc(tpccConfig(Platform::MidSize, backend), out);
        const TpccRunResult &result = run.second;
        // Host CPU overhead per I/O: every non-SQL busy cycle on the
        // database host, normalized by the I/O rate. cpu_breakdown
        // entries are shares of total host capacity, so scale by the
        // CPU count to get busy CPU-seconds per wall second.
        double busy_share = 0;
        for (size_t c = 0; c < osmodel::kCpuCatCount; ++c)
            busy_share += result.oltp.cpu_breakdown[c];
        const double sql_share = result.oltp.cpu_breakdown[static_cast<size_t>(
            osmodel::CpuCat::Sql)];
        overhead_us.push_back(result.oltp.io_per_second > 0
                                  ? (busy_share - sql_share) * host_cpus /
                                        result.oltp.io_per_second * 1e6
                                  : 0.0);
        // metrics_crc32c covers each backend's full snapshot for the
        // determinism diff; the iSCSI one is the artifact's metrics.
        table.add({backendName(backend), result.oltp.tpmc,
                   result.oltp.io_per_second, overhead_us.back(),
                   result.server_cache_hit * 100, result.host_interrupts,
                   result.retransmits,
                   util::crc32c(result.metrics_json.data(),
                                result.metrics_json.size())});
        iscsi = &run;
    }
    table.print();

    // Per-layer decomposition of the iSCSI gap, from the host-side
    // (initiator) attribution counters, over the executed window
    // (--quick shortens it).
    const auto parsed = util::JsonValue::parse(iscsi->second.metrics_json);
    const double iscsi_ios = iscsi->second.oltp.io_per_second *
                             sim::toSecs(iscsi->first.window);
    bool layers_ok = false;
    if (parsed && parsed->isObject() && iscsi_ios > 0) {
        struct Layer
        {
            const char *key;
            const char *suffix;
            const char *vi_counterpart;
        };
        const Layer layers[] = {
            {"intr", ".cpu.intr_ns",
             "one-shot armed completion interrupts + polling"},
            {"proto", ".cpu.proto_ns",
             "descriptor-based work queues (no PDU build/parse, no "
             "segmentation)"},
            {"copy", ".cpu.copy_ns", "RDMA direct data placement (zero-copy)"},
            {"crc", ".cpu.crc_ns",
             "NIC-level CRC (no software checksum or digest)"},
            {"syscall", ".cpu.syscall_ns",
             "user-level doorbells (no kernel crossing)"},
        };
        std::printf("\niSCSI host-side overhead per I/O, by layer (what VI "
                    "removes):\n");
        // One table row per layer, one artifact row for all of them.
        util::TextTable layer_table({"layer", "us/IO", "VI counterpart"});
        out.beginRow();
        out.col("backend", std::string("iSCSI(layers)"));
        std::map<std::string, double> ns;
        for (const Layer &layer : layers) {
            ns[layer.key] = sumMetrics(*parsed, "iscsi.init", layer.suffix);
            const double us_per_io = ns[layer.key] / 1e3 / iscsi_ios;
            layer_table.addRow({layer.key, TextTable::num(us_per_io, 2),
                                layer.vi_counterpart});
            out.col(std::string(layer.key) + "_us_per_io", us_per_io);
        }
        layer_table.print();
        layers_ok = ns["intr"] > 0 && ns["copy"] > 0 && ns["crc"] > 0;
    }

    std::printf("\n");
    suite.check(std::all_of(overhead_us.begin(), overhead_us.end() - 1,
                            [&](double us) { return overhead_us.back() > us; }),
                "iSCSI host CPU overhead/IO strictly above every DSA flavor");
    suite.check(layers_ok, "interrupt/copy/checksum layers all charged");
    closingNote(out, "anchors",
                "iSCSI host overhead/IO above kDSA, wDSA and cDSA; gap "
                "decomposes into interrupts, protocol work, copies, "
                "checksums and syscalls");
}

struct Item
{
    const char *name;
    void (*run)(Suite &, util::BenchReporter &);
};

/** Every item, in paper order. tools/docs_drift.cmake reads the names
 *  from this table: each must be documented in EXPERIMENTS.md. */
const Item kItems[] = {
    {"table1_2", table1_2}, {"fig03", fig03}, {"fig04", fig04},
    {"fig05", fig05}, {"fig06", fig06}, {"fig07", fig07},
    {"fig08", fig08}, {"fig09", fig09}, {"fig10", fig10},
    {"fig11", fig11}, {"fig12", fig12}, {"fig13", fig13},
    {"fig14", fig14}, {"abl_dereg_region", abl_dereg_region},
    {"abl_intr_threshold", abl_intr_threshold},
    {"abl_poll_interval", abl_poll_interval},
    {"abl_cache_policy", abl_cache_policy},
    {"abl_flow_credits", abl_flow_credits},
    {"abl_miniport", abl_miniport}, {"abl_failover", abl_failover},
    {"abl_integrity", abl_integrity},
    {"abl_determinism", abl_determinism},
    {"abl_overload", abl_overload}, {"abl_cluster", abl_cluster},
    {"rival_latency", rival_latency},
    {"rival_throughput", rival_throughput}, {"rival_tpmc", rival_tpmc},
};

/** Parses a whole number (decimal, or 0x-prefixed hex). */
bool
parseSeed(const char *text, uint64_t &seed)
{
    char *end = nullptr;
    seed = std::strtoull(text, &end, 0);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Suite suite;
    std::string json_dir;
    std::vector<const Item *> items;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Item *item =
            std::find_if(std::begin(kItems), std::end(kItems),
                         [&](const Item &it) { return arg == it.name; });
        if (arg == "--quick") {
            suite.quick = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_dir = argv[++i];
        } else if (arg == "--tie-seed" && i + 1 < argc &&
                   parseSeed(argv[i + 1], suite.tie_seed)) {
            ++i;
        } else if (item != std::end(kItems)) {
            items.push_back(item);
        } else {
            std::fprintf(stderr,
                         "paper_suite: bad argument '%s'\nusage: "
                         "paper_suite [--quick] [--tie-seed N] "
                         "[--json DIR] [ITEM...]\n",
                         argv[i]);
            return 2;
        }
    }
    if (!json_dir.empty() && !std::filesystem::is_directory(json_dir)) {
        std::fprintf(stderr, "paper_suite: --json %s is not a directory\n",
                     json_dir.c_str());
        return 2;
    }
    if (items.empty()) {
        for (const Item &item : kItems)
            items.push_back(&item);
    }

    bool ok = true;
    for (size_t i = 0; i < items.size(); ++i) {
        const std::string name = items[i]->name;
        util::BenchReporter out(
            name, suite.quick,
            json_dir.empty() ? "" : json_dir + "/BENCH_" + name + ".json");
        if (i > 0)
            std::printf("\n");
        items[i]->run(suite, out);
        std::fflush(stdout);
        ok &= out.write();
    }
    std::fprintf(stderr,
                 "paper_suite: %zu TPC-C runs executed, %d reused\n",
                 suite.runs.size(), suite.reused);
    return ok && !suite.failed ? 0 : 1;
}
