/**
 * @file
 * The paper's evaluation as one binary: Tables 1-2, Figures 3-14 and
 * the DESIGN.md ablations A1-A5 and A7, each an *item* that prints
 * its paper-style table and records it as a schema-1 artifact.
 *
 *   paper_suite [--quick] [--json DIR] [ITEM...]
 *
 * No items runs them all, in paper order. `--json DIR` writes
 * DIR/BENCH_<item>.json per item; `--quick` shrinks every item to
 * smoke scale. Every TPC-C run goes through one memo keyed by the
 * whole scenarios::TpccRunConfig, so a configuration several figures
 * plot runs once per process: fig10's runs are fig11's bars and
 * fig09's top step, fig13's V3 points are fig14's bars and fig12's
 * top step. runTpcc() is a pure function of its config (DESIGN.md
 * §8), so a shared run writes what a lone item would; ctest
 * `paper_suite_shared_vs_solo` holds the suite to that.
 */

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dsa/reg_cache.hh"
#include "scenarios/microbench.hh"
#include "scenarios/tpcc_run.hh"
#include "sim/random.hh"
#include "storage/mq_cache.hh"
#include "util/bench_reporter.hh"
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

    void
    add(const std::vector<Cell> &cells)
    {
        out_.beginRow();
        std::vector<std::string> printed;
        for (size_t c = 0; c < cells.size(); ++c) {
            const Column &column = columns_.at(c);
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

using TpccRun = std::pair<const TpccRunConfig, TpccRunResult>;

/** What the items of one process share: the TPC-C run memo. */
struct Suite
{
    bool quick = false;
    std::map<TpccRunConfig, TpccRunResult> runs;
    int reused = 0;

    /** The run of @p config, --quick windows applied (the one place
     *  they are); only the first request executes it. Its metrics
     *  snapshot goes to @p out, so an artifact carries its last run's. */
    const TpccRun &
    tpcc(TpccRunConfig config, util::BenchReporter &out)
    {
        if (quick) {
            config.warmup = sim::msecs(60);
            config.window = sim::msecs(250);
        }
        auto it = runs.find(config);
        if (it != runs.end())
            ++reused;
        else
            it = runs.emplace(config, runTpcc(config)).first;
        out.attachMetricsJson(it->second.metrics_json);
        return *it;
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
        // Tail latency over the same window, from the client histogram.
        const sim::Histogram *hist = rig.sim().metrics().findHistogram(
            "client.kdsa0.latency_hist_ns");
        table.add({outstanding, r.mean_response_us / 1e3, r.mbps,
                   hist ? hist->quantile(0.95) / 1e6 : 0.0,
                   hist ? hist->quantile(0.99) / 1e6 : 0.0});
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
            config.opts = step.opts;
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
        config.intr_high_watermark = high;
        config.intr_low_watermark = low;
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
        config.poll_interval = sim::usecs(interval_us);
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
        config.flow_credits = credits;
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
        config.kdsa_extra_layers = layers;
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
    {"abl_miniport", abl_miniport},
};

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
        } else if (item != std::end(kItems)) {
            items.push_back(item);
        } else {
            std::fprintf(stderr,
                         "paper_suite: bad argument '%s'\nusage: "
                         "paper_suite [--quick] [--json DIR] [ITEM...]\n",
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
    return ok ? 0 : 1;
}
