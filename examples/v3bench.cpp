/**
 * @file
 * v3bench — a command-line workbench over the library.
 *
 * Measure any point in the paper's design space without writing
 * code:
 *
 *   # cached 8K reads over cDSA, 4 outstanding
 *   ./examples/v3bench --backend cdsa --size 8K --outstanding 4
 *
 *   # uncached random writes vs the local baseline
 *   ./examples/v3bench --backend local --write --uncached --size 32K
 *
 *   # a quick TPC-C run on the mid-size platform
 *   ./examples/v3bench --tpcc mid --backend kdsa
 *
 * Options:
 *   --backend local|kdsa|wdsa|cdsa   storage attachment (default cdsa)
 *   --size <bytes|8K|64K...>         request size (default 8K)
 *   --outstanding <n>                concurrent requests (default 1)
 *   --write                          writes instead of reads
 *   --uncached                       server cache off, random I/O
 *   --disks <n>                      spindles behind the target
 *   --window <ms>                    measurement window (default 300)
 *   --seed <n>                       simulation seed (default 42)
 *   --tpcc mid|large                 run TPC-C instead of micro I/O
 *   --no-opts                        disable the section-3
 *                                    optimizations
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenarios/microbench.hh"
#include "scenarios/tpcc_run.hh"
#include "util/units.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

struct Options
{
    Backend backend = Backend::Cdsa;
    uint64_t size = 8192;
    int outstanding = 1;
    bool is_write = false;
    bool cached = true;
    int disks = 8;
    int window_ms = 300;
    uint64_t seed = 42;
    bool tpcc = false;
    Platform platform = Platform::MidSize;
    bool opts_on = true;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--backend local|kdsa|wdsa|cdsa] "
                 "[--size N] [--outstanding N] [--write] "
                 "[--uncached] [--disks N] [--window ms] [--seed N] "
                 "[--tpcc mid|large] [--no-opts]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options options;
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--backend") {
            const std::string value = need_value(i);
            if (value == "local")
                options.backend = Backend::Local;
            else if (value == "kdsa")
                options.backend = Backend::Kdsa;
            else if (value == "wdsa")
                options.backend = Backend::Wdsa;
            else if (value == "cdsa")
                options.backend = Backend::Cdsa;
            else
                usage(argv[0]);
        } else if (arg == "--size") {
            const auto parsed = util::parseSize(need_value(i));
            if (!parsed)
                usage(argv[0]);
            options.size = *parsed;
        } else if (arg == "--outstanding") {
            options.outstanding = std::atoi(need_value(i));
        } else if (arg == "--write") {
            options.is_write = true;
        } else if (arg == "--uncached") {
            options.cached = false;
        } else if (arg == "--disks") {
            options.disks = std::atoi(need_value(i));
        } else if (arg == "--window") {
            options.window_ms = std::atoi(need_value(i));
        } else if (arg == "--seed") {
            options.seed =
                static_cast<uint64_t>(std::atoll(need_value(i)));
        } else if (arg == "--tpcc") {
            options.tpcc = true;
            const std::string value = need_value(i);
            if (value == "mid")
                options.platform = Platform::MidSize;
            else if (value == "large")
                options.platform = Platform::Large;
            else
                usage(argv[0]);
        } else if (arg == "--no-opts") {
            options.opts_on = false;
        } else {
            usage(argv[0]);
        }
    }
    return options;
}

int
runTpccMode(const Options &options)
{
    TpccRunConfig config;
    config.platform = options.platform;
    config.backend = options.backend;
    config.seed = options.seed;
    config.window = sim::msecs(options.window_ms > 300
                                   ? options.window_ms
                                   : 800);
    if (!options.opts_on)
        config.dsa.opts = dsa::DsaOptimizations::none();

    std::printf("TPC-C %s, %s, optimizations %s ...\n",
                options.platform == Platform::Large ? "large"
                                                    : "mid-size",
                backendName(options.backend),
                options.opts_on ? "on" : "off");
    const TpccRunResult result = runTpcc(config);
    std::printf("  tpmC            : %.0f\n", result.oltp.tpmc);
    std::printf("  total txn/min   : %.0f\n", result.oltp.total_tpm);
    std::printf("  IOPS            : %.0f\n",
                result.oltp.io_per_second);
    std::printf("  CPU utilization : %.1f%%\n",
                result.oltp.cpu_utilization * 100);
    std::printf("  cache hit ratio : %.1f%%\n",
                result.server_cache_hit * 100);
    std::printf("  disk utilization: %.1f%%\n",
                result.disk_utilization * 100);
    std::printf("  breakdown       :");
    for (size_t c = 0; c < osmodel::kCpuCatCount; ++c) {
        std::printf(" %s %.1f%%",
                    osmodel::cpuCatName(
                        static_cast<osmodel::CpuCat>(c)),
                    result.oltp.cpu_breakdown[c] /
                        std::max(result.oltp.cpu_utilization, 1e-9) *
                        100);
    }
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    if (options.tpcc)
        return runTpccMode(options);

    MicroRig::Config config;
    config.backend = options.backend;
    config.disks = options.disks;
    config.seed = options.seed;
    if (!options.cached)
        config.cache_bytes = 0;
    if (!options.opts_on)
        config.dsa.opts = dsa::DsaOptimizations::none();

    MicroRig rig(config);
    if (!rig.ready()) {
        std::fprintf(stderr, "failed to connect to the V3 server\n");
        return 1;
    }

    std::printf("%s %s %s, %s, %d outstanding, %d disks\n",
                backendName(options.backend),
                options.cached ? "cached" : "uncached random",
                options.is_write ? "writes" : "reads",
                util::formatSize(options.size).c_str(),
                options.outstanding, options.disks);

    if (options.outstanding <= 1) {
        const auto r = rig.measureLatency(options.size,
                                          !options.is_write, 200,
                                          options.cached);
        std::printf("  mean latency : %.3f ms\n", r.mean_us / 1e3);
        std::printf("  host CPU/IO  : %.1f us\n", r.cpu_overhead_us);
        if (r.server_us > 0)
            std::printf("  server time  : %.1f us\n", r.server_us);
    }
    const auto t = rig.measureThroughput(
        options.size, !options.is_write, options.outstanding,
        sim::msecs(options.window_ms), options.cached);
    std::printf("  throughput   : %.1f MB/s (%.0f IOPS)\n", t.mbps,
                t.iops);
    std::printf("  response     : %.3f ms\n",
                t.mean_response_us / 1e3);
    return 0;
}
