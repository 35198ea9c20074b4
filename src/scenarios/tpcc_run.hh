/**
 * @file
 * The TPC-C experiment harness: assembles a platform (Tables 1/2), a
 * workload (section 6) and the database engine, runs a measurement
 * window, and reports the quantities the paper's Figures 9-14 plot.
 */

#ifndef V3SIM_SCENARIOS_TPCC_RUN_HH
#define V3SIM_SCENARIOS_TPCC_RUN_HH

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "db/oltp_engine.hh"
#include "scenarios/testbed.hh"
#include "tpcc/workload.hh"

namespace v3sim::scenarios
{

/** Platform selector. */
enum class Platform : uint8_t
{
    MidSize,
    Large,
};

/** The DSA client settings of a loaded database: SQL Server's
 *  scheduler polls completion flags between work items. */
dsa::DsaConfig loadedDsaConfig();

/** One TPC-C experiment description. Ordered field by field, so a
 *  config can key a run memo with no field left out. */
struct TpccRunConfig
{
    Backend backend = Backend::Cdsa;
    Platform platform = Platform::MidSize;
    /** The DSA clients' settings (ablations vary one field); its
     *  max_outstanding also sets the storage nodes' request
     *  credits. */
    dsa::DsaConfig dsa = loadedDsaConfig();
    storage::CachePolicy cache_policy = storage::CachePolicy::Mq;

    /** Local backend: directly attached disk count (Figure 13
     *  sweeps this); 0 keeps the platform default. */
    int local_disks = 0;

    /** 0 = platform default worker count. */
    int workers = 0;

    sim::Tick warmup = sim::msecs(300);
    sim::Tick window = sim::msecs(1500);
    uint64_t seed = 1;

    /** Nonzero arms EventQueue tie-shuffle with this seed before the
     *  run, for abl_determinism-style byte-identical double runs. */
    uint64_t tie_seed = 0;

    auto operator<=>(const TpccRunConfig &) const = default;
};

/** Everything the figures need from one run. */
struct TpccRunResult
{
    db::OltpResult oltp;
    /** V3 server cache read-hit ratio (0 for Local). */
    double server_cache_hit = 0;
    double disk_utilization = 0;
    uint64_t host_interrupts = 0;
    uint64_t retransmits = 0;
    /** Simulator self-accounting for bench/selftime: total events the
     *  run's EventQueue fired and the simulated time it covered. */
    uint64_t events_fired = 0;
    sim::Tick sim_elapsed = 0;
    /** Full MetricRegistry snapshot (JSON), rendered before the
     *  testbed is torn down; benches attach it to their artifact. */
    std::string metrics_json;
};

/** Platform-default workload parameters (warehouses, skew, demand),
 *  scaled by kTpccScale (see testbed.hh). */
tpcc::TpccConfig platformWorkload(Platform platform);

/** Platform-default engine parameters. */
db::OltpConfig platformEngine(Platform platform, Backend backend,
                              const dsa::DsaOptimizations &opts =
                                  dsa::DsaOptimizations::all());

/** Runs one TPC-C experiment end to end. */
TpccRunResult runTpcc(const TpccRunConfig &config);

} // namespace v3sim::scenarios

#endif // V3SIM_SCENARIOS_TPCC_RUN_HH
