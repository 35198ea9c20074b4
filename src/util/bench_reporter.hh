/**
 * @file
 * Shared bench harness: one BenchReporter per fig/abl bench binary.
 *
 * Every figure/ablation bench keeps printing its paper-style text
 * table, and additionally emits a machine-readable artifact when
 * invoked with `--json <path>` — the BENCH_<name>.json perf
 * trajectory every future PR measures itself against. The reporter
 * also parses `--quick`, which benches use to shrink iteration
 * counts so a smoke test can exercise the full export path in
 * seconds.
 *
 * Artifact shape (schema version 1):
 *   {
 *     "bench": "fig03",
 *     "schema": 1,
 *     "quick": false,
 *     "notes": { "anchors": "..." },
 *     "rows": [ { "size": 512, "kdsa_ms": 0.123, ... }, ... ],
 *     "metrics": { "<dotted path>": { "kind": ..., ... }, ... }
 *   }
 *
 * "rows" mirrors the printed table; "metrics" is a full
 * sim::MetricRegistry snapshot (attached pre-rendered via
 * attachMetricsJson so util does not depend on sim).
 */

#ifndef V3SIM_UTIL_BENCH_REPORTER_HH
#define V3SIM_UTIL_BENCH_REPORTER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace v3sim::util
{

/** Collects one bench run's rows and writes the JSON artifact. */
class BenchReporter
{
  public:
    /**
     * @param name artifact name: writes BENCH_<name>.json content.
     * Parses argv for `--json <path>` and `--quick`; unknown
     * arguments are ignored so benches can grow their own flags.
     */
    BenchReporter(std::string name, int argc, char **argv);

    /** @param json_path artifact path; empty writes no artifact. */
    BenchReporter(std::string name, bool quick, std::string json_path);

    const std::string &name() const { return name_; }

    /** True when --quick was given: benches shrink their work. */
    bool quick() const { return quick_; }

    /** True when --json was given. */
    bool jsonRequested() const { return !path_.empty(); }

    /** Free-form metadata (anchors, configuration notes). */
    void note(const std::string &key, const std::string &text);

    /** @name Result rows (mirror the printed table) @{ */
    void beginRow();
    void col(const std::string &key, double value);
    void col(const std::string &key, int64_t value);
    void col(const std::string &key, uint64_t value);
    void col(const std::string &key, const std::string &value);
    /** @} */

    /** Attaches a pre-rendered JSON object (typically
     *  sim::MetricRegistry::toJson()) under "metrics". */
    void attachMetricsJson(std::string json);

    /** Renders the artifact document (for tests / inspection). */
    std::string render() const;

    /**
     * Writes the artifact to the --json path. No-op success when
     * --json was not given; prints to stderr and returns false on
     * I/O failure or a dangling `--json` with no path.
     */
    bool write() const;

  private:
    using Cell = std::variant<double, int64_t, uint64_t, std::string>;
    using Row = std::vector<std::pair<std::string, Cell>>;

    std::string name_;
    std::string path_;
    bool quick_ = false;
    bool bad_args_ = false;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<Row> rows_;
    std::string metrics_json_;
};

} // namespace v3sim::util

#endif // V3SIM_UTIL_BENCH_REPORTER_HH
