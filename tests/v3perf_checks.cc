/**
 * @file
 * Runs one repository-benchmark workload once, traced, and fails
 * unless every output check it reports passed: `v3perf --workload W
 * --seed N --trace <file>`, whose last stdout line is a JSON report
 * with a `checks` object of name -> bool. The traced run adds the
 * checks only it makes, among them `same_as_runTpcc`, which holds
 * v3perf's copy of scenarios::runTpcc's set-up to runTpcc.
 *
 * It also pins the report's deterministic `sim` block (events fired,
 * the CRC32C of the final metrics snapshot, every `sim_*` value) to
 * a committed expected file: a change that moves one simulated cost,
 * event or ordering fails here, not only in a paper_suite artifact.
 * The expected file is a JSON object with exactly the `sim` block's
 * keys; numbers compare equal after both are parsed.
 *
 * Registered with ctest as `v3perf_checks_<workload>` (seed 1, the
 * benchmark's seed) and `v3perf_checks_<workload>_4242` (a held-out
 * seed, so an ordering change seed 1 happens to miss still fails);
 * CMake passes the v3perf binary, the workload name, the seed, the
 * trace file to write and the expected `sim` block
 * (tests/v3perf_expected/<workload>[_<seed>].json).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hh"

using v3sim::util::JsonValue;

namespace
{

int
fail(const std::string &why)
{
    std::fprintf(stderr, "v3perf_checks: %s\n", why.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 6) {
        return fail("usage: v3perf_checks <v3perf> <workload> <seed> "
                    "<trace> <expected-sim.json>");
    }
    const std::string seed = argv[3];
    if (seed.empty() ||
        seed.find_first_not_of("0123456789") != std::string::npos)
        return fail("seed must be a decimal number: " + seed);
    const char *trace = argv[4];
    const char *expected_path = argv[5];
    std::ifstream expected_file(expected_path);
    std::stringstream expected_text;
    expected_text << expected_file.rdbuf();
    const auto expected = JsonValue::parse(expected_text.str());
    if (!expected_file || !expected || !expected->isObject())
        return fail(std::string("cannot read expected sim block ") +
                    expected_path);

    const std::string command = "\"" + std::string(argv[1]) +
                                "\" --workload " + argv[2] + " --seed " +
                                seed + " --trace \"" + trace + "\"";
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe)
        return fail("cannot run " + command);
    std::string line;
    std::string last;
    char chunk[4096];
    while (std::fgets(chunk, sizeof(chunk), pipe)) {
        line += chunk;
        if (line.back() == '\n') {
            line.pop_back();
            if (!line.empty())
                last = line;
            line.clear();
        }
    }
    if (!line.empty())
        last = line;
    const int status = pclose(pipe);

    const auto report = JsonValue::parse(last);
    if (!report || !report->isObject())
        return fail("last stdout line is not a JSON object");
    const JsonValue *checks = report->find("checks");
    if (!checks || !checks->isObject() || checks->object.empty())
        return fail("report has no checks");
    bool all_ok = true;
    for (const auto &[name, value] : checks->object) {
        const bool ok = value.type == JsonValue::Type::Bool && value.boolean;
        std::printf("check %s: %s\n", name.c_str(), ok ? "yes" : "NO");
        all_ok = all_ok && ok;
    }

    const JsonValue *sim = report->find("sim");
    if (!sim || !sim->isObject())
        return fail("report has no sim block");
    bool sim_ok = sim->object.size() == expected->object.size();
    for (const auto &[name, want] : expected->object) {
        const JsonValue *got = sim->find(name);
        const bool same = got && got->type == JsonValue::Type::Number &&
                          want.type == JsonValue::Type::Number &&
                          got->number == want.number;
        std::printf("sim %s: %.12g, expected %.12g: %s\n", name.c_str(),
                    got ? got->number : 0.0, want.number,
                    same ? "yes" : "NO");
        sim_ok = sim_ok && same;
    }
    if (!all_ok)
        return fail(std::string(argv[2]) + ": a check failed");
    if (!sim_ok)
        return fail(std::string(argv[2]) + ": sim block differs from " +
                    expected_path);
    if (status != 0)
        return fail("v3perf exited with status " + std::to_string(status));
    return 0;
}
