/**
 * @file
 * Runs one repository-benchmark workload once, traced, and fails
 * unless every output check it reports passed: `v3perf --workload W
 * --seed 1 --trace <file>`, whose last stdout line is a JSON report
 * with a `checks` object of name -> bool. The traced run adds the
 * checks only it makes, among them `same_as_runTpcc`, which holds
 * v3perf's copy of scenarios::runTpcc's set-up to runTpcc.
 *
 * Registered with ctest as `v3perf_checks_<workload>`; CMake passes
 * the v3perf binary, the workload name and the trace file to write.
 */

#include <cstdio>
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
    if (argc != 4)
        return fail("usage: v3perf_checks <v3perf> <workload> <trace>");
    const std::string command = "\"" + std::string(argv[1]) +
                                "\" --workload " + argv[2] +
                                " --seed 1 --trace \"" + argv[3] + "\"";
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
    if (!all_ok)
        return fail(std::string(argv[2]) + ": a check failed");
    if (status != 0)
        return fail("v3perf exited with status " + std::to_string(status));
    return 0;
}
