/**
 * @file
 * simlint CLI. Usage:
 *
 *   simlint [--json[=FILE]] [--ratchet=FILE] <file-or-directory>...
 *
 * Directories are walked recursively for .cc/.hh/.cpp/.hpp/.h files
 * (skipping fixtures/, build/ and .git/). The whole input set is
 * analyzed as one repo (lintRepo) so the cross-TU rules — the metric
 * index, repo-wide alias resolution, include-graph attribution —
 * see everything at once.
 *
 * Output:
 *   default          findings as "file:line: [rule] message"
 *   --json           the schema-1 JSON report on stdout (replaces
 *                    the text findings)
 *   --json=FILE      text findings on stdout AND the JSON report
 *                    written to FILE (for CI artifacts)
 *   --ratchet=FILE   additionally compare the suppression inventory
 *                    against the checked-in baseline FILE; a count
 *                    above baseline fails the run
 *
 * Exit status: 0 clean, 1 findings or ratchet breach, 2 usage/IO
 * error.
 *
 * Registered with ctest as `simlint_repo` over src/, bench/,
 * tests/, tools/ and examples/ — the determinism contract
 * (DESIGN.md §8) is enforced on every test run, not just in CI.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

using v3sim::simlint::Finding;
using v3sim::simlint::RatchetResult;
using v3sim::simlint::RepoReport;

int
main(int argc, char **argv)
{
    bool json_stdout = false;
    std::string json_path;
    std::string ratchet_path;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json_stdout = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg.rfind("--ratchet=", 0) == 0) {
            ratchet_path = arg.substr(10);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "simlint: unknown flag: %s\n",
                         arg.c_str());
            return 2;
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty()) {
        std::fprintf(stderr,
                     "usage: simlint [--json[=FILE]] "
                     "[--ratchet=FILE] <file-or-directory>...\n");
        return 2;
    }

    std::vector<std::string> missing;
    const std::vector<v3sim::simlint::Input> files =
        v3sim::simlint::collectInputs(roots, &missing);
    if (!missing.empty()) {
        for (const std::string &m : missing)
            std::fprintf(stderr, "simlint: no such input: %s\n",
                         m.c_str());
        return 2;
    }

    const RepoReport report = v3sim::simlint::lintRepo(files);

    if (json_stdout) {
        std::fputs(v3sim::simlint::reportToJson(report).c_str(),
                   stdout);
    } else {
        for (const Finding &finding : report.findings)
            std::printf(
                "%s\n",
                v3sim::simlint::formatFinding(finding).c_str());
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr,
                         "simlint: cannot write JSON report: %s\n",
                         json_path.c_str());
            return 2;
        }
        out << v3sim::simlint::reportToJson(report);
    }

    bool ratchet_ok = true;
    if (!ratchet_path.empty()) {
        std::ifstream in(ratchet_path);
        if (!in) {
            std::fprintf(stderr,
                         "simlint: cannot read ratchet baseline: "
                         "%s\n",
                         ratchet_path.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        const RatchetResult r =
            v3sim::simlint::checkRatchet(report, ss.str());
        std::fprintf(stderr, "simlint: %s\n", r.detail.c_str());
        ratchet_ok = r.ok;
    }

    if (!report.findings.empty()) {
        std::fprintf(
            stderr, "simlint: %zu finding%s in %zu file%s\n",
            report.findings.size(),
            report.findings.size() == 1 ? "" : "s", report.files,
            report.files == 1 ? "" : "s");
        return 1;
    }
    if (!json_stdout)
        std::fprintf(stderr,
                     "simlint: %zu files clean (%zu suppression%s "
                     "on record)\n",
                     report.files, report.suppressions.size(),
                     report.suppressions.size() == 1 ? "" : "s");
    return ratchet_ok ? 0 : 1;
}
