/**
 * @file
 * The determinism contract's end-to-end check (DESIGN.md §8): runs
 * abl_determinism twice with *different* event-tie shuffle seeds and
 * byte-compares the two artifacts. The tiebreak permutes the order
 * in which same-tick events fire; if any simulation state — any
 * metric, any counter, any note — depends on that unspecified
 * ordering, the artifacts diverge and this test prints the first
 * differing byte with surrounding context.
 *
 * Registered with ctest as `abl_determinism_diff` (and siblings);
 * CMake passes the bench binary, two scratch artifact paths and
 * optionally `full` to run at full scale instead of `--quick`. CI
 * uploads the two artifacts on failure so the diff can be inspected
 * offline.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

int
fail(const std::string &why)
{
    std::fprintf(stderr, "abl_determinism_diff: %s\n", why.c_str());
    return 1;
}

bool
runOnce(const std::string &bench, const std::string &out_path,
        const char *tie_seed, bool full)
{
    std::remove(out_path.c_str());
    const std::string command = "\"" + bench + "\"" +
                                (full ? "" : " --quick") + " --json \"" +
                                out_path + "\" --tie-seed " + tie_seed;
    std::printf("abl_determinism_diff: %s\n", command.c_str());
    std::fflush(stdout);
    return std::system(command.c_str()) == 0;
}

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** Prints the first divergence with ~60 bytes of context per side. */
void
printDiff(const std::string &a, const std::string &b)
{
    size_t i = 0;
    const size_t limit = std::min(a.size(), b.size());
    while (i < limit && a[i] == b[i])
        ++i;
    const size_t from = i > 30 ? i - 30 : 0;
    std::fprintf(stderr,
                 "first divergence at byte %zu (sizes %zu vs %zu)\n"
                 "  seed A: ...%.60s\n  seed B: ...%.60s\n",
                 i, a.size(), b.size(), a.c_str() + from,
                 b.c_str() + from);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full = argc == 5 && std::string(argv[4]) == "full";
    if (argc != 4 && !full) {
        return fail("usage: determinism_diff <bench-binary> "
                    "<out_a.json> <out_b.json> [full]");
    }
    const std::string bench = argv[1];
    const std::string path_a = argv[2];
    const std::string path_b = argv[3];

    if (!runOnce(bench, path_a, "1", full))
        return fail("run with --tie-seed 1 failed");
    if (!runOnce(bench, path_b, "20020817", full))
        return fail("run with --tie-seed 20020817 failed");

    std::string a, b;
    if (!slurp(path_a, a))
        return fail("missing artifact " + path_a);
    if (!slurp(path_b, b))
        return fail("missing artifact " + path_b);
    if (a.empty())
        return fail("artifact " + path_a + " is empty");

    if (a != b) {
        printDiff(a, b);
        return fail("artifacts differ across tie-shuffle seeds — "
                    "some state depends on same-tick event ordering");
    }

    std::printf("abl_determinism_diff: artifacts byte-identical "
                "across tie-shuffle seeds (%zu bytes)\n",
                a.size());
    return 0;
}
