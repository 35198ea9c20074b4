/**
 * @file
 * Smoke test for the bench artifact pipeline: runs one real bench
 * binary with `--quick --json <path>` and validates the emitted
 * artifact against the schema every fig/abl bench shares.
 *
 * Registered with ctest as `quick_bench_smoke`; CMake passes the
 * bench binary's location and a scratch output path. With a third
 * argument the bench is paper_suite: the path is its --json
 * directory, the argument names the item to run, and the artifact is
 * <path>/BENCH_<item>.json.
 */

#include <cstdio>
#include <cstdlib>
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
    std::fprintf(stderr, "quick_bench_smoke: %s\n", why.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 && argc != 4) {
        return fail("usage: quick_bench_smoke <bench-binary> "
                    "<output.json> | <paper_suite> <json-dir> <item>");
    }
    const std::string bench = argv[1];
    const std::string json_arg = argv[2];
    const std::string item = argc == 4 ? argv[3] : "";
    const std::string out_path =
        item.empty() ? json_arg : json_arg + "/BENCH_" + item + ".json";

    std::remove(out_path.c_str());
    const std::string command = "\"" + bench + "\" --quick --json \"" +
                                json_arg + "\" " + item;
    const int rc = std::system(command.c_str());
    if (rc != 0)
        return fail("bench exited with status " + std::to_string(rc));

    std::ifstream in(out_path);
    if (!in)
        return fail("bench did not write " + out_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const auto doc = JsonValue::parse(buffer.str());
    if (!doc)
        return fail("artifact is not valid JSON");
    if (!doc->isObject())
        return fail("artifact root is not an object");

    const JsonValue *name = doc->find("bench");
    if (!name || !name->isString() || name->string.empty())
        return fail("missing \"bench\" name");
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isNumber() || schema->number != 1)
        return fail("missing or unexpected \"schema\" version");
    const JsonValue *quick = doc->find("quick");
    if (!quick || quick->type != JsonValue::Type::Bool ||
        !quick->boolean) {
        return fail("artifact should record quick=true");
    }
    const JsonValue *rows = doc->find("rows");
    if (!rows || !rows->isArray() || rows->array.empty())
        return fail("missing or empty \"rows\"");
    for (const JsonValue &row : rows->array)
        if (!row.isObject() || row.object.empty())
            return fail("row is not a non-empty object");

    // fig/abl benches that run a Simulation attach its full registry
    // snapshot; check it looks like one (dotted metric paths).
    const JsonValue *metrics = doc->find("metrics");
    if (metrics && metrics->isObject()) {
        bool dotted = false;
        for (const auto &[path, value] : metrics->object)
            dotted |= path.find('.') != std::string::npos;
        if (!metrics->object.empty() && !dotted)
            return fail("metrics keys are not dotted paths");
    }

    std::printf("quick_bench_smoke: %s ok (%zu rows%s)\n",
                name->string.c_str(), rows->array.size(),
                metrics ? ", metrics attached" : "");
    return 0;
}
