/**
 * @file
 * Smoke test for the bench artifact pipeline: runs one paper_suite
 * item with `--quick --json <dir>` and validates the emitted
 * artifact, <dir>/BENCH_<item>.json, against the schema every item
 * shares. A failed check of the item fails the run, and so this test.
 *
 * Registered with ctest as `quick_bench_smoke` (and siblings); CMake
 * passes the paper_suite binary, an existing scratch directory and
 * the item name.
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
    if (argc != 4)
        return fail("usage: quick_bench_smoke <paper_suite> <json-dir> <item>");
    const std::string suite = argv[1];
    const std::string json_dir = argv[2];
    const std::string item = argv[3];
    const std::string out_path = json_dir + "/BENCH_" + item + ".json";

    std::remove(out_path.c_str());
    const std::string command = "\"" + suite + "\" --quick --json \"" +
                                json_dir + "\" " + item;
    const int rc = std::system(command.c_str());
    if (rc != 0)
        return fail("paper_suite exited with status " + std::to_string(rc));

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

    // Items that run a Simulation attach its full registry
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
