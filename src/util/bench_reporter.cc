#include "bench_reporter.hh"

#include <cstdio>
#include <cstring>

#include "util/json.hh"

namespace v3sim::util
{

BenchReporter::BenchReporter(std::string name, bool quick,
                             std::string json_path)
    : name_(std::move(name)), path_(std::move(json_path)), quick_(quick)
{}

BenchReporter::BenchReporter(std::string name, int argc, char **argv)
    : BenchReporter(std::move(name), false, "")
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick_ = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 < argc) {
                path_ = argv[++i];
            } else {
                std::fprintf(stderr,
                             "BenchReporter: --json needs a path\n");
                bad_args_ = true;
            }
        }
    }
}

void
BenchReporter::note(const std::string &key, const std::string &text)
{
    notes_.emplace_back(key, text);
}

void
BenchReporter::beginRow()
{
    rows_.emplace_back();
}

void
BenchReporter::col(const std::string &key, double value)
{
    if (rows_.empty())
        beginRow();
    rows_.back().emplace_back(key, Cell(value));
}

void
BenchReporter::col(const std::string &key, int64_t value)
{
    if (rows_.empty())
        beginRow();
    rows_.back().emplace_back(key, Cell(value));
}

void
BenchReporter::col(const std::string &key, uint64_t value)
{
    if (rows_.empty())
        beginRow();
    rows_.back().emplace_back(key, Cell(value));
}

void
BenchReporter::col(const std::string &key, const std::string &value)
{
    if (rows_.empty())
        beginRow();
    rows_.back().emplace_back(key, Cell(value));
}

void
BenchReporter::attachMetricsJson(std::string json)
{
    metrics_json_ = std::move(json);
}

std::string
BenchReporter::render() const
{
    JsonWriter w;
    w.beginObject();
    w.key("bench").value(name_);
    w.key("schema").value(int64_t{1});
    w.key("quick").value(quick_);
    w.key("notes").beginObject();
    for (const auto &[key, text] : notes_)
        w.key(key).value(text);
    w.endObject();
    w.key("rows").beginArray();
    for (const Row &row : rows_) {
        w.beginObject();
        for (const auto &[key, cell] : row) {
            w.key(key);
            std::visit([&w](const auto &v) { w.value(v); }, cell);
        }
        w.endObject();
    }
    w.endArray();
    if (!metrics_json_.empty())
        w.key("metrics").raw(metrics_json_);
    w.endObject();
    return w.str();
}

bool
BenchReporter::write() const
{
    if (bad_args_)
        return false;
    if (path_.empty())
        return true;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "BenchReporter: cannot open %s\n",
                     path_.c_str());
        return false;
    }
    const std::string doc = render();
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
        std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok)
        std::fprintf(stderr, "BenchReporter: short write to %s\n",
                     path_.c_str());
    return ok;
}

} // namespace v3sim::util
