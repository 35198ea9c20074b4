#include "metrics.hh"

#include <cassert>
#include <stdexcept>

#include "util/json.hh"

namespace v3sim::sim
{

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Sampler: return "sampler";
      case MetricKind::Histogram: return "histogram";
      case MetricKind::TimeWeighted: return "timeweighted";
      case MetricKind::Gauge: return "gauge";
    }
    return "?";
}

MetricRegistry::MetricRegistry(NowFn now) : now_(std::move(now)) {}

void
MetricRegistry::checkNewPath(const std::string &path) const
{
    if (path.empty())
        throw std::invalid_argument("metric path must not be empty");
    if (index_.count(path)) {
        throw std::invalid_argument("duplicate metric path: " +
                                    path);
    }
}

const MetricRegistry::Entry *
MetricRegistry::find(const std::string &path, MetricKind kind) const
{
    const auto it = index_.find(path);
    if (it == index_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

CounterHandle
MetricRegistry::counter(const std::string &path)
{
    checkNewPath(path);
    counters_.emplace_back();
    index_.emplace(path,
                   Entry{MetricKind::Counter, counters_.size() - 1});
    return CounterHandle(&counters_.back());
}

SamplerHandle
MetricRegistry::sampler(const std::string &path)
{
    checkNewPath(path);
    samplers_.emplace_back();
    index_.emplace(path,
                   Entry{MetricKind::Sampler, samplers_.size() - 1});
    return SamplerHandle(&samplers_.back());
}

HistogramHandle
MetricRegistry::histogram(const std::string &path)
{
    checkNewPath(path);
    histograms_.emplace_back();
    index_.emplace(path, Entry{MetricKind::Histogram,
                               histograms_.size() - 1});
    return HistogramHandle(&histograms_.back());
}

TimeWeightedHandle
MetricRegistry::timeWeighted(const std::string &path)
{
    checkNewPath(path);
    time_weighted_.emplace_back();
    time_weighted_.back().reset(now(), 0.0);
    index_.emplace(path, Entry{MetricKind::TimeWeighted,
                               time_weighted_.size() - 1});
    return TimeWeightedHandle(&time_weighted_.back());
}

void
MetricRegistry::gauge(const std::string &path,
                      std::function<double()> fn, const void *owner)
{
    checkNewPath(path);
    if (!fn)
        throw std::invalid_argument("gauge callback must be set");
    gauges_.push_back({std::move(fn), owner});
    index_.emplace(path,
                   Entry{MetricKind::Gauge, gauges_.size() - 1});
}

void
MetricRegistry::onEpochReset(std::function<void(Tick)> hook,
                             const void *owner)
{
    if (hook)
        hooks_.push_back({std::move(hook), owner});
}

void
MetricRegistry::retire(const void *owner)
{
    assert(owner && "only an owned callback can be retired");
    for (auto &gauge : gauges_) {
        if (gauge.owner != owner)
            continue;
        const double last = gauge.fn();
        gauge.fn = [last] { return last; };
        gauge.owner = nullptr;
    }
    std::erase_if(hooks_,
                  [owner](const auto &hook) { return hook.owner == owner; });
}

std::string
MetricRegistry::uniquePrefix(const std::string &base)
{
    const uint32_t uses = ++prefix_uses_[base];
    if (uses == 1)
        return base;
    return base + "#" + std::to_string(uses);
}

bool
MetricRegistry::contains(const std::string &path) const
{
    return index_.count(path) != 0;
}

const Counter *
MetricRegistry::findCounter(const std::string &path) const
{
    const Entry *entry = find(path, MetricKind::Counter);
    return entry ? &counters_[entry->index] : nullptr;
}

const Sampler *
MetricRegistry::findSampler(const std::string &path) const
{
    const Entry *entry = find(path, MetricKind::Sampler);
    return entry ? &samplers_[entry->index] : nullptr;
}

const Histogram *
MetricRegistry::findHistogram(const std::string &path) const
{
    const Entry *entry = find(path, MetricKind::Histogram);
    return entry ? &histograms_[entry->index] : nullptr;
}

const TimeWeighted *
MetricRegistry::findTimeWeighted(const std::string &path) const
{
    const Entry *entry = find(path, MetricKind::TimeWeighted);
    return entry ? &time_weighted_[entry->index] : nullptr;
}

void
MetricRegistry::resetEpoch()
{
    const Tick at = now();
    // Reset order is irrelevant (each metric is independent), so the
    // per-kind stores are walked directly instead of via the index.
    for (auto &counter : counters_)
        counter.reset();
    for (auto &sampler : samplers_)
        sampler.reset();
    for (auto &histogram : histograms_)
        histogram.reset();
    for (auto &tw : time_weighted_)
        tw.reset(at, tw.current());
    // Gauges are derived; nothing to reset.
    for (const auto &hook : hooks_)
        hook.fn(at);
    epoch_start_ = at;
}

MetricRegistry::Snapshot
MetricRegistry::snapshot() const
{
    const Tick at = now();
    Snapshot snap;
    for (const auto &[path, entry] : index_) {
        Value v;
        v.kind = entry.kind;
        switch (entry.kind) {
          case MetricKind::Counter:
            v.count = counters_[entry.index].value();
            break;
          case MetricKind::Sampler: {
            const Sampler &s = samplers_[entry.index];
            v.count = s.count();
            v.sum = s.sum();
            v.mean = s.mean();
            v.min = s.min();
            v.max = s.max();
            v.stddev = s.stddev();
            break;
          }
          case MetricKind::Histogram: {
            const Histogram &h = histograms_[entry.index];
            v.count = h.count();
            v.p50 = h.quantile(0.50);
            v.p95 = h.quantile(0.95);
            v.p99 = h.quantile(0.99);
            v.p999 = h.quantile(0.999);
            break;
          }
          case MetricKind::TimeWeighted: {
            const TimeWeighted &tw = time_weighted_[entry.index];
            v.value = tw.current();
            v.average = tw.average(at);
            break;
          }
          case MetricKind::Gauge:
            v.value = gauges_[entry.index].fn();
            break;
        }
        snap.emplace(path, v);
    }
    return snap;
}

MetricRegistry::Snapshot
MetricRegistry::delta(const Snapshot &before, const Snapshot &after)
{
    Snapshot out;
    for (const auto &[path, a] : after) {
        Value v = a;
        const auto it = before.find(path);
        if (it != before.end() && it->second.kind == a.kind) {
            const Value &b = it->second;
            switch (a.kind) {
              case MetricKind::Counter:
                v.count = a.count - b.count;
                break;
              case MetricKind::Sampler:
                v.count = a.count - b.count;
                v.sum = a.sum - b.sum;
                v.mean = v.count
                             ? v.sum / static_cast<double>(v.count)
                             : 0.0;
                break;
              case MetricKind::Histogram:
                v.count = a.count - b.count;
                break;
              case MetricKind::TimeWeighted:
              case MetricKind::Gauge:
                break; // point-in-time readings: keep `after`
            }
        }
        out.emplace(path, v);
    }
    return out;
}

std::string
MetricRegistry::toJson() const
{
    return toJson(snapshot());
}

std::string
MetricRegistry::toJson(const Snapshot &snap)
{
    util::JsonWriter w;
    w.beginObject();
    for (const auto &[path, v] : snap) {
        w.key(path).beginObject();
        w.key("kind").value(metricKindName(v.kind));
        switch (v.kind) {
          case MetricKind::Counter:
            w.key("count").value(v.count);
            break;
          case MetricKind::Sampler:
            w.key("count").value(v.count);
            w.key("sum").value(v.sum);
            w.key("mean").value(v.mean);
            w.key("min").value(v.min);
            w.key("max").value(v.max);
            w.key("stddev").value(v.stddev);
            break;
          case MetricKind::Histogram:
            w.key("count").value(v.count);
            w.key("p50").value(v.p50);
            w.key("p95").value(v.p95);
            w.key("p99").value(v.p99);
            w.key("p999").value(v.p999);
            break;
          case MetricKind::TimeWeighted:
            w.key("value").value(v.value);
            w.key("average").value(v.average);
            break;
          case MetricKind::Gauge:
            w.key("value").value(v.value);
            break;
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace v3sim::sim
