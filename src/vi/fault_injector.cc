#include "fault_injector.hh"

#include <algorithm>

namespace v3sim::vi
{

FaultInjector::FaultInjector(sim::Simulation &sim, net::Fabric &fabric)
    : sim_(sim), fabric_(fabric),
      metric_prefix_(sim.metrics().uniquePrefix("fault")),
      dropped_(sim.metrics().counter(metric_prefix_ + ".dropped")),
      corrupted_(sim.metrics().counter(metric_prefix_ + ".corrupted")),
      latent_errors_(
          sim.metrics().counter(metric_prefix_ + ".latent_errors")),
      breaks_(sim.metrics().counter(metric_prefix_ + ".breaks")),
      node_crashes_(
          sim.metrics().counter(metric_prefix_ + ".node_crashes")),
      node_restarts_(
          sim.metrics().counter(metric_prefix_ + ".node_restarts")),
      chaos_outages_(
          sim.metrics().counter(metric_prefix_ + ".chaos_outages"))
{
    fabric_.setDropFilter([this](const net::Packet &packet) {
        return shouldDrop(packet);
    });
    fabric_.setCorruptFilter([this](const net::Packet &packet) {
        return shouldCorrupt(packet);
    });
}

FaultInjector::~FaultInjector()
{
    fabric_.setDropFilter(nullptr);
    fabric_.setCorruptFilter(nullptr);
    cancelScheduled();
}

void
FaultInjector::dropNext(int count, std::optional<net::PortId> towards)
{
    drop_next_ = count;
    drop_towards_ = towards;
}

void
FaultInjector::setLossRate(double p)
{
    loss_rate_ = p;
    if (p > 0.0 && !rng_.has_value())
        rng_ = sim_.forkRng();
}

void
FaultInjector::blackout(sim::Tick from, sim::Tick until)
{
    blackout_from_ = from;
    blackout_until_ = until;
}

void
FaultInjector::corruptNext(int count,
                           std::optional<net::PortId> towards)
{
    corrupt_next_ = count;
    corrupt_towards_ = towards;
}

void
FaultInjector::setCorruptRate(double p)
{
    corrupt_rate_ = p;
    if (p > 0.0 && !corrupt_rng_.has_value())
        corrupt_rng_ = sim_.forkRng();
}

void
FaultInjector::corruptRdmaNext(ViNic &nic, int count)
{
    nic.corruptNextRdma(count);
    corrupted_.increment(static_cast<uint64_t>(count));
}

void
FaultInjector::injectLatentError(MediaFaultTarget &media,
                                 uint64_t offset, uint64_t len)
{
    media.injectLatentError(offset, len);
    latent_errors_.increment();
}

void
FaultInjector::setTornWriteRate(MediaFaultTarget &media, double p)
{
    media.setTornWriteRate(p);
}

void
FaultInjector::track(sim::EventQueue::Handle handle)
{
    scheduled_.erase(std::remove_if(scheduled_.begin(),
                                    scheduled_.end(),
                                    [](const sim::EventQueue::Handle &h) {
                                        return !h.pending();
                                    }),
                     scheduled_.end());
    scheduled_.push_back(std::move(handle));
}

void
FaultInjector::scheduleBreak(sim::Tick when, ViNic &nic, EndpointId ep)
{
    track(sim_.queue().scheduleAtCancelable(when, [this, &nic, ep] {
        if (ViEndpoint *endpoint = nic.endpoint(ep)) {
            breaks_.increment();
            nic.breakConnection(*endpoint);
        }
    }));
}

void
FaultInjector::scheduleNodeCrash(sim::Tick when, NodeFaultTarget &node)
{
    track(sim_.queue().scheduleAtCancelable(when, [this, &node] {
        node_crashes_.increment();
        node.crash();
    }));
}

void
FaultInjector::scheduleNodeRestart(sim::Tick when,
                                   NodeFaultTarget &node)
{
    track(sim_.queue().scheduleAtCancelable(when, [this, &node] {
        node_restarts_.increment();
        node.restart();
    }));
}

void
FaultInjector::scheduleNodeOutage(sim::Tick from, sim::Tick until,
                                  NodeFaultTarget &node)
{
    scheduleNodeCrash(from, node);
    scheduleNodeRestart(until, node);
}

void
FaultInjector::startChaos(const ChaosConfig &config,
                          std::vector<NodeFaultTarget *> victims)
{
    if (victims.empty() || config.end <= config.begin)
        return;
    // Lazy fork, same rule as the loss and corruption streams: a
    // build that never runs a campaign draws nothing.
    if (!chaos_rng_)
        chaos_rng_.emplace(sim_.forkRng());
    sim::spawn(chaosTask(config, std::move(victims)));
}

sim::Task<>
FaultInjector::chaosTask(ChaosConfig config,
                         std::vector<NodeFaultTarget *> victims)
{
    if (sim_.now() < config.begin)
        co_await sim_.sleep(config.begin - sim_.now());
    for (;;) {
        const sim::Tick gap = static_cast<sim::Tick>(
            chaos_rng_->exponential(
                static_cast<double>(config.mean_gap)));
        if (sim_.now() + gap >= config.end)
            break;
        co_await sim_.sleep(gap);
        const size_t victim =
            chaos_rng_->uniformInt(0, victims.size() - 1);
        const sim::Tick down = static_cast<sim::Tick>(
            chaos_rng_->uniformInt(config.min_down, config.max_down));
        node_crashes_.increment();
        victims[victim]->crash();
        co_await sim_.sleep(down);
        node_restarts_.increment();
        victims[victim]->restart();
        chaos_outages_.increment();
    }
}

void
FaultInjector::cancelScheduled()
{
    for (sim::EventQueue::Handle &handle : scheduled_)
        handle.cancel();
    scheduled_.clear();
}

void
FaultInjector::clear()
{
    drop_next_ = 0;
    drop_towards_.reset();
    loss_rate_ = 0.0;
    blackout_from_ = 0;
    blackout_until_ = 0;
    corrupt_next_ = 0;
    corrupt_towards_.reset();
    corrupt_rate_ = 0.0;
    cancelScheduled();
}

bool
FaultInjector::shouldDrop(const net::Packet &packet)
{
    bool drop = false;

    if (drop_next_ > 0 &&
        (!drop_towards_ || packet.dst == *drop_towards_)) {
        --drop_next_;
        drop = true;
    }
    if (!drop && loss_rate_ > 0.0 && rng_->bernoulli(loss_rate_))
        drop = true;
    if (!drop && sim_.now() >= blackout_from_ &&
        sim_.now() < blackout_until_) {
        drop = true;
    }

    if (drop)
        dropped_.increment();
    return drop;
}

bool
FaultInjector::shouldCorrupt(const net::Packet &packet)
{
    bool corrupt = false;

    if (corrupt_next_ > 0 &&
        (!corrupt_towards_ || packet.dst == *corrupt_towards_)) {
        --corrupt_next_;
        corrupt = true;
    }
    if (!corrupt && corrupt_rate_ > 0.0 &&
        corrupt_rng_->bernoulli(corrupt_rate_)) {
        corrupt = true;
    }

    if (corrupt)
        corrupted_.increment();
    return corrupt;
}

} // namespace v3sim::vi
