#include "cluster/heartbeat.hh"

#include "sim/event_queue.hh"

namespace v3sim::cluster
{

HeartbeatMonitor::HeartbeatMonitor(sim::Simulation &sim,
                                   std::vector<HeartbeatPeer> peers)
    : sim_(sim),
      probes_(sim.metrics().counter("hb.probes")),
      down_events_(sim.metrics().counter("hb.down_events")),
      up_events_(sim.metrics().counter("hb.up_events"))
{
    peers_.reserve(peers.size());
    for (HeartbeatPeer &peer : peers)
        peers_.push_back(PeerState{std::move(peer)});
}

void
HeartbeatMonitor::start()
{
    if (started_)
        return;
    started_ = true;
    running_ = true;
    sim::spawn(probeLoop());
}

sim::Task<>
HeartbeatMonitor::probeLoop()
{
    std::vector<bool> alive_at_send(peers_.size(), false);
    while (running_) {
        co_await sim_.sleep(kInterval);
        co_await sim_.queue().finalBand();
        if (!running_)
            break;
        // A probe is answered only if the peer was up when the probe
        // left AND when the reply would be sent: a node that crashed
        // in between has dropped the request on the floor.
        for (size_t i = 0; i < peers_.size(); ++i)
            alive_at_send[i] = peers_[i].peer.alive();
        co_await sim_.sleep(2 * kRpcDelay);
        co_await sim_.queue().finalBand();
        if (!running_)
            break;
        for (size_t i = 0; i < peers_.size(); ++i) {
            PeerState &state = peers_[i];
            probes_.increment();
            const bool replied =
                alive_at_send[i] && state.peer.alive();
            if (!replied) {
                state.epoch_valid = false;
                if (++state.misses >= kMissThreshold &&
                    !state.down) {
                    state.down = true;
                    down_events_.increment();
                }
                continue;
            }
            // Answered. Did it bounce since the last answer?
            bool bounced = false;
            if (state.peer.boot_epoch) {
                const uint64_t epoch = state.peer.boot_epoch();
                bounced = state.epoch_valid && epoch != state.last_epoch;
                state.last_epoch = epoch;
                state.epoch_valid = true;
            }
            if (bounced) {
                // The peer crashed and came back between two answered
                // probes: surface one down/up cycle so the control
                // plane re-walks it through failover and resync.
                if (!state.down) {
                    state.down = true;
                    down_events_.increment();
                }
                state.misses = kMissThreshold;
                continue;
            }
            state.misses = 0;
            if (state.down) {
                state.down = false;
                up_events_.increment();
            }
        }
    }
}

} // namespace v3sim::cluster
