#include "cluster/volume_directory.hh"

#include "sim/event_queue.hh"
#include "util/logging.hh"

namespace v3sim::cluster
{

VolumeDirectory::VolumeDirectory(
    sim::Simulation &sim, MetaService &meta,
    HeartbeatMonitor &heartbeats,
    std::vector<dsa::MirroredDevice *> shards,
    dsa::BlockDevice &data)
    : sim_(sim), meta_(meta), heartbeats_(heartbeats),
      shards_(std::move(shards)), data_(data),
      reads_(sim.metrics().counter("vdir.reads")),
      writes_(sim.metrics().counter("vdir.writes")),
      stale_redirects_(sim.metrics().counter("vdir.stale_redirects")),
      driven_failovers_(sim.metrics().counter("vdir.driven_failovers"))
{
    // Routing starts on the genesis map; every node begins Active.
    cached_ = meta_.committed();
    last_state_.assign(heartbeats_.peerCount(),
                       ReplicaState::Active);
}

void
VolumeDirectory::ensureStarted()
{
    if (started_)
        return;
    started_ = true;
    running_ = true;
    meta_.start();
    heartbeats_.start();
    sim::spawn(reconcileLoop());
}

void
VolumeDirectory::stopControl()
{
    running_ = false;
    heartbeats_.stop();
    meta_.stop();
}

sim::Task<bool>
VolumeDirectory::route()
{
    ensureStarted();
    // Bounded retries: a refetch can itself race another epoch bump,
    // but a handful of rounds always catches a quiescing cluster,
    // and an unhealthy metadata service must fail the I/O rather
    // than spin forever.
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (cached_.epoch == meta_.committedEpoch())
            co_return true;
        stale_redirects_.increment();
        co_await sim_.sleep(kRedirectDelay);
        // Awaits are hoisted out of condition position throughout
        // this file: g++ 12.2 miscompiles some coroutines whose
        // co_await sits in an if-condition (the ramp hands out a
        // frame handle biased 8 bytes from the layout the resumer
        // indexes, so the first resume reads a garbage resume index
        // and hits the dispatch trap). A named local sidesteps it.
        const bool fetched = co_await meta_.fetch(cached_);
        if (!fetched)
            co_return false;
    }
    co_return cached_.epoch == meta_.committedEpoch();
}

sim::Task<bool>
VolumeDirectory::read(uint64_t offset, uint64_t len, uint64_t buffer)
{
    reads_.increment();
    const bool routed = co_await route();
    if (!routed)
        co_return false;
    co_return co_await data_.read(offset, len, buffer);
}

sim::Task<bool>
VolumeDirectory::write(uint64_t offset, uint64_t len, uint64_t buffer)
{
    writes_.increment();
    const bool routed = co_await route();
    if (!routed)
        co_return false;
    co_return co_await data_.write(offset, len, buffer);
}

sim::Task<>
VolumeDirectory::reconcileLoop()
{
    while (running_) {
        co_await sim_.sleep(kReconcileInterval);
        co_await sim_.queue().finalBand();
        if (!running_)
            break;
        // Nodes are walked in index order (a content key): two nodes
        // changing state on the same tick always commit in the same
        // order regardless of event-queue tie shuffle.
        for (size_t node = 0; node < last_state_.size(); ++node) {
            const size_t shard = node / 2;
            const size_t leg = node % 2;
            if (shard >= shards_.size())
                continue;
            dsa::MirroredDevice &mirror = *shards_[shard];
            if (heartbeats_.isDown(node) && mirror.legActive(leg)) {
                // Proactive failover: commit the death to the map
                // first, then fail the leg. If the proposal loses
                // quorum we leave the leg alone — the data plane's
                // own retransmit ladder still protects writes, and
                // we retry next round.
                const bool committed = co_await meta_.propose(
                    static_cast<int>(shard), static_cast<int>(node),
                    ReplicaState::Failed);
                if (committed) {
                    mirror.failLeg(leg);
                    driven_failovers_.increment();
                    last_state_[node] = ReplicaState::Failed;
                    V3LOG(Info, "vdir")
                        << "failed over node " << node << " (shard "
                        << shard << " leg " << leg << "), epoch "
                        << meta_.committedEpoch();
                }
                continue;
            }
            // Observe the mirror's own view of the leg (its resync
            // machinery runs independently) and commit transitions
            // after the fact so routing state catches up.
            ReplicaState actual = ReplicaState::Failed;
            if (mirror.legActive(leg))
                actual = ReplicaState::Active;
            else if (mirror.legCatchingUp(leg))
                actual = ReplicaState::Resyncing;
            if (actual != last_state_[node]) {
                const bool committed = co_await meta_.propose(
                    static_cast<int>(shard), static_cast<int>(node),
                    actual);
                if (committed)
                    last_state_[node] = actual;
            }
        }
    }
}

} // namespace v3sim::cluster
