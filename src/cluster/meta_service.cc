#include "cluster/meta_service.hh"

#include "sim/event_queue.hh"

namespace v3sim::cluster
{

MetaService::MetaService(sim::Simulation &sim, PlacementMap genesis)
    : sim_(sim),
      elections_(sim.metrics().counter("meta.elections")),
      commits_(sim.metrics().counter("meta.commits")),
      rejects_(sim.metrics().counter("meta.rejects")),
      fetches_(sim.metrics().counter("meta.fetches"))
{
    replicas_.reserve(static_cast<size_t>(kReplicas));
    for (int id = 0; id < kReplicas; ++id)
        replicas_.push_back(std::make_unique<MetaReplica>(id));

    // The genesis map is epoch 1, record zero of every log: the
    // cluster is born already agreed, the way a deployment tool
    // would initialize all replicas before serving. Replica 0 holds
    // the genesis lease from t=0.
    map_ = std::move(genesis);
    map_.epoch = 1;
    const PlacementRecord birth{map_.epoch, -1, -1,
                                ReplicaState::Active};
    for (auto &replica : replicas_)
        replica->append(birth);
    lease_until_ = sim_.now() + kLeaseDuration;
}

void
MetaService::start()
{
    if (started_)
        return;
    started_ = true;
    running_ = true;
    sim::spawn(leaseLoop());
}

size_t
MetaService::liveCount() const
{
    size_t n = 0;
    for (const auto &replica : replicas_)
        n += replica->crashed() ? 0 : 1;
    return n;
}

sim::Task<bool>
MetaService::propose(int shard, int node, ReplicaState state)
{
    start();
    // Client -> primary hop.
    co_await sim_.sleep(kRpcDelay);
    co_await afterLeasePass();
    if (primary_ < 0 || replicas_[static_cast<size_t>(primary_)]->crashed()) {
        rejects_.increment();
        co_return false;
    }
    const int leader = primary_;
    // Primary -> replicas fan-out and ack collection.
    co_await sim_.sleep(2 * kRpcDelay);
    co_await afterLeasePass();
    // The leader may have crashed or been superseded while the
    // round trip was in flight; a deposed leader must not commit.
    if (primary_ != leader ||
        replicas_[static_cast<size_t>(leader)]->crashed()) {
        rejects_.increment();
        co_return false;
    }
    if (liveCount() < majority()) {
        rejects_.increment();
        co_return false;
    }
    const PlacementRecord record{map_.epoch + 1, shard, node, state};
    for (auto &replica : replicas_) {
        if (!replica->crashed())
            replica->append(record);
    }
    map_.epoch = record.epoch;
    if (shard >= 0) {
        for (ReplicaView &view :
             map_.shards[static_cast<size_t>(shard)].replicas) {
            if (view.node == node)
                view.state = state;
        }
    }
    commits_.increment();
    co_return true;
}

sim::Task<bool>
MetaService::fetch(PlacementMap &out)
{
    start();
    co_await sim_.sleep(2 * kRpcDelay);
    co_await afterLeasePass();
    if (liveCount() < majority())
        co_return false;
    out = map_;
    fetches_.increment();
    co_return true;
}

sim::Task<>
MetaService::afterLeasePass()
{
    co_await sim_.queue().finalBand();
    // The lease loop's final event was queued when its sleep fired,
    // before this tick's final band began, so one re-queue lands
    // behind it.
    while (lease_pass_at_ == sim_.now())
        co_await sim_.queue().finalBand();
}

sim::Task<>
MetaService::leaseLoop()
{
    while (running_) {
        lease_pass_at_ = sim_.now() + kLeaseInterval;
        co_await sim_.sleep(kLeaseInterval);
        // All lease arithmetic in the final band: a crash and a
        // renewal landing on the same tick must resolve the same way
        // regardless of event-queue tie order.
        co_await sim_.queue().finalBand();
        lease_pass_at_ = -1;
        if (!running_)
            break;
        if (liveCount() < majority()) {
            // A minority fragment can renew nothing and elect
            // nobody; note the expiry so a later healthy majority
            // starts from "leaderless" rather than trusting a lease
            // that lapsed during the partition.
            if (sim_.now() >= lease_until_)
                primary_ = -1;
            continue;
        }
        if (primary_ >= 0 &&
            !replicas_[static_cast<size_t>(primary_)]->crashed()) {
            lease_until_ = sim_.now() + kLeaseDuration;
            continue;
        }
        if (sim_.now() < lease_until_) {
            // The primary is down but its lease has not expired.
            // Electing now could overlap with a primary that is
            // merely slow in the real-world analogue; wait it out.
            continue;
        }
        // Election. The winner is the minimum live replica id — a
        // content key, so the outcome never depends on the order in
        // which same-tick events happened to run (DESIGN.md §8).
        int winner = -1;
        for (const auto &replica : replicas_) {
            if (!replica->crashed()) {
                winner = replica->id();
                break;
            }
        }
        primary_ = winner;
        lease_until_ = sim_.now() + kLeaseDuration;
        elections_.increment();
        // A view-change record: epoch bumps with no placement
        // delta, so every client is forced through a refetch and
        // nobody keeps routing on a map the new primary may be
        // about to change.
        const PlacementRecord view{map_.epoch + 1, -1, -1,
                                   ReplicaState::Active};
        for (auto &replica : replicas_) {
            if (!replica->crashed())
                replica->append(view);
        }
        map_.epoch = view.epoch;
    }
}

} // namespace v3sim::cluster
