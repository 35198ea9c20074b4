/**
 * @file
 * Tests for the cluster control plane: MetaService quorum commits,
 * lease expiry and re-election, heartbeat failure detection and
 * bounce handling, and the end-to-end Testbed path — node crash ->
 * driven failover -> epoch bump -> stale-client redirect -> resync
 * -> readmission.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/heartbeat.hh"
#include "cluster/meta_service.hh"
#include "cluster/placement.hh"
#include "scenarios/testbed.hh"

namespace v3sim::cluster
{
namespace
{

using scenarios::Backend;
using scenarios::HostParams;
using scenarios::StorageParams;
using scenarios::Testbed;
using sim::Addr;
using sim::Task;

constexpr uint64_t kIo = 8192;

/** RAID-10 genesis: two shards, nodes {0,1} and {2,3}, all Active. */
PlacementMap
twoShardGenesis()
{
    PlacementMap map;
    map.stripe_unit = 64 * util::kKiB;
    for (int s = 0; s < 2; ++s) {
        ShardView shard;
        shard.replicas.push_back(
            ReplicaView{2 * s, ReplicaState::Active});
        shard.replicas.push_back(
            ReplicaView{2 * s + 1, ReplicaState::Active});
        map.shards.push_back(std::move(shard));
    }
    return map;
}

/** Runs one propose() to completion; returns its verdict. */
bool
proposeNow(sim::Simulation &sim, MetaService &meta, int shard,
           int node, ReplicaState state)
{
    bool ok = false;
    sim::spawn([](MetaService &m, int s, int n, ReplicaState st,
                  bool &out) -> Task<> {
        out = co_await m.propose(s, n, st);
    }(meta, shard, node, state, ok));
    sim.runUntil(sim.now() + sim::msecs(1));
    return ok;
}

TEST(MetaService, GenesisIsCommittedAsEpochOne)
{
    sim::Simulation sim(7);
    MetaService meta(sim, twoShardGenesis());

    EXPECT_EQ(meta.committedEpoch(), 1u);
    EXPECT_EQ(meta.primary(), 0);
    EXPECT_EQ(meta.replicaCount(), 3);
    // Record zero of every log is the genesis map.
    for (int id = 0; id < meta.replicaCount(); ++id)
        EXPECT_EQ(meta.replica(id).log().size(), 1u);
    EXPECT_EQ(meta.committed().shards.size(), 2u);
    EXPECT_EQ(meta.committed().shardFor(64 * util::kKiB), 1u);
}

TEST(MetaService, ProposeCommitsOnMajorityAndBumpsEpoch)
{
    sim::Simulation sim(7);
    MetaService meta(sim, twoShardGenesis());

    EXPECT_TRUE(
        proposeNow(sim, meta, 0, 1, ReplicaState::Failed));
    EXPECT_EQ(meta.committedEpoch(), 2u);
    EXPECT_EQ(meta.commitCount(), 1u);
    EXPECT_EQ(meta.committed().shards[0].replicas[1].state,
              ReplicaState::Failed);
    EXPECT_EQ(meta.committed().shards[0].activeCount(), 1u);
    // All three replicas were live: each appended the record.
    for (int id = 0; id < meta.replicaCount(); ++id)
        EXPECT_EQ(meta.replica(id).log().size(), 2u);

    // fetch() serves the committed map.
    PlacementMap fetched;
    bool fetch_ok = false;
    sim::spawn([](MetaService &m, PlacementMap &out,
                  bool &ok) -> Task<> {
        ok = co_await m.fetch(out);
    }(meta, fetched, fetch_ok));
    sim.runUntil(sim.now() + sim::msecs(1));
    EXPECT_TRUE(fetch_ok);
    EXPECT_EQ(fetched.epoch, 2u);
    EXPECT_EQ(meta.fetchCount(), 1u);
}

TEST(MetaService, ProposeAndFetchFailWithoutQuorum)
{
    sim::Simulation sim(7);
    MetaService meta(sim, twoShardGenesis());

    // A minority fragment (1 of 3) must reject writes AND reads:
    // the surviving replica alone cannot prove its map is current.
    meta.replica(1).crash();
    meta.replica(2).crash();
    EXPECT_FALSE(
        proposeNow(sim, meta, 0, 1, ReplicaState::Failed));
    EXPECT_EQ(meta.committedEpoch(), 1u);
    EXPECT_GE(meta.rejectCount(), 1u);

    PlacementMap fetched;
    bool fetch_ok = true;
    sim::spawn([](MetaService &m, PlacementMap &out,
                  bool &ok) -> Task<> {
        ok = co_await m.fetch(out);
    }(meta, fetched, fetch_ok));
    sim.runUntil(sim.now() + sim::msecs(1));
    EXPECT_FALSE(fetch_ok);

    // Quorum restored: the same proposal now commits.
    meta.replica(1).restart();
    EXPECT_TRUE(
        proposeNow(sim, meta, 0, 1, ReplicaState::Failed));
    EXPECT_EQ(meta.committedEpoch(), 2u);
    // The crashed replica's log did not get the record.
    EXPECT_EQ(meta.replica(0).log().size(), 2u);
    EXPECT_EQ(meta.replica(2).log().size(), 1u);
}

TEST(MetaService, PrimaryCrashElectsMinimumLiveAfterLeaseExpiry)
{
    sim::Simulation sim(7);
    MetaService meta(sim, twoShardGenesis());
    meta.start();

    sim.runUntil(sim.now() + sim::msecs(2));
    meta.replica(0).crash();

    // Inside the old lease: no election yet, writes unavailable.
    EXPECT_FALSE(
        proposeNow(sim, meta, 0, 0, ReplicaState::Failed));
    EXPECT_EQ(meta.primary(), 0);
    EXPECT_EQ(meta.electionCount(), 0u);

    // Past lease_duration the loop elects the minimum live id and
    // commits a view-change record (epoch bump, no placement delta).
    sim.runUntil(sim.now() + sim::msecs(40));
    EXPECT_EQ(meta.primary(), 1);
    EXPECT_EQ(meta.electionCount(), 1u);
    EXPECT_EQ(meta.committedEpoch(), 2u);
    EXPECT_GT(meta.replica(1).log().size(),
              meta.replica(0).log().size());

    // Metadata writes flow again through the new primary.
    EXPECT_TRUE(
        proposeNow(sim, meta, 0, 0, ReplicaState::Failed));
    EXPECT_EQ(meta.committedEpoch(), 3u);

    // The old primary rejoining does not depose the new one: its
    // lease is valid and elections only fire on a dead primary.
    meta.replica(0).restart();
    sim.runUntil(sim.now() + sim::msecs(40));
    EXPECT_EQ(meta.primary(), 1);
    EXPECT_EQ(meta.electionCount(), 1u);
    meta.stop();
}

TEST(MetaService, ProposalOnElectionTickSeesTheNewPrimary)
{
    // An election and a proposal's leader check share a tick. Both
    // run in the final band, whose pass order follows tie-shuffled
    // arrival, so the proposal waits for the lease pass and commits
    // through the new primary under every seed.
    for (const uint64_t tie_seed :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 20020817u}) {
        sim::Simulation sim(7);
        sim.queue().setTieShuffle(tie_seed);
        MetaService meta(sim, twoShardGenesis());
        meta.start();
        sim.runUntil(sim::msecs(2));
        meta.replica(0).crash();
        // The genesis lease ends on a lease-loop tick.
        const sim::Tick election = MetaService::kLeaseDuration;
        bool ok = false;
        sim::spawn([](sim::Simulation &s, MetaService &m, sim::Tick at,
                      bool &out) -> Task<> {
            co_await s.sleep(at - s.now());
            out = co_await m.propose(0, 0, ReplicaState::Failed);
        }(sim, meta, election - MetaService::kRpcDelay, ok));
        sim.runUntil(election - 1);
        ASSERT_EQ(meta.electionCount(), 0u);
        sim.runUntil(election + sim::msecs(1));
        EXPECT_EQ(meta.electionCount(), 1u) << tie_seed;
        EXPECT_TRUE(ok) << tie_seed;
        EXPECT_EQ(meta.committedEpoch(), 3u) << tie_seed;
        meta.stop();
    }
}

TEST(HeartbeatMonitor, DownAfterConsecutiveMissesUpOnAnswer)
{
    sim::Simulation sim(7);
    bool alive = true;
    uint64_t boot = 1;
    std::vector<HeartbeatPeer> peers;
    peers.push_back(HeartbeatPeer{"n0", [&alive] { return alive; },
                                  [&boot] { return boot; }});
    HeartbeatMonitor hb(sim, std::move(peers));
    hb.start();

    sim.runUntil(sim.now() + sim::msecs(9));
    EXPECT_FALSE(hb.isDown(0));
    EXPECT_GT(hb.probeCount(), 0u);

    // One missed probe is jitter, not a crash.
    alive = false;
    sim.runUntil(sim.now() + sim::msecs(1));
    EXPECT_FALSE(hb.isDown(0));

    // miss_threshold consecutive misses: declared down, once.
    sim.runUntil(sim.now() + sim::msecs(10));
    EXPECT_TRUE(hb.isDown(0));
    EXPECT_EQ(hb.downEventCount(), 1u);

    // First answered probe brings it back.
    alive = true;
    sim.runUntil(sim.now() + sim::msecs(5));
    EXPECT_FALSE(hb.isDown(0));
    EXPECT_EQ(hb.upEventCount(), 1u);
    hb.stop();
}

TEST(HeartbeatMonitor, BounceSurfacesOneDownUpCycle)
{
    sim::Simulation sim(7);
    bool alive = true;
    uint64_t boot = 1;
    std::vector<HeartbeatPeer> peers;
    peers.push_back(HeartbeatPeer{"n0", [&alive] { return alive; },
                                  [&boot] { return boot; }});
    HeartbeatMonitor hb(sim, std::move(peers));
    hb.start();

    sim.runUntil(sim.now() + sim::msecs(9));
    EXPECT_FALSE(hb.isDown(0));

    // The peer crashes and restarts between two answered probes:
    // it never misses one, but its boot epoch moved. The monitor
    // must report a full down/up cycle so the control plane re-walks
    // the node through failover and resync.
    ++boot;
    sim.runUntil(sim.now() + sim::msecs(10));
    EXPECT_EQ(hb.downEventCount(), 1u);
    EXPECT_EQ(hb.upEventCount(), 1u);
    EXPECT_FALSE(hb.isDown(0));
    hb.stop();
}

/** A 4-node (2-shard RAID-10) cluster testbed with detection fast
 *  enough that failover, resync and readmission all complete inside
 *  a few hundred simulated milliseconds. */
class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest()
    {
        dsa::DsaConfig dsa_config;
        dsa_config.retransmit_timeout = sim::msecs(12);
        dsa_config.max_retransmits = 1;
        dsa_config.reconnect_delay = sim::msecs(1);
        dsa_config.max_reconnect_attempts = 2;
        dsa_config.connect_timeout = sim::msecs(3);

        StorageParams storage_params;
        storage_params.v3_nodes = 4;
        storage_params.disks_per_node = 2;
        storage_params.cache_bytes_per_node = 4 * util::kMiB;
        storage_params.layout = scenarios::Layout::Cluster;
        storage_params.mirror.probe_interval = sim::msecs(2);

        bed_ = std::make_unique<Testbed>(
            Backend::Cdsa, HostParams::midSize(), storage_params,
            dsa_config, /*seed=*/11);
        EXPECT_TRUE(bed_->connectAll());
        buffer_ = bed_->host().memory().allocate(kIo);
    }

    dsa::MirroredDevice &mirror(size_t shard)
    {
        return *bed_->mirrors()[shard];
    }

    /** Runs @p count sequential I/Os (every third a write) through
     *  the volume directory; returns how many succeeded. Bounded
     *  with runUntil: the cluster control loops never terminate. */
    int
    runIos(int count, sim::Tick bound = sim::msecs(2000))
    {
        int succeeded = 0;
        sim::spawn([](sim::Simulation &s, dsa::BlockDevice &device,
                      Addr buf, int n, int &out) -> Task<> {
            for (int i = 0; i < n; ++i) {
                const uint64_t offset =
                    static_cast<uint64_t>(i % 64) * kIo;
                const bool ok =
                    i % 3 == 0
                        ? co_await device.write(offset, kIo, buf)
                        : co_await device.read(offset, kIo, buf);
                if (ok)
                    ++out;
                co_await s.sleep(sim::usecs(500));
            }
        }(bed_->sim(), bed_->device(), buffer_, count, succeeded));
        bed_->sim().runUntil(bed_->sim().now() + bound);
        return succeeded;
    }

    std::unique_ptr<Testbed> bed_;
    Addr buffer_ = sim::kNullAddr;
};

TEST_F(ClusterTest, NodeCrashFailoverRedirectResyncReadmit)
{
    // Crash node 3 (shard 1, leg 1; hosts no metadata replica) for
    // ~95 ms while the workload runs. The heartbeat declares it down
    // in ~6 ms, the reconcile loop commits Failed to the map and
    // fails the leg — well ahead of data-path retransmit exhaustion.
    auto targets = bed_->nodeTargets();
    ASSERT_EQ(targets.size(), 4u);
    bed_->faults().scheduleNodeOutage(
        bed_->sim().now() + sim::msecs(5),
        bed_->sim().now() + sim::msecs(100), *targets[3]);

    EXPECT_EQ(runIos(250), 250);
    // Idle tail: let resync drain and readmission commit.
    bed_->sim().runUntil(bed_->sim().now() + sim::msecs(200));

    cluster::VolumeDirectory &dir =
        *static_cast<cluster::VolumeDirectory *>(&bed_->device());
    EXPECT_GE(dir.drivenFailoverCount(), 1u);
    EXPECT_GE(dir.staleRedirectCount(), 1u);

    // Failed -> Resyncing -> Active: at least three commits on top
    // of genesis. No metadata replica died, so no election.
    MetaService &meta = *bed_->meta();
    EXPECT_GE(meta.committedEpoch(), 4u);
    EXPECT_EQ(meta.electionCount(), 0u);
    EXPECT_EQ(meta.committed().shards[1].activeCount(), 2u);

    EXPECT_GE(mirror(1).failoverCount(), 1u);
    EXPECT_GE(mirror(1).readmitCount(), 1u);
    EXPECT_FALSE(mirror(1).degraded());
    EXPECT_EQ(mirror(1).dirtyBytes(), 0u);

    HeartbeatMonitor &hb = *bed_->heartbeats();
    EXPECT_GE(hb.downEventCount(), 1u);
    EXPECT_GE(hb.upEventCount(), 1u);
}

TEST_F(ClusterTest, MetaPrimaryCrashElectsAndRecovers)
{
    // Crash node 0: one box takes out shard 0 leg 0 AND metadata
    // replica 0 — the genesis lease holder. Metadata writes stall
    // until the lease lapses, replica 1 wins the election (minimum
    // live id), and the view-change epoch bump redirects clients.
    auto targets = bed_->nodeTargets();
    bed_->faults().scheduleNodeOutage(
        bed_->sim().now() + sim::msecs(5),
        bed_->sim().now() + sim::msecs(100), *targets[0]);

    EXPECT_EQ(runIos(250), 250);
    bed_->sim().runUntil(bed_->sim().now() + sim::msecs(200));

    MetaService &meta = *bed_->meta();
    EXPECT_GE(meta.electionCount(), 1u);
    EXPECT_EQ(meta.primary(), 1);

    cluster::VolumeDirectory &dir =
        *static_cast<cluster::VolumeDirectory *>(&bed_->device());
    EXPECT_GE(dir.staleRedirectCount(), 1u);
    // The directory converged back onto the committed map.
    EXPECT_EQ(dir.cachedEpoch(), meta.committedEpoch());

    EXPECT_GE(mirror(0).failoverCount(), 1u);
    EXPECT_GE(mirror(0).readmitCount(), 1u);
    EXPECT_FALSE(mirror(0).degraded());
    EXPECT_EQ(mirror(0).dirtyBytes(), 0u);
    EXPECT_EQ(meta.committed().shards[0].activeCount(), 2u);
}

} // namespace
} // namespace v3sim::cluster
