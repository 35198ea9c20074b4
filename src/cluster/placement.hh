/**
 * @file
 * The placement map: which node replicates which volume extent.
 *
 * The paper runs V3 as a fixed cluster of storage nodes (Tables 1/2)
 * with the volume striped across them; src/cluster generalizes that
 * static wiring into a *service*. The unit of placement is the
 * shard: one RAID-1 replica set (a dsa::MirroredDevice leg pair),
 * with the volume striped round-robin across shards exactly as
 * dsa::StripedDevice does — so the map is a description of the
 * RAID-10 geometry the data plane already implements, plus the
 * liveness state of every replica.
 *
 * Every mutation of the map is an epoch bump. Clients carry the
 * epoch of the map they routed with; a client presenting a stale
 * epoch is redirected to refetch (cluster::VolumeDirectory models
 * the redirect round trip). The epoch is what makes "exactly once
 * across a view change" arguable: a write admitted under epoch E
 * only targets replicas the epoch-E map called writable, and the
 * DSA layer's per-connection dedup absorbs duplicate retransmissions
 * within a connection regardless of epoch.
 */

#ifndef V3SIM_CLUSTER_PLACEMENT_HH
#define V3SIM_CLUSTER_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "util/stripe.hh"

namespace v3sim::cluster
{

/** Liveness of one replica of one shard. */
enum class ReplicaState : uint8_t
{
    /** Serving reads and taking writes. */
    Active,
    /** Reachable again and taking writes, still replaying missed
     *  regions; not readable yet. */
    Resyncing,
    /** Down: writes are logged against it, reads avoid it. */
    Failed,
};

/** One replica of one shard: a storage node holding a full copy. */
struct ReplicaView
{
    int node = -1;
    ReplicaState state = ReplicaState::Active;
};

/** One shard: a replica set holding one stripe column. */
struct ShardView
{
    std::vector<ReplicaView> replicas;

    size_t
    activeCount() const
    {
        size_t n = 0;
        for (const ReplicaView &replica : replicas)
            n += replica.state == ReplicaState::Active ? 1 : 0;
        return n;
    }
};

/** The whole volume's placement at one epoch. */
struct PlacementMap
{
    /** Monotone view number; 0 means "no map yet". */
    uint64_t epoch = 0;
    /** Stripe unit of the round-robin layout across shards. */
    uint64_t stripe_unit = 0;
    std::vector<ShardView> shards;

    /** Shard owning byte @p offset (StripedDevice's round-robin). */
    size_t
    shardFor(uint64_t offset) const
    {
        return util::stripeChunk(offset, 1, stripe_unit, shards.size())
            .child;
    }

    /** Locates @p node in the map; returns false when absent. */
    bool
    find(int node, size_t &shard, size_t &replica) const
    {
        for (size_t s = 0; s < shards.size(); ++s) {
            for (size_t r = 0; r < shards[s].replicas.size(); ++r) {
                if (shards[s].replicas[r].node == node) {
                    shard = s;
                    replica = r;
                    return true;
                }
            }
        }
        return false;
    }
};

/**
 * One entry of the metadata log: "as of this epoch, this node's
 * replica is in this state". The genesis map is record zero; every
 * later record is a single-replica state transition, so replaying
 * the log from genesis reproduces the map at any epoch.
 */
struct PlacementRecord
{
    uint64_t epoch = 0;
    int shard = -1;
    int node = -1;
    ReplicaState state = ReplicaState::Active;
};

} // namespace v3sim::cluster

#endif // V3SIM_CLUSTER_PLACEMENT_HH
