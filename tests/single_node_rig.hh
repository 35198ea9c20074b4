/**
 * @file
 * The single-node rig the DSA tests share: one database host and one
 * V3 server on a fabric (the server builds its disks and striped
 * volume), and a host NIC to connect clients through.
 */

#ifndef V3SIM_TESTS_SINGLE_NODE_RIG_HH
#define V3SIM_TESTS_SINGLE_NODE_RIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"
#include "util/units.hh"
#include "vi/vi_nic.hh"

namespace v3sim::test
{

/** The default V3 server configuration with a @p cache_bytes cache
 *  and @p disks SCSI 10K spindles ("v3.d.<i>") striped in 64 KiB
 *  units. */
inline storage::V3ServerConfig
serverWithCache(uint64_t cache_bytes, int disks = 2)
{
    storage::V3ServerConfig config;
    config.cache_bytes = cache_bytes;
    config.disk_count = disks;
    return config;
}

/** Commands completed across @p node's disks. */
inline uint64_t
diskOps(storage::StorageNode &node)
{
    uint64_t total = 0;
    for (size_t i = 0; i < node.volume().diskCount(); ++i)
        total += node.volume().disk(i).completedCount();
    return total;
}

/** What a SingleNodeRig is built from. */
struct SingleNodeRigParams
{
    uint64_t seed = 1;
    storage::V3ServerConfig server = serverWithCache(256 * util::kMiB);
    osmodel::NodeConfig host{.name = "db", .cpus = 4};
    std::string nic_name = "nic";
};

/**
 * Builds Simulation, Fabric, host Node, V3Server (with its disks and
 * volume) and host ViNic, in that order: the order fixes RNG forks,
 * fabric ports and metric names, which the tests' expectations
 * depend on. Fixtures derive from the rig (the members carry the
 * names their bodies use); a test that needs a rig of its own
 * declares one.
 */
struct SingleNodeRig
{
    explicit SingleNodeRig(const SingleNodeRigParams &params)
        : sim_(params.seed),
          fabric_(sim_.queue()),
          host_(sim_, params.host),
          server_(std::make_unique<storage::V3Server>(sim_, fabric_,
                                                      params.server)),
          nic_(std::make_unique<vi::ViNic>(sim_, fabric_, host_.memory(),
                                           params.nic_name))
    {}

    sim::Simulation sim_;
    net::Fabric fabric_;
    osmodel::Node host_;
    std::unique_ptr<storage::V3Server> server_;
    std::unique_ptr<vi::ViNic> nic_;
};

} // namespace v3sim::test

#endif // V3SIM_TESTS_SINGLE_NODE_RIG_HH
