/**
 * @file
 * The single-node rig the DSA tests share: one database host and one
 * V3 server on a fabric, the server's disks striped into one volume,
 * the server started, and a host NIC to connect clients through.
 */

#ifndef V3SIM_TESTS_SINGLE_NODE_RIG_HH
#define V3SIM_TESTS_SINGLE_NODE_RIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "disk/disk_spec.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"
#include "util/units.hh"
#include "vi/vi_nic.hh"

namespace v3sim::test
{

/** The default V3 server configuration with a @p cache_bytes cache. */
inline storage::V3ServerConfig
serverWithCache(uint64_t cache_bytes)
{
    storage::V3ServerConfig config;
    config.cache_bytes = cache_bytes;
    return config;
}

/** What a SingleNodeRig is built from. */
struct SingleNodeRigParams
{
    uint64_t seed = 1;
    storage::V3ServerConfig server;
    /** The server's disks are SCSI 10K spindles named
     *  "<disk_name>.<i>". */
    std::string disk_name = "d";
    int disks = 2;
    uint64_t stripe_unit = 64 * util::kKiB;
    osmodel::NodeConfig host{.name = "db", .cpus = 4};
    std::string nic_name = "nic";
};

/**
 * Builds Simulation, Fabric, host Node, V3Server, disks, striped
 * volume, server start() and host ViNic, in that order: the order
 * fixes RNG forks, fabric ports and metric names, which the tests'
 * expectations depend on. Fixtures derive from the rig (the members
 * carry the names their bodies use); a test that needs a rig of its
 * own declares one.
 */
struct SingleNodeRig
{
    explicit SingleNodeRig(const SingleNodeRigParams &params)
        : sim_(params.seed),
          fabric_(sim_.queue()),
          host_(sim_, params.host),
          server_(std::make_unique<storage::V3Server>(sim_, fabric_,
                                                      params.server)),
          volume_(server_->volumeManager().addStripedVolume(
              server_->diskManager().addDisks(disk::DiskSpec::scsi10k(),
                                              params.disk_name,
                                              params.disks),
              params.stripe_unit))
    {
        server_->start();
        nic_ = std::make_unique<vi::ViNic>(sim_, fabric_, host_.memory(),
                                           params.nic_name);
    }

    sim::Simulation sim_;
    net::Fabric fabric_;
    osmodel::Node host_;
    std::unique_ptr<storage::V3Server> server_;
    uint32_t volume_;
    std::unique_ptr<vi::ViNic> nic_;
};

} // namespace v3sim::test

#endif // V3SIM_TESTS_SINGLE_NODE_RIG_HH
