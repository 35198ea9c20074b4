/**
 * @file
 * Experiment testbeds: the paper's platforms, ready to assemble.
 *
 * A Testbed wires one database host to storage through a chosen
 * backend:
 *  - Local: the paper's baseline — the same disks attached directly
 *    to the host behind the kernel driver stack;
 *  - Kdsa / Wdsa / Cdsa: one or more V3 storage nodes reached over
 *    the VI fabric, one client NIC per storage node (the paper's
 *    NIC-per-node pairing);
 *  - Iscsi: the same storage nodes behind iSCSI/TCP, one session
 *    per node.
 *
 * Every networked backend builds its nodes in one loop: a
 * storage::StorageNode (V3Server or iscsi::Target, which builds its
 * own disks and striped volume), then the host's dsa::Session to it
 * (a DsaClient or an iscsi::Initiator); Local has one session, its
 * LocalBackend.
 * StorageParams::layout composes the database volume from the
 * sessions: striped across the nodes, or, over DSA clients, striped
 * across dsa::MirroredDevice node pairs (RAID-10), optionally run as
 * a cluster volume service, so availability experiments can crash
 * nodes via faults() while I/O continues.
 *
 * Every testbed owns a vi::FaultInjector over its fabric (faults()),
 * so experiments can script packet loss, connection breaks and
 * node crash/restart schedules without extra wiring.
 *
 * Scaling note (documented in DESIGN.md): TPC-C testbeds shrink the
 * working set and server caches by a common factor so the simulation
 * holds millions of cache-metadata entries instead of billions of
 * bytes. Hit ratios depend on the cache:working-set *ratio*, which
 * the scaling preserves; disk counts, CPU counts and all path costs
 * stay at paper scale.
 */

#ifndef V3SIM_SCENARIOS_TESTBED_HH
#define V3SIM_SCENARIOS_TESTBED_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/heartbeat.hh"
#include "cluster/meta_service.hh"
#include "cluster/volume_directory.hh"
#include "disk/disk_spec.hh"
#include "disk/volume.hh"
#include "dsa/block_device.hh"
#include "dsa/dsa_client.hh"
#include "dsa/local_backend.hh"
#include "dsa/mirrored_device.hh"
#include "iscsi/initiator.hh"
#include "iscsi/target.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"
#include "vi/fault_injector.hh"

namespace v3sim::scenarios
{

/** Storage attachment under test. */
enum class Backend : uint8_t
{
    Local,
    Kdsa,
    Wdsa,
    Cdsa,
    /** The rival transport: software iSCSI over TCP (DESIGN.md §11).
     *  Same storage nodes as the DSA backends, reached through the
     *  kernel socket stack instead of VI. */
    Iscsi,
};

const char *backendName(Backend backend);

/** Maps Backend to the DSA implementation (not valid for Local). */
dsa::DsaImpl backendImpl(Backend backend);

/** Host-side parameters (Table 1). */
struct HostParams
{
    int cpus = 4;
    osmodel::HostCosts costs = osmodel::HostCosts::midSize();
    bool phantom_memory = false;

    static HostParams midSize();
    static HostParams large();
};

/** How the networked backends compose the database volume from the
 *  per-node sessions. Local and iSCSI testbeds take only Striped. */
enum class Layout : uint8_t
{
    /** Stripe across the nodes. */
    Striped,
    /** Adjacent nodes pair into mirrors (RAID-1) and the volume
     *  stripes across the pairs (RAID-10). Requires an even
     *  v3_nodes. */
    Mirrored,
    /**
     * Mirrored, run as one fault-tolerant volume service
     * (src/cluster): placement-metadata service with lease-holding
     * primary, heartbeat failure detection, and a client-side volume
     * directory driving node-level failover. The first
     * MetaService::kReplicas nodes co-host a metadata replica (one
     * failure domain per box — see vi::CompositeFaultTarget).
     */
    Cluster,
};

/** Storage-side parameters (Table 2). */
struct StorageParams
{
    int v3_nodes = 4;
    int disks_per_node = 15;
    disk::DiskSpec disk_spec = disk::DiskSpec::scsi10k();
    uint64_t cache_bytes_per_node = 200 * util::kMiB;
    storage::CachePolicy cache_policy = storage::CachePolicy::Mq;
    static constexpr uint64_t stripe_unit = 64 * util::kKiB;
    /** Local backend: total directly attached disks (Fig 13 sweeps
     *  this); 0 means v3_nodes * disks_per_node. */
    int local_disks = 0;
    uint32_t request_credits = 64;

    Layout layout = Layout::Striped;
    /** Mirrored and Cluster use mirror. */
    dsa::MirrorConfig mirror;

    /** Overload control at every storage node (V3 servers and iSCSI
     *  targets alike; DESIGN.md §12). Disabled by default. */
    storage::AdmissionConfig admission;

    /** Mid-size: 4 nodes x 15 SCSI disks, 1.6 GB cache per node
     *  (scaled by kTpccScale). */
    static StorageParams midSize();

    /** Large: 8 nodes x 80 FC disks, 2.4 GB cache per node
     *  (scaled). */
    static StorageParams large();
};

/** Working-set / cache scale factor for TPC-C testbeds (see file
 *  comment). */
constexpr uint64_t kTpccScale = 32;

/** One assembled experiment platform. */
class Testbed
{
  public:
    Testbed(Backend backend, HostParams host_params,
            StorageParams storage_params,
            dsa::DsaConfig dsa_config = {}, uint64_t seed = 1);

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;
    ~Testbed();

    /** Connects every session. Run to ready. */
    bool connectAll();

    sim::Simulation &sim() { return sim_; }
    osmodel::Node &host() { return *host_; }

    /** The database-facing device (striped across V3 nodes, or the
     *  local volume). */
    dsa::BlockDevice &device() { return *device_; }

    /** Storage nodes in build order (empty for Local). */
    const std::vector<std::unique_ptr<storage::StorageNode>> &
    nodes() const
    {
        return nodes_;
    }

    /** The V3 servers among nodes() (empty unless a DSA backend). */
    std::vector<storage::V3Server *> servers() const;

    /** The host's sessions in node order; Local has one. */
    const std::vector<std::unique_ptr<dsa::Session>> &sessions() const
    {
        return sessions_;
    }

    /** The DSA clients among sessions() (empty unless a DSA
     *  backend). */
    std::vector<dsa::DsaClient *> clients() const;

    /** Every storage-node block cache in the testbed, regardless of
     *  backend (V3 servers or iSCSI targets); empty for Local. */
    std::vector<storage::BlockCache *> caches() const;

    /** Mirror pairs (empty unless Layout::Mirrored or Cluster). */
    std::vector<std::unique_ptr<dsa::MirroredDevice>> &mirrors()
    {
        return mirrors_;
    }

    /** Fault injector over this testbed's fabric. */
    vi::FaultInjector &faults() { return *faults_; }

    /** Cluster control plane (null unless Layout::Cluster). */
    cluster::MetaService *meta() { return meta_service_.get(); }
    cluster::HeartbeatMonitor *heartbeats()
    {
        return heartbeat_.get();
    }
    cluster::VolumeDirectory *directory()
    {
        return directory_.get();
    }

    /**
     * Whole-box fault targets, one per storage node (Layout::Cluster
     * only): crashing target i takes out server i AND, on the first
     * MetaService::kReplicas nodes, its co-located metadata replica.
     * Feed these to faults().scheduleNodeOutage / startChaos.
     */
    std::vector<vi::NodeFaultTarget *> nodeTargets();

    /** Read hit ratio across all storage-node caches. */
    double serverCacheHitRatio() const;

    /** Mean disk utilization across all storage spindles. */
    double diskUtilization() const;

    /** Interrupts taken on the host since construction. */
    uint64_t hostInterrupts() const;

    /** Starts a fresh metric epoch: every metric registered with the
     *  simulation's MetricRegistry (clients, servers, caches, disks,
     *  NICs, CPU pools, fault injector) resets at once. */
    void resetStats();

  private:
    void buildLocal(bool phantom);
    /** The node loop: each node, then the host's session to it. */
    void buildNodes(bool phantom, const dsa::DsaConfig &dsa_config);
    /** Pairs adjacent DSA clients into mirrors; returns the mirrors. */
    std::vector<dsa::BlockDevice *> pairMirrors();
    /** The cluster control plane over the mirrors. */
    void buildCluster();

    Backend backend_;
    StorageParams storage_params_;
    sim::Simulation sim_;
    net::Fabric fabric_;
    std::unique_ptr<vi::FaultInjector> faults_;
    std::unique_ptr<osmodel::Node> host_;

    std::vector<std::unique_ptr<storage::StorageNode>> nodes_;
    std::vector<std::unique_ptr<vi::ViNic>> nics_;
    std::unique_ptr<disk::StripeVolume> local_volume_;
    std::vector<std::unique_ptr<dsa::Session>> sessions_;
    std::vector<std::unique_ptr<dsa::MirroredDevice>> mirrors_;
    std::unique_ptr<dsa::StripedDevice> striped_;

    std::unique_ptr<cluster::MetaService> meta_service_;
    std::unique_ptr<cluster::HeartbeatMonitor> heartbeat_;
    std::unique_ptr<cluster::VolumeDirectory> directory_;
    std::vector<std::unique_ptr<vi::CompositeFaultTarget>>
        composite_targets_;

    dsa::BlockDevice *device_ = nullptr;
};

} // namespace v3sim::scenarios

#endif // V3SIM_SCENARIOS_TESTBED_HH
