#include "testbed.hh"

#include <cassert>

namespace v3sim::scenarios
{

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Local: return "Local";
      case Backend::Kdsa: return "kDSA";
      case Backend::Wdsa: return "wDSA";
      case Backend::Cdsa: return "cDSA";
      case Backend::Iscsi: return "iSCSI";
    }
    return "?";
}

dsa::DsaImpl
backendImpl(Backend backend)
{
    switch (backend) {
      case Backend::Kdsa: return dsa::DsaImpl::Kdsa;
      case Backend::Wdsa: return dsa::DsaImpl::Wdsa;
      case Backend::Cdsa: return dsa::DsaImpl::Cdsa;
      case Backend::Local:
      case Backend::Iscsi: break;
    }
    assert(false && "backend has no DSA implementation");
    return dsa::DsaImpl::Kdsa;
}

HostParams
HostParams::midSize()
{
    HostParams params;
    params.cpus = 4;
    params.costs = osmodel::HostCosts::midSize();
    return params;
}

HostParams
HostParams::large()
{
    HostParams params;
    params.cpus = 32;
    params.costs = osmodel::HostCosts::large();
    return params;
}

StorageParams
StorageParams::midSize()
{
    StorageParams params;
    params.v3_nodes = 4;
    params.disks_per_node = 15;
    params.disk_spec = disk::DiskSpec::scsi10k();
    // Table 2: 1.6 GB V3 cache per node, scaled by kTpccScale.
    params.cache_bytes_per_node =
        1600ull * util::kMiB / kTpccScale;
    params.local_disks = 176; // Table 1
    return params;
}

StorageParams
StorageParams::large()
{
    StorageParams params;
    params.v3_nodes = 8;
    params.disks_per_node = 80;
    params.disk_spec = disk::DiskSpec::fc15k();
    // Table 2: 2.4 GB V3 cache per node, scaled.
    params.cache_bytes_per_node =
        2400ull * util::kMiB / kTpccScale;
    params.local_disks = 640; // Table 1
    return params;
}

Testbed::Testbed(Backend backend, HostParams host_params,
                 StorageParams storage_params,
                 dsa::DsaConfig dsa_config, uint64_t seed)
    : backend_(backend),
      storage_params_(storage_params),
      sim_(seed),
      fabric_(sim_.queue())
{
    faults_ = std::make_unique<vi::FaultInjector>(sim_, fabric_);
    host_ = std::make_unique<osmodel::Node>(
        sim_, osmodel::NodeConfig{"db", host_params.cpus,
                                  host_params.costs,
                                  host_params.phantom_memory});

    const Layout layout = storage_params_.layout;
    assert((layout == Layout::Striped ||
            (backend_ != Backend::Local && backend_ != Backend::Iscsi)) &&
           "mirrors and the cluster run over DSA clients");
    if (backend_ == Backend::Local) {
        buildLocal(host_params.phantom_memory);
        return;
    }
    buildNodes(host_params.phantom_memory, dsa_config);
    std::vector<dsa::BlockDevice *> children;
    if (layout == Layout::Striped) {
        for (const auto &session : sessions_)
            children.push_back(session.get());
    } else {
        children = pairMirrors();
    }
    striped_ = std::make_unique<dsa::StripedDevice>(
        children, storage_params_.stripe_unit);
    device_ = striped_.get();
    if (layout == Layout::Cluster)
        buildCluster();
}

Testbed::~Testbed() = default;

void
Testbed::buildLocal(bool phantom)
{
    const int count = storage_params_.local_disks > 0
                          ? storage_params_.local_disks
                          : storage_params_.v3_nodes *
                                storage_params_.disks_per_node;
    local_volume_ = std::make_unique<disk::StripeVolume>(
        sim_, storage_params_.disk_spec, count, "local.d", phantom,
        storage_params_.stripe_unit);
    sessions_.push_back(
        std::make_unique<dsa::LocalBackend>(*host_, *local_volume_));
    device_ = sessions_.back().get();
}

void
Testbed::buildNodes(bool phantom, const dsa::DsaConfig &dsa_config)
{
    // The same storage-node hardware for every transport (disks,
    // cache size and policy, CPU count, admission gate). Each node
    // (front end, disks, striped volume) is built before its session:
    // the disks fork the simulation's random streams in this order.
    const StorageParams &params = storage_params_;
    const auto shared = [&](storage::StorageNodeConfig &config,
                            int n) {
        // The front end's default name plus the index: v3.0, tgt.0.
        config.name += "." + std::to_string(n);
        config.disk_spec = params.disk_spec;
        config.disk_count = params.disks_per_node;
        config.stripe_unit = params.stripe_unit;
        config.cache_bytes = params.cache_bytes_per_node;
        config.cache_policy = params.cache_policy;
        config.phantom_memory = phantom;
        config.admission = params.admission;
    };
    for (int n = 0; n < params.v3_nodes; ++n) {
        std::unique_ptr<storage::StorageNode> node;
        if (backend_ == Backend::Iscsi) {
            iscsi::TargetConfig config;
            shared(config, n);
            node = std::make_unique<iscsi::Target>(sim_, fabric_, config);
        } else {
            storage::V3ServerConfig config;
            shared(config, n);
            config.request_credits = params.request_credits;
            node = std::make_unique<storage::V3Server>(sim_, fabric_,
                                                       config);
        }
        if (backend_ == Backend::Iscsi) {
            // The rival transport: the host needs no VI NIC, each
            // initiator attaches a plain fabric port.
            iscsi::InitiatorConfig config;
            config.max_outstanding = params.request_credits;
            sessions_.push_back(std::make_unique<iscsi::Initiator>(
                *host_, fabric_,
                static_cast<iscsi::Target &>(*node).port(), config));
        } else {
            // One client NIC per server, one DSA connection per pair.
            nics_.push_back(std::make_unique<vi::ViNic>(
                sim_, fabric_, host_->memory(),
                "db.nic" + std::to_string(n)));
            sessions_.push_back(std::make_unique<dsa::DsaClient>(
                backendImpl(backend_), *host_, *nics_.back(),
                static_cast<storage::V3Server &>(*node).nic().port(),
                dsa_config));
        }
        nodes_.push_back(std::move(node));
    }
}

std::vector<dsa::BlockDevice *>
Testbed::pairMirrors()
{
    assert(storage_params_.v3_nodes % 2 == 0 &&
           "mirroring pairs nodes; v3_nodes must be even");
    const std::vector<dsa::DsaClient *> legs = clients();
    std::vector<dsa::BlockDevice *> pairs;
    for (size_t pair = 0; pair + 1 < legs.size(); pair += 2) {
        dsa::MirrorConfig mirror_config = storage_params_.mirror;
        mirror_config.name = "m" + std::to_string(pair / 2);
        mirrors_.push_back(std::make_unique<dsa::MirroredDevice>(
            sim_, host_->memory(),
            std::vector<dsa::DsaClient *>{legs[pair], legs[pair + 1]},
            mirror_config));
        pairs.push_back(mirrors_.back().get());
    }
    return pairs;
}

void
Testbed::buildCluster()
{
    // Promote the RAID-10 composition into a volume service: a
    // metadata service describing the geometry (genesis map, every
    // node Active), heartbeat detection over the nodes, and the
    // client-side directory routing epoch-checked I/O.
    const std::vector<storage::V3Server *> nodes = servers();
    cluster::PlacementMap genesis;
    genesis.stripe_unit = storage_params_.stripe_unit;
    for (size_t pair = 0; pair + 1 < nodes.size(); pair += 2) {
        cluster::ShardView shard;
        shard.replicas.push_back(cluster::ReplicaView{
            static_cast<int>(pair), cluster::ReplicaState::Active});
        shard.replicas.push_back(cluster::ReplicaView{
            static_cast<int>(pair + 1), cluster::ReplicaState::Active});
        genesis.shards.push_back(std::move(shard));
    }
    meta_service_ = std::make_unique<cluster::MetaService>(
        sim_, std::move(genesis));

    std::vector<cluster::HeartbeatPeer> peers;
    for (storage::V3Server *srv : nodes) {
        peers.push_back(cluster::HeartbeatPeer{
            srv->config().name, [srv] { return !srv->crashed(); },
            [srv] { return srv->bootEpoch(); }});
    }
    heartbeat_ = std::make_unique<cluster::HeartbeatMonitor>(
        sim_, std::move(peers));

    std::vector<dsa::MirroredDevice *> shard_mirrors;
    for (auto &mirror : mirrors_)
        shard_mirrors.push_back(mirror.get());
    directory_ = std::make_unique<cluster::VolumeDirectory>(
        sim_, *meta_service_, *heartbeat_, std::move(shard_mirrors),
        *striped_);
    device_ = directory_.get();

    // Whole-box fault targets: node i and, on the first
    // MetaService::kReplicas boxes, its co-located metadata replica.
    for (size_t n = 0; n < nodes.size(); ++n) {
        auto target = std::make_unique<vi::CompositeFaultTarget>();
        target->add(*nodes[n]);
        if (n < static_cast<size_t>(meta_service_->replicaCount()))
            target->add(meta_service_->replica(static_cast<int>(n)));
        composite_targets_.push_back(std::move(target));
    }
}

bool
Testbed::connectAll()
{
    bool all_ok = true;
    int pending = static_cast<int>(sessions_.size());
    for (const auto &session : sessions_) {
        sim::spawn([](dsa::Session &s, bool &ok,
                      int &remaining) -> sim::Task<> {
            if (!co_await s.connect())
                ok = false;
            --remaining;
        }(*session, all_ok, pending));
    }
    sim_.run();
    return all_ok && pending == 0;
}

std::vector<storage::V3Server *>
Testbed::servers() const
{
    std::vector<storage::V3Server *> out;
    for (const auto &node : nodes_)
        if (auto *server = dynamic_cast<storage::V3Server *>(node.get()))
            out.push_back(server);
    return out;
}

std::vector<dsa::DsaClient *>
Testbed::clients() const
{
    std::vector<dsa::DsaClient *> out;
    for (const auto &session : sessions_)
        if (auto *client = dynamic_cast<dsa::DsaClient *>(session.get()))
            out.push_back(client);
    return out;
}

std::vector<vi::NodeFaultTarget *>
Testbed::nodeTargets()
{
    std::vector<vi::NodeFaultTarget *> out;
    for (auto &target : composite_targets_)
        out.push_back(target.get());
    return out;
}

std::vector<storage::BlockCache *>
Testbed::caches() const
{
    std::vector<storage::BlockCache *> out;
    for (const auto &node : nodes_)
        if (storage::BlockCache *cache = node->cache())
            out.push_back(cache);
    return out;
}

double
Testbed::serverCacheHitRatio() const
{
    uint64_t hits = 0, misses = 0;
    for (storage::BlockCache *cache : caches()) {
        hits += cache->hits();
        misses += cache->misses();
    }
    const uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
Testbed::diskUtilization() const
{
    // Disk by disk in node order, then the local disks: the sum's
    // rounding is part of the fig10/fig13 artifacts.
    double sum = 0;
    size_t count = 0;
    const auto add = [&](disk::StripeVolume &volume) {
        for (size_t i = 0; i < volume.diskCount(); ++i)
            sum += volume.disk(i).utilization();
        count += volume.diskCount();
    };
    for (const auto &node : nodes_)
        add(node->volume());
    if (local_volume_)
        add(*local_volume_);
    return count ? sum / static_cast<double>(count) : 0.0;
}

uint64_t
Testbed::hostInterrupts() const
{
    return host_->interrupts().interruptCount();
}

void
Testbed::resetStats()
{
    // One registry-wide epoch replaces the old per-component
    // resetStats() fan-out: every registered metric (clients,
    // servers, caches, disks, NICs, CPU pools) restarts here.
    sim_.metrics().resetEpoch();
}

} // namespace v3sim::scenarios
