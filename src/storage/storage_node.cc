#include "storage/storage_node.hh"

#include "disk/disk.hh"

namespace v3sim::storage
{

StorageNode::StorageNode(sim::Simulation &sim,
                         const StorageNodeConfig &config,
                         const std::string &metric_base)
    : node_(sim, osmodel::NodeConfig{config.name, config.cpus,
                                     config.host_costs,
                                     config.phantom_memory}),
      metric_prefix_(sim.metrics().uniquePrefix(metric_base)),
      path_(sim, node_, metric_prefix_, config),
      reads_(sim.metrics().counter(metric_prefix_ + ".reads")),
      writes_(sim.metrics().counter(metric_prefix_ + ".writes")),
      digest_mismatches_(sim.metrics().counter(
          metric_prefix_ + ".integrity_digest_mismatches")),
      server_time_(
          sim.metrics().sampler(metric_prefix_ + ".server_time_ns")),
      admission_gate_(sim, metric_prefix_, config.admission)
{}

uint64_t
StorageNode::volumeCapacity(uint32_t volume)
{
    return volume == 0 ? path_.volume().capacity() : 0;
}

bool
StorageNode::validRange(uint32_t volume, uint64_t offset,
                        uint64_t len, bool write)
{
    constexpr uint64_t kSector = disk::DiskStore::kSectorSize;
    // Offset and length arrive over the wire: compare without forming
    // offset + len, which wraps past 2^64 for a range near the top.
    const uint64_t capacity = volumeCapacity(volume);
    return len > 0 && offset <= capacity && len <= capacity - offset &&
           (!write || (offset % kSector == 0 && len % kSector == 0));
}

} // namespace v3sim::storage
