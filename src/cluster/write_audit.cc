#include "cluster/write_audit.hh"

#include <algorithm>
#include <cassert>

#include "sim/warn.hh"

namespace v3sim::cluster
{

DurabilityAudit::DurabilityAudit(sim::Simulation &sim,
                                 sim::MemorySpace &memory,
                                 dsa::BlockDevice &under,
                                 uint64_t block_size)
    : sim_(sim), memory_(memory), under_(under),
      block_size_(block_size),
      metric_prefix_("audit"),
      stamped_(sim.metrics().counter(metric_prefix_ + ".writes")),
      blocks_checked_(
          sim.metrics().counter(metric_prefix_ + ".blocks")),
      lost_(sim.metrics().counter(metric_prefix_ + ".lost")),
      foreign_(sim.metrics().counter(metric_prefix_ + ".foreign"))
{
    // Stamps must reach the platter for the read-back to mean
    // anything; a phantom memory space silently discards them.
    assert(!memory_.phantom());
}

sim::Task<bool>
DurabilityAudit::read(uint64_t offset, uint64_t len, uint64_t buffer)
{
    co_return co_await under_.read(offset, len, buffer);
}

sim::Task<bool>
DurabilityAudit::write(uint64_t offset, uint64_t len, uint64_t buffer)
{
    assert(offset % block_size_ == 0 && len % block_size_ == 0);
    const uint64_t first = offset / block_size_;
    const uint64_t count = len / block_size_;
    // One fresh version per (write, block): the stamp identifies
    // exactly which attempt a block's bytes came from.
    std::vector<uint64_t> versions(count);
    for (uint64_t b = 0; b < count; ++b) {
        const uint64_t version = ++next_version_;
        versions[b] = version;
        memory_.writeU64(buffer + b * block_size_, version);
        BlockState &state = blocks_[first + b];
        state.attempted.push_back(version);
        ++state.outstanding;
    }
    stamped_.increment();

    const bool ok = co_await under_.write(offset, len, buffer);

    for (uint64_t b = 0; b < count; ++b) {
        BlockState &state = blocks_[first + b];
        --state.outstanding;
        if (ok && state.outstanding == 0 &&
            versions[b] > state.settled) {
            // Settled: this write completed and nothing else is in
            // flight on the block, so every replica now holds at
            // least this version (landings precede completion in
            // this simulator). Older attempts can no longer be the
            // surviving stamp legitimately — prune them.
            state.settled = versions[b];
            std::erase_if(state.attempted,
                          [&](uint64_t v) { return v < state.settled; });
        }
    }
    co_return ok;
}

sim::Task<bool>
DurabilityAudit::audit(size_t replica_count)
{
    const uint64_t buffer = memory_.allocate(block_size_);
    bool clean = true;
    for (const auto &[block, state] : blocks_) {
        for (size_t r = 0; r < replica_count; ++r) {
            blocks_checked_.increment();
            // Hoisted out of the condition; see the g++ 12.2
            // coroutine-frame note in volume_directory.cc.
            const bool read_ok = co_await under_.read(
                block * block_size_, block_size_, buffer);
            if (!read_ok) {
                sim::warn(sim_.now(), "audit",
                          "read of block " + std::to_string(block) +
                              " failed during audit");
                lost_.increment();
                clean = false;
                continue;
            }
            const uint64_t stamp = memory_.readU64(buffer);
            if (stamp == 0) {
                // Never-written blocks read back as zero; a zero on
                // a block with a settled write is lost data.
                if (state.settled != 0) {
                    lost_.increment();
                    clean = false;
                    sim::warn(sim_.now(), "audit",
                              "block " + std::to_string(block) +
                                  " blank, settled " +
                                  std::to_string(state.settled));
                }
                continue;
            }
            if (stamp < state.settled) {
                lost_.increment();
                clean = false;
                sim::warn(sim_.now(), "audit",
                          "block " + std::to_string(block) + " stamp " +
                              std::to_string(stamp) +
                              " older than settled " +
                              std::to_string(state.settled));
                continue;
            }
            if (std::find(state.attempted.begin(),
                          state.attempted.end(),
                          stamp) == state.attempted.end()) {
                foreign_.increment();
                clean = false;
                sim::warn(sim_.now(), "audit",
                          "block " + std::to_string(block) + " stamp " +
                              std::to_string(stamp) +
                              " was never written");
            }
        }
    }
    memory_.free(buffer);
    co_return clean;
}

} // namespace v3sim::cluster
