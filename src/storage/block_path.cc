#include "storage/block_path.hh"

#include <algorithm>
#include <optional>

namespace v3sim::storage
{

using osmodel::CpuCat;
using osmodel::CpuLease;
using osmodel::CpuPool;

namespace
{

constexpr uint64_t kSector = disk::DiskStore::kSectorSize;

/** CPU ticks to copy @p bytes at @p per_kb, whole KBs only. */
sim::Tick
copyTicks(uint64_t bytes, sim::Tick per_kb)
{
    return static_cast<sim::Tick>(bytes / 1024) * per_kb;
}

/** The part of block @p key, whose bytes start at @p data, that
 *  overlaps [offset, offset+len). */
BlockPath::Piece
clip(CacheKey key, uint64_t block_size, sim::Addr data, bool pinned,
     size_t transient, uint64_t offset, uint64_t len)
{
    const uint64_t block_start = key.block * block_size;
    const uint64_t start = std::max(block_start, offset);
    const uint64_t end = std::min(block_start + block_size, offset + len);
    return BlockPath::Piece{data + (start - block_start), end - start,
                            pinned, key, transient};
}

} // namespace

BlockPath::BlockPath(sim::Simulation &sim, osmodel::Node &node,
                     const std::string &metric_prefix,
                     const BlockPathConfig &config)
    : node_(node),
      config_(config),
      volume_(sim, config.disk_spec, config.disk_count,
              node.name() + ".d.", node.memory().phantom(),
              config.stripe_unit),
      integrity_errors_(sim.metrics().counter(
          metric_prefix + ".integrity_verify_failures"))
{
    if (config_.cache_bytes < config_.block_size)
        return;
    const uint64_t blocks = config_.cache_bytes / config_.block_size;
    if (config_.cache_policy == CachePolicy::Mq) {
        cache_ = std::make_unique<MqCache>(node_.memory(),
                                           config_.block_size, blocks);
    } else {
        cache_ = std::make_unique<LruCache>(node_.memory(),
                                            config_.block_size, blocks);
    }
    cache_->registerMetrics(sim.metrics(), metric_prefix + ".cache");
}

ReadStatus
BlockPath::verify(bool read_ok, uint64_t off, uint64_t len)
{
    if (!read_ok)
        return ReadStatus::DiskError;
    // Damaged platter data must never enter the cache (it would
    // masquerade as a verified copy) or reach a client as good data.
    if (volume_.corrupt(off, len)) {
        integrity_errors_.increment();
        return ReadStatus::IntegrityError;
    }
    return ReadStatus::Ok;
}

sim::Task<BlockPath::ReadResult>
BlockPath::read(CpuLease &lease, uint64_t order_key, uint64_t offset,
                uint64_t len, const TransientHook &on_transient)
{
    ReadResult out;
    sim::MemorySpace &mem = node_.memory();

    if (!cache_) {
        // Caching off: one transient covering the sector-aligned
        // envelope, one volume read.
        const uint64_t a_off = offset / kSector * kSector;
        const uint64_t a_len =
            (offset + len + kSector - 1) / kSector * kSector - a_off;
        const sim::Addr tbuf = mem.allocate(a_len);
        if (on_transient)
            on_transient(tbuf, a_len);
        out.transients.push_back(tbuf);
        out.pieces.push_back(
            Piece{tbuf + (offset - a_off), len, false, {}, 0});
        co_await lease.run(config_.disk_sched_cost, CpuCat::Other);

        node_.cpus().release();
        const bool ok = co_await volume_.read(a_off, a_len, mem, tbuf);
        lease = co_await node_.cpus().acquire(CpuPool::kNormalPriority,
                                              order_key);
        out.status = verify(ok, a_off, a_len);
        co_return out;
    }

    const uint64_t last = (offset + len - 1) / config_.block_size;
    uint64_t b = offset / config_.block_size;
    while (b <= last) {
        const CacheKey key{0, b};
        co_await lease.run(config_.cache_op_cost, CpuCat::Other);

        if (auto frame = cache_->lookupAndPin(key)) {
            out.pieces.push_back(clip(key, config_.block_size, *frame,
                                      true, 0, offset, len));
            ++b;
            continue;
        }

        auto loading = loading_.find(key);
        if (loading != loading_.end()) {
            // Another request is already fetching this block; wait
            // without holding a CPU, then retry the lookup.
            sim::CondEvent *event = loading->second.get();
            node_.cpus().release();
            co_await event->wait();
            lease = co_await node_.cpus().acquire(
                CpuPool::kNormalPriority, order_key);
            continue;
        }

        const uint64_t run_end = claimRun(b, last);
        out.status = co_await fill(lease, order_key, b, run_end, offset,
                                   len, out, on_transient);
        if (out.status != ReadStatus::Ok)
            co_return out;
        b = run_end;
    }
    co_return out;
}

uint64_t
BlockPath::claimRun(uint64_t b, uint64_t last)
{
    uint64_t run_end = b + 1;
    loading_[CacheKey{0, b}] = std::make_unique<sim::CondEvent>();
    while (run_end <= last && !cache_->contains(CacheKey{0, run_end}) &&
           loading_.find(CacheKey{0, run_end}) == loading_.end()) {
        loading_[CacheKey{0, run_end}] =
            std::make_unique<sim::CondEvent>();
        ++run_end;
    }
    return run_end;
}

sim::Task<ReadStatus>
BlockPath::fill(CpuLease &lease, uint64_t order_key, uint64_t b,
                uint64_t run_end, uint64_t offset, uint64_t len,
                ReadResult &out, const TransientHook &on_transient)
{
    sim::MemorySpace &mem = node_.memory();
    const uint64_t bs = config_.block_size;
    const uint64_t run_bytes = (run_end - b) * bs;
    const sim::Addr tbuf = mem.allocate(run_bytes);
    co_await lease.run(config_.disk_sched_cost, CpuCat::Other);

    node_.cpus().release();
    const bool read_ok =
        co_await volume_.read(b * bs, run_bytes, mem, tbuf);
    lease = co_await node_.cpus().acquire(CpuPool::kNormalPriority,
                                          order_key);
    const ReadStatus status = verify(read_ok, b * bs, run_bytes);
    const bool ok = status == ReadStatus::Ok;

    bool tbuf_needed = false;
    for (uint64_t bb = b; bb < run_end; ++bb) {
        const CacheKey key{0, bb};
        const sim::Addr data = tbuf + (bb - b) * bs;
        co_await lease.run(config_.cache_op_cost, CpuCat::Other);
        // A write racing this fill may have committed newer bytes
        // than the disk read captured: consume the stale mark
        // (always, so it cannot leak) and serve from the transient
        // instead of installing a stale frame.
        const bool fill_unsafe = fill_stale_.erase(key) > 0 ||
                                 writing_.find(key) != writing_.end();
        std::optional<sim::Addr> frame =
            ok && !fill_unsafe ? cache_->insertAndPin(key)
                               : std::nullopt;
        if (frame) {
            sim::MemorySpace::copy(mem, data, mem, *frame, bs);
            co_await lease.run(copyTicks(bs, config_.memcpy_per_kb),
                               CpuCat::Other);
            out.pieces.push_back(
                clip(key, bs, *frame, true, 0, offset, len));
        } else if (ok) {
            // All frames pinned, or the fill is unsafe: serve from
            // the transient.
            out.pieces.push_back(clip(key, bs, data, false,
                                      out.transients.size(), offset, len));
            tbuf_needed = true;
        }
        auto event = loading_.find(key);
        if (event != loading_.end()) {
            event->second->notifyAll();
            loading_.erase(event);
        }
    }

    if (tbuf_needed) {
        if (on_transient)
            on_transient(tbuf, run_bytes);
        out.transients.push_back(tbuf);
    } else {
        mem.free(tbuf);
    }
    co_return status;
}

void
BlockPath::release(const ReadResult &result)
{
    for (const Piece &piece : result.pieces) {
        if (piece.pinned)
            cache_->unpin(piece.key);
    }
    for (const sim::Addr transient : result.transients)
        node_.memory().free(transient);
}

sim::Task<bool>
BlockPath::write(CpuLease &lease, uint64_t order_key, uint64_t offset,
                 uint64_t len, sim::Addr src, const bool *alive)
{
    sim::MemorySpace &mem = node_.memory();
    const uint64_t bs = config_.block_size;
    const uint64_t first = offset / bs;
    const uint64_t last = (offset + len - 1) / bs;

    // Guard concurrent miss fills: one whose disk read races this
    // write can capture pre-commit bytes, and installing them would
    // shadow the committed data until eviction. Count the write on
    // every covered block now; on the way out, mark any fill still in
    // flight stale.
    for (uint64_t b = first; b <= last; ++b)
        ++writing_[CacheKey{0, b}];

    if (cache_) {
        for (uint64_t b = first; b <= last; ++b) {
            const CacheKey key{0, b};
            const uint64_t block_start = b * bs;
            const uint64_t piece_start = std::max(block_start, offset);
            const uint64_t piece_end =
                std::min(block_start + bs, offset + len);
            const bool full_block = piece_start == block_start &&
                                    piece_end - piece_start == bs;

            co_await lease.run(config_.cache_op_cost, CpuCat::Other);
            std::optional<sim::Addr> frame;
            if (full_block) {
                frame = cache_->insertAndPin(key);
            } else if (cache_->contains(key)) {
                frame = cache_->lookupAndPin(key);
            }
            if (frame) {
                sim::MemorySpace::copy(
                    mem, src + (piece_start - offset), mem,
                    *frame + (piece_start - block_start),
                    piece_end - piece_start);
                co_await lease.run(copyTicks(piece_end - piece_start,
                                             config_.memcpy_per_kb),
                                   CpuCat::Other);
                cache_->unpin(key);
            }
        }
    }

    // Commit to disk before completing (durability, section 5.2).
    bool ok = false;
    if (!alive || *alive) {
        co_await lease.run(config_.disk_sched_cost, CpuCat::Other);
        node_.cpus().release();
        ok = co_await volume_.write(offset, len, mem, src);
        lease = co_await node_.cpus().acquire(CpuPool::kNormalPriority,
                                              order_key);
    }

    for (uint64_t b = first; b <= last; ++b) {
        const CacheKey key{0, b};
        auto it = writing_.find(key);
        if (it != writing_.end() && --it->second == 0)
            writing_.erase(it);
        if (loading_.find(key) != loading_.end())
            fill_stale_[key] = true;
    }
    co_return ok;
}

} // namespace v3sim::storage
