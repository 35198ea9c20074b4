#include "disk.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace v3sim::disk
{

namespace
{

constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kChunkPages = 64;

/** Calls @p fn(page, in_page, done, n) for each piece of
 *  [offset, offset+len) that lies inside one page. */
template <typename Fn>
void
forEachPagePiece(uint64_t offset, uint64_t len, Fn &&fn)
{
    for (uint64_t done = 0; done < len;) {
        const uint64_t at = offset + done;
        const uint64_t in_page = at % kPageBytes;
        const uint64_t n = std::min(kPageBytes - in_page, len - done);
        fn(at / kPageBytes, in_page, done, n);
        done += n;
    }
}

} // namespace

uint8_t *
DiskStore::writablePage(uint64_t index)
{
    uint8_t *&page = pages_[index];
    if (page == nullptr) {
        if (chunks_.empty() || chunk_pages_used_ == kChunkPages) {
            chunks_.push_back(
                sim::allocateZeroed(kChunkPages * kPageBytes));
            chunk_pages_used_ = 0;
        }
        page = chunks_.back().get() + chunk_pages_used_ * kPageBytes;
        ++chunk_pages_used_;
    }
    return page;
}

bool
DiskStore::readInto(uint64_t offset, uint64_t len, sim::MemorySpace &mem,
                    sim::Addr addr) const
{
    if (offset % kSectorSize != 0 || len % kSectorSize != 0)
        return false;
    if (!mem.contains(addr, len))
        return false;
    if (phantom_ || mem.phantom())
        return true;
    forEachPagePiece(
        offset, len,
        [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
            const auto it = pages_.find(page);
            if (it != pages_.end())
                mem.write(addr + done, it->second + in_page, n);
            else
                mem.fill(addr + done, 0, n);
        });
    return true;
}

bool
DiskStore::writeFrom(uint64_t offset, uint64_t len,
                     const sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset % kSectorSize != 0 || len % kSectorSize != 0)
        return false;
    if (!mem.contains(addr, len))
        return false;
    // Overwriting heals corruption marks — even in phantom mode,
    // where the marks are the only record of the damage.
    if (!corrupt_sectors_.empty()) {
        for (uint64_t done = 0; done < len; done += kSectorSize)
            corrupt_sectors_.erase((offset + done) / kSectorSize);
    }
    if (phantom_ || mem.phantom())
        return true;
    const uint8_t *src = mem.bytesAt(addr, len);
    forEachPagePiece(
        offset, len,
        [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
            std::memcpy(writablePage(page) + in_page, src + done, n);
        });
    return true;
}

void
DiskStore::markCorrupt(uint64_t offset, uint64_t len)
{
    if (len == 0)
        return;
    const uint64_t first = offset / kSectorSize;
    const uint64_t last = (offset + len - 1) / kSectorSize;
    for (uint64_t s = first; s <= last; ++s) {
        corrupt_sectors_.insert(s);
        if (!phantom_) {
            // Flip a byte so readInto really returns damaged data;
            // touching an unwritten sector materializes its page, and
            // the sector then differs from the zeros it would have
            // read as.
            const uint64_t at = s * kSectorSize + kSectorSize / 2;
            writablePage(at / kPageBytes)[at % kPageBytes] ^= 0x40;
        }
    }
}

bool
DiskStore::rangeCorrupt(uint64_t offset, uint64_t len) const
{
    if (len == 0 || corrupt_sectors_.empty())
        return false;
    const uint64_t first = offset / kSectorSize;
    const uint64_t last = (offset + len - 1) / kSectorSize;
    for (uint64_t s = first; s <= last; ++s) {
        if (corrupt_sectors_.count(s))
            return true;
    }
    return false;
}

Disk::Disk(sim::Simulation &sim, DiskSpec spec, sim::Rng rng,
           std::string name, bool phantom_store)
    : sim_(sim),
      spec_(std::move(spec)),
      rng_(rng),
      name_(std::move(name)),
      store_(phantom_store),
      metric_prefix_(sim.metrics().uniquePrefix("disk." + name_)),
      completed_(sim.metrics().counter(metric_prefix_ + ".completed")),
      service_stats_(
          sim.metrics().sampler(metric_prefix_ + ".service_ns")),
      latency_stats_(
          sim.metrics().sampler(metric_prefix_ + ".latency_ns")),
      latent_errors_(
          sim.metrics().counter(metric_prefix_ + ".latent_errors")),
      torn_writes_(
          sim.metrics().counter(metric_prefix_ + ".torn_writes"))
{
    busy_integral_.reset(sim_.now(), 0.0);
    sim.metrics().gauge(metric_prefix_ + ".utilization",
                        [this] { return utilization(); }, this);
    sim.metrics().gauge(metric_prefix_ + ".queue_depth", [this] {
        return static_cast<double>(queue_.size());
    }, this);
    // The busy integral restarts at the current busy state, not zero:
    // a command in flight at the epoch boundary keeps accruing.
    sim.metrics().onEpochReset([this](sim::Tick at) {
        busy_integral_.reset(at, busy_ ? 1.0 : 0.0);
    }, this);
}

void
Disk::submit(uint64_t offset, uint64_t len, bool is_write,
             std::coroutine_handle<> waiter)
{
    assert(offset + len <= spec_.capacity_bytes);
    queue_.push_back(Command{offset, len, is_write, sim_.now(), waiter});
    scheduleStart();
}

void
Disk::scheduleStart()
{
    if (busy_ || start_scheduled_ || queue_.empty())
        return;
    start_scheduled_ = true;
    // Deferred to the tick's final band (same tick, zero cost) so
    // every same-tick arrival — zero-delay submission chains included
    // — is enqueued before the scheduler picks: the pick, and the
    // head movement and rotational-rng draw sequence that follow from
    // it, become a function of the *set* of queued requests, not of
    // their (tie-shuffled) arrival order. See DESIGN.md §8.3.
    sim_.queue().scheduleFinal([this] {
        start_scheduled_ = false;
        if (!busy_)
            startNext();
    });
}

bool
Disk::commitWrite(uint64_t offset, uint64_t len,
                  const sim::MemorySpace &mem, sim::Addr addr)
{
    const bool ok = store_.writeFrom(offset, len, mem, addr);
    if (ok && torn_write_rate_ > 0.0 &&
        torn_rng_->bernoulli(torn_write_rate_)) {
        // Power-cut model: the leading sectors reached the platter,
        // the tail did not. Damage the tail half (a one-sector write
        // tears whole).
        const uint64_t sectors =
            std::max<uint64_t>(len / DiskStore::kSectorSize, 1);
        const uint64_t good = sectors / 2;
        const uint64_t torn_off =
            offset + good * DiskStore::kSectorSize;
        store_.markCorrupt(torn_off, offset + len - torn_off);
        torn_writes_.increment();
    }
    return ok;
}

void
Disk::injectLatentError(uint64_t offset, uint64_t len)
{
    store_.markCorrupt(offset, len);
    latent_errors_.increment();
}

void
Disk::setTornWriteRate(double p)
{
    torn_write_rate_ = p;
    if (p > 0.0 && !torn_rng_.has_value())
        torn_rng_ = sim_.forkRng();
}

bool
Disk::commandBefore(const Command &a, const Command &b)
{
    // Deterministic same-priority order: arrival tick, then offset,
    // then shape. Same-tick arrivals land in the queue in an order
    // the determinism contract treats as unspecified (tie-shuffle
    // permutes it), so no pick may depend on queue position alone.
    if (a.enqueued != b.enqueued)
        return a.enqueued < b.enqueued;
    if (a.offset != b.offset)
        return a.offset < b.offset;
    if (a.len != b.len)
        return a.len < b.len;
    return a.is_write < b.is_write;
}

size_t
Disk::pickNext()
{
    if (queue_.size() == 1)
        return 0;

    // C-LOOK: the lowest offset at or above the head; if none, wrap
    // to the lowest offset overall. Offset ties break via
    // commandBefore, never via queue position.
    auto better = [this](size_t i, size_t best) {
        if (queue_[i].offset != queue_[best].offset)
            return queue_[i].offset < queue_[best].offset;
        return commandBefore(queue_[i], queue_[best]);
    };
    size_t best_up = queue_.size();
    size_t best_wrap = 0;
    for (size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].offset >= head_pos_) {
            if (best_up == queue_.size() || better(i, best_up))
                best_up = i;
        }
        if (i > 0 && better(i, best_wrap))
            best_wrap = i;
    }
    return best_up != queue_.size() ? best_up : best_wrap;
}

sim::Tick
Disk::serviceTime(const Command &cmd)
{
    const double distance =
        std::abs(static_cast<double>(cmd.offset) -
                 static_cast<double>(head_pos_)) /
        static_cast<double>(spec_.capacity_bytes);

    sim::Tick t = spec_.controller_overhead;
    if (distance > 0) {
        t += spec_.seekTime(distance);
        // Rotational latency: uniform in [0, one rotation); with
        // tagged queuing the drive serves the rotationally nearest
        // of the queued commands, shrinking the expectation to
        // roughly rotation/(depth+2). The paper's UltraSCSI and
        // Mylex FC controllers both queue tagged commands; it is
        // what lets 10-15K RPM arrays sustain well over
        // 1/(seek+half-rotation) IOPS.
        double rot = rng_.nextDouble();
        if (!queue_.empty())
            rot /= static_cast<double>(queue_.size() + 1);
        t += static_cast<sim::Tick>(
            rot * static_cast<double>(spec_.rotationTime()));
    }
    // Sequential continuation (zero distance) skips seek+rotation.
    t += spec_.transferTime(cmd.len);
    return t;
}

void
Disk::startNext()
{
    if (queue_.empty())
        return;
    busy_ = true;
    busy_integral_.set(sim_.now(), 1.0);

    const size_t index = pickNext();
    const Command cmd = queue_[index];
    queue_.erase(queue_.begin() +
                 static_cast<std::deque<Command>::difference_type>(
                     index));

    const sim::Tick service = serviceTime(cmd);
    head_pos_ = cmd.offset + cmd.len;
    service_stats_.add(static_cast<double>(service));

    sim_.queue().schedule(service, [this, cmd] {
        latency_stats_.add(
            static_cast<double>(sim_.now() - cmd.enqueued));
        completed_.increment();
        busy_ = false;
        busy_integral_.set(sim_.now(), 0.0);
        // Deferred like submit's kick (see scheduleStart): a
        // completion and new arrivals on the same tick must all be
        // visible before the next pick. The resumed waiter may
        // enqueue more work this tick; it precedes the pick too.
        scheduleStart();
        cmd.waiter.resume();
    });
}

double
Disk::utilization() const
{
    return busy_integral_.average(sim_.now());
}

} // namespace v3sim::disk
