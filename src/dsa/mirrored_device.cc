#include "mirrored_device.hh"

#include <algorithm>
#include <cassert>

#include "dsa/dsa_client.hh"
#include "util/logging.hh"

namespace v3sim::dsa
{

MirroredDevice::MirroredDevice(sim::Simulation &sim,
                               sim::MemorySpace &memory,
                               std::vector<DsaClient *> replicas,
                               MirrorConfig config)
    : sim_(sim),
      memory_(memory),
      config_(std::move(config)),
      metric_prefix_(
          sim.metrics().uniquePrefix("mirror." + config_.name)),
      failovers_(sim.metrics().counter(metric_prefix_ + ".failovers")),
      readmits_(sim.metrics().counter(metric_prefix_ + ".readmits")),
      resyncs_(sim.metrics().counter(metric_prefix_ + ".resyncs")),
      resync_bytes_(
          sim.metrics().counter(metric_prefix_ + ".resync_bytes")),
      degraded_reads_(
          sim.metrics().counter(metric_prefix_ + ".degraded_reads")),
      degraded_writes_(
          sim.metrics().counter(metric_prefix_ + ".degraded_writes")),
      integrity_repairs_(sim.metrics().counter(metric_prefix_ +
                                               ".integrity_repairs")),
      unrecoverable_(
          sim.metrics().counter(metric_prefix_ + ".unrecoverable")),
      scrubbed_bytes_(
          sim.metrics().counter(metric_prefix_ + ".scrubbed_bytes")),
      scrub_passes_(
          sim.metrics().counter(metric_prefix_ + ".scrub_passes")),
      resync_time_ns_(
          sim.metrics().sampler(metric_prefix_ + ".resync_time_ns")),
      degraded_replicas_(sim.metrics().timeWeighted(
          metric_prefix_ + ".degraded_replicas"))
{
    assert(replicas.size() >= 2 && "a mirror needs at least two legs");
    replicas_.resize(replicas.size());
    for (size_t i = 0; i < replicas.size(); ++i)
        replicas_[i].client = replicas[i];
    scratch_ = memory_.allocate(config_.resync_chunk *
                                config_.resync_parallel);
    sim.metrics().gauge(metric_prefix_ + ".dirty_bytes", [this] {
        return static_cast<double>(dirtyBytes());
    }, this);
    // The scrubber is strictly opt-in: with the default rate of 0 no
    // task is ever spawned and fault-free runs stay bit-identical.
    // Even when enabled it starts lazily on the first I/O (see
    // maybeStartScrub): spawning the infinite walk here would keep
    // connect-time Simulation::run() drains from ever terminating.
    assert(config_.scrub_rate_bytes_per_sec == 0 ||
           config_.scrub_chunk > 0);
}

void
MirroredDevice::maybeStartScrub()
{
    if (scrub_started_ || config_.scrub_rate_bytes_per_sec == 0)
        return;
    scrub_started_ = true;
    sim::spawn(scrubTask());
}

uint64_t
MirroredDevice::capacity() const
{
    uint64_t min_cap = UINT64_MAX;
    for (const Replica &replica : replicas_)
        min_cap = std::min(min_cap, replica.client->capacity());
    return min_cap == UINT64_MAX ? 0 : min_cap;
}

size_t
MirroredDevice::activeReplicas() const
{
    size_t count = 0;
    for (const Replica &replica : replicas_)
        count += replica.active ? 1 : 0;
    return count;
}

bool
MirroredDevice::degraded() const
{
    return activeReplicas() < replicas_.size();
}

uint64_t
MirroredDevice::legDirtyBytes(size_t idx) const
{
    uint64_t total = 0;
    for (const auto &[offset, len] : replicas_[idx].dirty)
        total += len;
    return total;
}

uint64_t
MirroredDevice::dirtyBytes() const
{
    uint64_t total = 0;
    for (const Replica &replica : replicas_) {
        for (const auto &[offset, len] : replica.dirty)
            total += len;
    }
    return total;
}

size_t
MirroredDevice::pickReader()
{
    for (size_t i = 0; i < replicas_.size(); ++i) {
        const size_t idx = (rr_cursor_ + i) % replicas_.size();
        if (replicas_[idx].active) {
            rr_cursor_ = (idx + 1) % replicas_.size();
            return idx;
        }
    }
    return replicas_.size();
}

size_t
MirroredDevice::fallbackSource(size_t idx) const
{
    // Double fault: every leg is failed out, so pickReader() has no
    // source and naively both resync tasks would wait on each other
    // forever. A failed leg that failed *strictly later* than this
    // one is still a safe source: while no leg is active no write can
    // commit (the write path fails fast), so the latest-failed leg
    // holds every write committed before the mirror went dark, and
    // its own dirty regions are only residue of writes that were
    // *reported failed* — copying either their old or new content is
    // within the contract for an unacknowledged write. Ties (legs
    // failed in the same tick both hold all committed data) break by
    // replica index — a content key, so the choice is tie-shuffle
    // invariant. The earliest-failed leg therefore drains first,
    // readmits, and becomes an ordinary active source for the rest.
    const Replica &mine = replicas_[idx];
    size_t best = replicas_.size();
    for (size_t i = 0; i < replicas_.size(); ++i) {
        if (i == idx)
            continue;
        const Replica &cand = replicas_[i];
        if (cand.active || cand.inflight_missing > 0 ||
            !cand.replaying.empty()) {
            continue;
        }
        if (cand.failed_at < mine.failed_at ||
            (cand.failed_at == mine.failed_at && i > idx)) {
            continue; // not strictly later in (failed_at, idx) order
        }
        if (best == replicas_.size() ||
            cand.failed_at > replicas_[best].failed_at ||
            (cand.failed_at == replicas_[best].failed_at &&
             i < best)) {
            best = i;
        }
    }
    return best;
}

void
MirroredDevice::failLeg(size_t idx)
{
    assert(idx < replicas_.size());
    failReplica(idx);
}

sim::Task<bool>
MirroredDevice::read(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    if (len == 0 || offset + len > capacity())
        co_return false;
    maybeStartScrub();

    // Each active replica gets at most one try; a failed read is the
    // signal the DSA client exhausted retransmission *and*
    // reconnection against that node, so the replica fails over and
    // the survivor serves the retry. One exception: a read the
    // server failed with IntegrityError means the *data* is rotten
    // (latent sector error, torn write), not the node — the replica
    // stays in the mirror and the range is repaired from a peer.
    for (size_t tries = replicas_.size(); tries > 0; --tries) {
        const size_t idx = pickReader();
        if (idx == replicas_.size())
            break; // every replica failed out
        Replica &replica = replicas_[idx];
        const uint64_t errors_before =
            replica.client->integrityErrorCount();
        const bool ok =
            co_await replica.client->read(offset, len, buffer);
        if (ok) {
            if (degraded())
                degraded_reads_.increment();
            co_return true;
        }
        if (replica.client->integrityErrorCount() > errors_before) {
            if (co_await repairRange(idx, offset, len, buffer))
                co_return true;
            // No replica holds a good copy of this range.
            unrecoverable_.increment();
            co_return false;
        }
        failReplica(idx);
    }
    co_return false;
}

sim::Task<bool>
MirroredDevice::write(uint64_t offset, uint64_t len, sim::Addr buffer)
{
    if (len == 0 || offset + len > capacity())
        co_return false;
    maybeStartScrub();

    // Targets: active replicas (the write must reach one of them) and
    // catching-up replicas (duplicating to them now is what lets the
    // dirty log drain under a sustained write load).
    std::vector<size_t> targets;
    size_t required = 0;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i].active) {
            targets.push_back(i);
            ++required;
        }
    }
    if (required == 0)
        co_return false;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        if (!replicas_[i].active && replicas_[i].catching_up)
            targets.push_back(i);
    }

    // Replicas down at issue miss this write entirely; count it
    // against them so readmission can wait for the completion-time
    // dirty logging below.
    std::vector<size_t> missing;
    for (size_t i = 0; i < replicas_.size(); ++i) {
        if (!replicas_[i].active && !replicas_[i].catching_up) {
            missing.push_back(i);
            ++replicas_[i].inflight_missing;
        }
    }

    // Duplicate to every target concurrently.
    sim::WaitGroup group;
    std::vector<uint8_t> ok(targets.size(), 0);
    for (size_t t = 0; t < targets.size(); ++t) {
        group.add();
        sim::spawn([](BlockDevice *device, uint64_t off, uint64_t n,
                      sim::Addr buf, sim::WaitGroup &g,
                      uint8_t &flag) -> sim::Task<> {
            flag = (co_await device->write(off, n, buf)) ? 1 : 0;
            g.done();
        }(replicas_[targets[t]].client, offset, len, buffer, group,
          ok[t]));
    }
    co_await group.wait();

    // Everything from here to co_return is synchronous, so the
    // inflight_missing decrement and the dirty logging below are one
    // atomic step as far as the resync readmission gate can observe.
    for (size_t idx : missing)
        --replicas_[idx].inflight_missing;

    size_t ok_count = 0;
    for (uint8_t flag : ok)
        ok_count += flag;
    if (ok_count == 0) {
        // Every target rejected it — a plain I/O error (bad
        // arguments, out of range), not a node fault: nothing
        // happened anywhere, so no failover and nothing to log.
        co_return false;
    }

    bool missed = !missing.empty();
    bool ok_active = false;
    for (size_t t = 0; t < targets.size(); ++t) {
        Replica &replica = replicas_[targets[t]];
        const bool was_required = t < required;
        if (ok[t]) {
            // The write only counts if a replica that was active at
            // issue took it; data held solely by a catching-up
            // replica is not readable yet.
            ok_active |= was_required;
        } else if (was_required) {
            failReplica(targets[t]);
            logDirty(replica, offset, len);
            missed = true;
        } else {
            // A catching-up replica missed it: back into the log; if
            // the node died again the resync write will notice.
            logDirty(replica, offset, len);
        }
    }

    // Log the region for every replica that was down at issue.
    // Logging at *completion*, together with the inflight_missing
    // gate in resyncTask, guarantees a readmitted replica observed
    // every completed write (no await separates the gate checks
    // there, and this logging runs before the application sees the
    // completion).
    for (size_t idx : missing)
        logDirty(replicas_[idx], offset, len);

    // A catching-up replica took the write directly, but if the
    // region overlaps a replay chunk in flight the replayed snapshot
    // may land after this data, so re-log the overlap.
    for (Replica &replica : replicas_) {
        if (!replica.catching_up)
            continue;
        for (const auto &[roff, rlen] : replica.replaying) {
            if (offset < roff + rlen && roff < offset + len) {
                logDirty(replica, offset, len);
                break;
            }
        }
    }
    if (missed)
        degraded_writes_.increment();
    co_return ok_active;
}

void
MirroredDevice::failReplica(size_t idx)
{
    Replica &replica = replicas_[idx];
    if (!replica.active)
        return;
    replica.active = false;
    replica.failed_at = sim_.now();
    failovers_.increment();
    degraded_replicas_.set(
        sim_.now(),
        static_cast<double>(replicas_.size() - activeReplicas()));
    V3LOG(Warn, "mirror")
        << config_.name << ": replica " << idx
        << " failed over, mirror degraded ("
        << activeReplicas() << "/" << replicas_.size() << " active)";
    if (!replica.resyncing) {
        replica.resyncing = true;
        sim::spawn(resyncTask(idx));
    }
}

void
MirroredDevice::logDirty(Replica &replica, uint64_t offset,
                         uint64_t len)
{
    if (len == 0)
        return;
    uint64_t end = offset + len;
    auto it = replica.dirty.upper_bound(offset);
    if (it != replica.dirty.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second >= offset) {
            offset = prev->first;
            end = std::max(end, prev->first + prev->second);
            it = replica.dirty.erase(prev);
        }
    }
    while (it != replica.dirty.end() && it->first <= end) {
        end = std::max(end, it->first + it->second);
        it = replica.dirty.erase(it);
    }
    replica.dirty[offset] = end - offset;
}

sim::Task<bool>
MirroredDevice::repairRange(size_t idx, uint64_t offset, uint64_t len,
                            sim::Addr buffer)
{
    for (size_t peer = 0; peer < replicas_.size(); ++peer) {
        if (peer == idx || !replicas_[peer].active)
            continue;
        if (!co_await replicas_[peer].client->read(offset, len,
                                                   buffer)) {
            continue; // peer unreachable or also rotten; try another
        }
        // The caller's buffer now holds a verified copy; rewrite the
        // damaged leg from it (overwriting clears the latent marks).
        if (co_await replicas_[idx].client->write(offset, len,
                                                  buffer)) {
            integrity_repairs_.increment();
            V3LOG(Info, "mirror")
                << config_.name << ": repaired " << len
                << " bytes at " << offset << " on replica " << idx
                << " from replica " << peer;
        } else {
            // The rewrite failed (node died mid-repair, or the range
            // does not meet the server's write alignment): remember
            // it so a later resync replays it.
            logDirty(replicas_[idx], offset, len);
        }
        co_return true;
    }
    co_return false;
}

sim::Task<>
MirroredDevice::scrubTask()
{
    // Replica capacities are learned from the servers' Hello acks;
    // wait for the clients to connect.
    while (capacity() == 0)
        co_await sim_.sleep(config_.probe_interval);

    const sim::Addr buf = memory_.allocate(config_.scrub_chunk);
    for (uint32_t pass = 0; config_.scrub_pass_limit == 0 ||
                            pass < config_.scrub_pass_limit;
         ++pass) {
        const uint64_t cap = capacity();
        for (uint64_t off = 0; off < cap;
             off += config_.scrub_chunk) {
            const uint64_t n = std::min(config_.scrub_chunk, cap - off);
            // Pace the walk so the scrub costs a bounded slice of
            // the cluster's bandwidth.
            co_await sim_.sleep(sim::usecs(
                1e6 * static_cast<double>(n) /
                static_cast<double>(config_.scrub_rate_bytes_per_sec)));
            // Every replica is checked directly (the round-robin
            // read path would only ever sample one leg per chunk).
            for (size_t idx = 0; idx < replicas_.size(); ++idx) {
                Replica &replica = replicas_[idx];
                if (!replica.active)
                    continue; // resync will rebuild it anyway
                const uint64_t errors_before =
                    replica.client->integrityErrorCount();
                if (co_await replica.client->read(off, n, buf))
                    continue;
                if (replica.client->integrityErrorCount() >
                    errors_before) {
                    if (!co_await repairRange(idx, off, n, buf))
                        unrecoverable_.increment();
                }
                // A plain failure is left alone: the foreground path
                // owns the failover decision.
            }
            scrubbed_bytes_.increment(n);
        }
        scrub_passes_.increment();
    }
    memory_.free(buf);
}

sim::Task<>
MirroredDevice::resyncTask(size_t idx)
{
    Replica &replica = replicas_[idx];
    for (;;) {
        // Probe phase: wait for the node to answer a fresh
        // connection attempt. Failed probes back off
        // binary-exponentially up to probe_max_interval so a node
        // that stays down costs geometrically fewer reconnection
        // attempts; the delay is re-initialized per outage, which is
        // the "reset on success" half of the RTO rule.
        const sim::Tick down_since = sim_.now();
        sim::Tick probe_delay = config_.probe_interval;
        for (;;) {
            co_await sim_.sleep(probe_delay);
            if (co_await replica.client->revive())
                break;
            probe_delay = std::min(probe_delay * 2,
                                   config_.probe_max_interval);
        }
        resyncs_.increment();
        // Catch-up: from here on, new writes are duplicated to this
        // replica directly, so the dirty log is bounded by what was
        // missed while the node was down and the replay converges
        // even under a sustained write load.
        replica.catching_up = true;
        V3LOG(Info, "mirror")
            << config_.name << ": replica " << idx
            << " reachable again, resync starting";

        // Replay phase: drain the dirty-region log in bounded chunks
        // (each chunk is one ordinary DSA read from a survivor and
        // one DSA write to the revived node — the write must fit the
        // server's staging slot). In-flight writes issued while the
        // node was still down log their regions on completion;
        // readmission waits for those via the inflight gate.
        bool lost_again = false;
        for (;;) {
            if (!replica.dirty.empty()) {
                // Pull a batch of regions off the log and replay them
                // concurrently (one scratch slot each).
                struct Piece
                {
                    uint64_t off;
                    uint64_t len;
                };
                std::vector<Piece> batch;
                while (batch.size() < config_.resync_parallel &&
                       !replica.dirty.empty()) {
                    auto it = replica.dirty.begin();
                    const uint64_t off = it->first;
                    const uint64_t len =
                        std::min(it->second, config_.resync_chunk);
                    if (len == it->second) {
                        replica.dirty.erase(it);
                    } else {
                        const uint64_t rest_off = off + len;
                        const uint64_t rest_len = it->second - len;
                        replica.dirty.erase(it);
                        replica.dirty[rest_off] = rest_len;
                    }
                    batch.push_back(Piece{off, len});
                }

                size_t src = pickReader();
                if (src == replicas_.size())
                    src = fallbackSource(idx);
                if (src == replicas_.size()) {
                    // No usable source right now; put the regions
                    // back and wait for one.
                    for (const Piece &piece : batch)
                        logDirty(replica, piece.off, piece.len);
                    co_await sim_.sleep(config_.probe_interval);
                    continue;
                }

                // Mark the chunks in flight: concurrent application
                // writes overlapping one re-log themselves so the
                // snapshots below can't leave them stale.
                for (const Piece &piece : batch)
                    replica.replaying[piece.off] = piece.len;

                enum : uint8_t { kReadFail, kWriteFail, kOk };
                std::vector<uint8_t> result(batch.size(), kReadFail);
                sim::WaitGroup group;
                for (size_t p = 0; p < batch.size(); ++p) {
                    group.add();
                    const sim::Addr slot =
                        scratch_ + p * config_.resync_chunk;
                    sim::spawn([](BlockDevice *from, BlockDevice *to,
                                  Piece piece, sim::Addr buf,
                                  sim::WaitGroup &g,
                                  uint8_t &res) -> sim::Task<> {
                        if (co_await from->read(piece.off, piece.len,
                                                buf)) {
                            res = (co_await to->write(piece.off,
                                                      piece.len, buf))
                                      ? kOk
                                      : kWriteFail;
                        }
                        g.done();
                    }(replicas_[src].client, replica.client, batch[p],
                      slot, group, result[p]));
                }
                co_await group.wait();

                for (const Piece &piece : batch)
                    replica.replaying.erase(piece.off);
                bool progressed = false;
                for (size_t p = 0; p < batch.size(); ++p) {
                    if (result[p] == kOk) {
                        resync_bytes_.increment(batch[p].len);
                        progressed = true;
                        continue;
                    }
                    logDirty(replica, batch[p].off, batch[p].len);
                    if (result[p] == kReadFail)
                        failReplica(src);
                    else
                        lost_again = true;
                }
                if (!progressed && !lost_again) {
                    // Every read failed. When the source was active,
                    // failReplica just demoted it and the next pass
                    // re-picks; but a *fallback* source stays where
                    // it is (already inactive), and its dead client
                    // fails reads without consuming simulated time —
                    // so back off before retrying or this loop spins
                    // forever in a single tick.
                    co_await sim_.sleep(config_.probe_interval);
                }
                if (lost_again) {
                    // The node died again mid-resync: back to the
                    // probe phase with the regions still logged.
                    replica.catching_up = false;
                    break;
                }
            } else if (replica.inflight_missing > 0) {
                // Writes issued while the node was down are still in
                // flight; they will log their regions on completion.
                co_await sim_.sleep(config_.probe_interval);
            } else {
                break; // log drained, nothing missing: caught up
            }
        }
        if (lost_again)
            continue;

        // Readmit: the replica serves reads again.
        replica.active = true;
        replica.catching_up = false;
        replica.resyncing = false;
        readmits_.increment();
        degraded_replicas_.set(
            sim_.now(),
            static_cast<double>(replicas_.size() - activeReplicas()));
        resync_time_ns_.add(
            static_cast<double>(sim_.now() - down_since));
        V3LOG(Info, "mirror")
            << config_.name << ": replica " << idx
            << " resynced and readmitted";
        co_return;
    }
}

} // namespace v3sim::dsa
