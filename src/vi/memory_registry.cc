#include "memory_registry.hh"

#include <cassert>
#include <type_traits>

namespace v3sim::vi
{

MemoryRegistry::MemoryRegistry(const ViCosts &costs,
                               uint32_t region_entries)
    : costs_(costs),
      region_entries_(region_entries),
      table_entries_(costs_.max_table_entries),
      table_bytes_(sim::allocateZeroed(uint64_t{table_entries_} *
                                       sizeof(Entry))),
      table_(reinterpret_cast<Entry *>(table_bytes_.get()))
{
    static_assert(std::is_trivially_copyable_v<Entry>,
                  "zeroed bytes must be a valid free entry");
    assert(region_entries_ >= 1);
    free_bits_.assign((table_entries_ + 63) / 64, ~uint64_t(0));
    if (table_entries_ % 64 != 0)
        free_bits_.back() =
            (uint64_t(1) << (table_entries_ % 64)) - 1;
}

MemoryRegistry::~MemoryRegistry()
{
    if (metrics_)
        metrics_->retire(this);
}

bool
MemoryRegistry::findFreeSlot(uint32_t *slot)
{
    if (live_entries_ >= table_entries_)
        return false;
    const uint32_t n = table_entries_;
    // First free slot at or after cursor_, wrapping — the same
    // round-robin policy as a linear probe of the table, but over the
    // free-slot bitmap. Probing order: the cursor word's high bits,
    // the following words (wrapping), then the cursor word's low
    // bits, which is exactly the slot order cursor_..n-1, 0..cursor_-1.
    const uint32_t words = static_cast<uint32_t>(free_bits_.size());
    const uint32_t start_word = cursor_ / 64;
    const uint32_t start_bit = cursor_ % 64;
    for (uint32_t i = 0; i <= words; ++i) {
        const uint32_t w = (start_word + i) % words;
        uint64_t bits = free_bits_[w];
        if (i == 0)
            bits &= ~uint64_t(0) << start_bit;
        else if (i == words)
            bits &= start_bit != 0
                        ? (uint64_t(1) << start_bit) - 1
                        : 0;
        if (bits != 0) {
            const uint32_t candidate =
                w * 64 +
                static_cast<uint32_t>(__builtin_ctzll(bits));
            *slot = candidate;
            cursor_ = (candidate + 1) % n;
            return true;
        }
    }
    return false;
}

std::optional<RegResult>
MemoryRegistry::registerMemory(sim::Addr addr, uint64_t len,
                               bool pre_pinned)
{
    if (len == 0 ||
        registered_bytes_ + len > costs_.max_registered_bytes) {
        failures_.increment();
        return std::nullopt;
    }
    uint32_t slot;
    if (!findFreeSlot(&slot)) {
        failures_.increment();
        return std::nullopt;
    }

    Entry &entry = table_[slot];
    markSlotUsed(slot);
    entry.in_use = true;
    entry.generation = next_generation_++;
    entry.addr = addr;
    entry.len = len;
    entry.self_pinned = !pre_pinned;

    ++live_entries_;
    registered_bytes_ += len;
    peak_bytes_ = std::max(peak_bytes_, registered_bytes_);
    registrations_.increment();

    sim::Tick cost = costs_.table_update;
    if (!pre_pinned)
        cost += static_cast<sim::Tick>(sim::pageSpan(addr, len)) *
                costs_.page_pin;

    linkByAddr(slot);

    RegResult result;
    result.handle = MemHandle{slot, entry.generation};
    result.cost = cost;
    result.region = slot / region_entries_;
    return result;
}

std::optional<sim::Tick>
MemoryRegistry::deregister(MemHandle handle)
{
    if (handle.slot >= table_entries_)
        return std::nullopt;
    const Entry &entry = table_[handle.slot];
    if (!entry.in_use || entry.generation != handle.generation)
        return std::nullopt;
    const sim::Tick cost = costs_.table_remove + release(handle.slot);
    deregistrations_.increment();
    return cost;
}

RegionDeregResult
MemoryRegistry::deregisterRegion(uint32_t region)
{
    RegionDeregResult result;
    const uint64_t first =
        static_cast<uint64_t>(region) * region_entries_;
    if (first >= table_entries_)
        return result;
    const uint64_t last =
        std::min<uint64_t>(first + region_entries_, table_entries_);

    // One table operation covers the whole region; unpinning (when
    // the entries pinned their own pages) still costs per page.
    result.cost = costs_.table_remove;
    for (uint64_t slot = first; slot < last; ++slot) {
        if (!table_[slot].in_use)
            continue;
        result.cost += release(static_cast<uint32_t>(slot));
        ++result.entries_freed;
    }
    region_deregs_.increment();
    return result;
}

sim::Tick
MemoryRegistry::release(uint32_t slot)
{
    Entry &entry = table_[slot];
    const sim::Tick unpin =
        entry.self_pinned
            ? static_cast<sim::Tick>(
                  sim::pageSpan(entry.addr, entry.len)) *
                  costs_.page_pin
            : 0;
    unlinkByAddr(slot);
    registered_bytes_ -= entry.len;
    --live_entries_;
    entry = Entry{};
    markSlotFree(slot);
    return unpin;
}

bool
MemoryRegistry::covers(MemHandle handle, sim::Addr addr,
                       uint64_t len) const
{
    if (handle.slot >= table_entries_)
        return false;
    const Entry &entry = table_[handle.slot];
    if (!entry.in_use || entry.generation != handle.generation)
        return false;
    return addr >= entry.addr && addr - entry.addr <= entry.len &&
           len <= entry.len - (addr - entry.addr);
}

bool
MemoryRegistry::anyCovers(sim::Addr addr, uint64_t len) const
{
    const auto *head = chain_heads_.floor(addr);
    if (head == nullptr)
        return false;
    // Every entry sharing the closest base address gets a look: the
    // same buffer can carry several live registrations with
    // different lengths.
    for (uint32_t slot = head->value; slot != kNoSlot;
         slot = table_[slot].next) {
        const Entry &entry = table_[slot];
        if (addr - entry.addr <= entry.len &&
            len <= entry.len - (addr - entry.addr)) {
            return true;
        }
    }
    return false;
}

uint32_t
MemoryRegistry::regionOf(MemHandle handle) const
{
    return handle.slot / region_entries_;
}

void
MemoryRegistry::linkByAddr(uint32_t slot)
{
    Entry &entry = table_[slot];
    entry.prev = kNoSlot;
    if (uint32_t *head = chain_heads_.find(entry.addr)) {
        entry.next = *head;
        table_[*head].prev = slot;
        *head = slot;
    } else {
        entry.next = kNoSlot;
        chain_heads_.insert(entry.addr, slot);
    }
}

void
MemoryRegistry::unlinkByAddr(uint32_t slot)
{
    const Entry &entry = table_[slot];
    if (entry.next != kNoSlot)
        table_[entry.next].prev = entry.prev;
    if (entry.prev != kNoSlot)
        table_[entry.prev].next = entry.next;
    else if (entry.next != kNoSlot)
        *chain_heads_.find(entry.addr) = entry.next;
    else
        chain_heads_.erase(entry.addr);
}

void
MemoryRegistry::registerMetrics(sim::MetricRegistry &metrics,
                                const std::string &prefix)
{
    metrics_ = &metrics;
    metrics.gauge(prefix + ".registrations", [this] {
        return static_cast<double>(registrations_.value());
    }, this);
    metrics.gauge(prefix + ".deregistrations", [this] {
        return static_cast<double>(deregistrations_.value());
    }, this);
    metrics.gauge(prefix + ".region_deregs", [this] {
        return static_cast<double>(region_deregs_.value());
    }, this);
    metrics.gauge(prefix + ".failures", [this] {
        return static_cast<double>(failures_.value());
    }, this);
    metrics.gauge(prefix + ".pinned_bytes", [this] {
        return static_cast<double>(registered_bytes_);
    }, this);
    metrics.gauge(prefix + ".live_entries", [this] {
        return static_cast<double>(live_entries_);
    }, this);
    metrics.gauge(prefix + ".peak_bytes", [this] {
        return static_cast<double>(peak_bytes_);
    }, this);
    metrics.onEpochReset([this](sim::Tick) {
        registrations_.reset();
        deregistrations_.reset();
        region_deregs_.reset();
        failures_.reset();
    }, this);
}

} // namespace v3sim::vi
