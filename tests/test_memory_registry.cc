/**
 * @file
 * Unit tests for the NIC translation table: registration costs,
 * capacity limits, batched region deregistration, and handle safety.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "sim/memory.hh"
#include "sim/random.hh"
#include "vi/memory_registry.hh"

namespace v3sim::vi
{
namespace
{

using sim::usecs;

ViCosts
smallTable()
{
    ViCosts costs;
    costs.max_table_entries = 16;
    costs.max_registered_bytes = 64 * 1024;
    return costs;
}

TEST(MemoryRegistry, RegisterEightKCostsAboutFiveUs)
{
    // Paper section 3.1: registering an 8K buffer costs ~5-10 us.
    ViCosts costs;
    MemoryRegistry reg(costs);
    auto result = reg.registerMemory(0x10000, 8192, /*pre_pinned=*/false);
    ASSERT_TRUE(result.has_value());
    // 2 pages pinned + 1 table update.
    EXPECT_EQ(result->cost, 2 * costs.page_pin + costs.table_update);
    EXPECT_GE(result->cost, usecs(4));
    EXPECT_LE(result->cost, usecs(10));
}

TEST(MemoryRegistry, PrePinnedSkipsPinCost)
{
    ViCosts costs;
    MemoryRegistry reg(costs);
    auto result = reg.registerMemory(0x10000, 8192, /*pre_pinned=*/true);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->cost, costs.table_update);
}

TEST(MemoryRegistry, ConsecutiveRegistrationsUseConsecutiveSlots)
{
    ViCosts costs;
    MemoryRegistry reg(costs);
    auto r0 = reg.registerMemory(0x1000, 4096, true);
    auto r1 = reg.registerMemory(0x3000, 4096, true);
    auto r2 = reg.registerMemory(0x5000, 4096, true);
    ASSERT_TRUE(r0 && r1 && r2);
    EXPECT_EQ(r1->handle.slot, r0->handle.slot + 1);
    EXPECT_EQ(r2->handle.slot, r1->handle.slot + 1);
}

TEST(MemoryRegistry, ByteCapacityEnforced)
{
    MemoryRegistry reg(smallTable());
    auto r0 = reg.registerMemory(0x10000, 48 * 1024, true);
    ASSERT_TRUE(r0);
    auto r1 = reg.registerMemory(0x40000, 32 * 1024, true);
    EXPECT_FALSE(r1.has_value());
    EXPECT_EQ(reg.failureCount(), 1u);
    // After deregistering, it fits.
    ASSERT_TRUE(reg.deregister(r0->handle).has_value());
    EXPECT_TRUE(reg.registerMemory(0x40000, 32 * 1024, true));
}

TEST(MemoryRegistry, EntryCapacityEnforced)
{
    MemoryRegistry reg(smallTable());
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(reg.registerMemory(0x1000 + i * 0x1000, 64, true));
    EXPECT_FALSE(reg.registerMemory(0x90000, 64, true));
    EXPECT_EQ(reg.liveEntries(), 16u);
}

TEST(MemoryRegistry, DeregisterStaleHandleFails)
{
    ViCosts costs;
    MemoryRegistry reg(costs);
    auto r = reg.registerMemory(0x1000, 4096, true);
    ASSERT_TRUE(r);
    ASSERT_TRUE(reg.deregister(r->handle).has_value());
    EXPECT_FALSE(reg.deregister(r->handle).has_value()); // stale
}

TEST(MemoryRegistry, CoversValidatesRange)
{
    ViCosts costs;
    MemoryRegistry reg(costs);
    auto r = reg.registerMemory(0x1000, 8192, true);
    ASSERT_TRUE(r);
    EXPECT_TRUE(reg.covers(r->handle, 0x1000, 8192));
    EXPECT_TRUE(reg.covers(r->handle, 0x1100, 100));
    EXPECT_FALSE(reg.covers(r->handle, 0x0F00, 100));
    EXPECT_FALSE(reg.covers(r->handle, 0x1000, 8193));
}

TEST(MemoryRegistry, AnyCoversFindsRegisteredRanges)
{
    ViCosts costs;
    MemoryRegistry reg(costs);
    ASSERT_TRUE(reg.registerMemory(0x1000, 4096, true));
    auto r2 = reg.registerMemory(0x8000, 4096, true);
    ASSERT_TRUE(r2);
    EXPECT_TRUE(reg.anyCovers(0x1000, 4096));
    EXPECT_TRUE(reg.anyCovers(0x8FFF, 1));
    EXPECT_FALSE(reg.anyCovers(0x5000, 1));
    EXPECT_FALSE(reg.anyCovers(0x8000, 4097));
    ASSERT_TRUE(reg.deregister(r2->handle));
    EXPECT_FALSE(reg.anyCovers(0x8000, 1));
}

TEST(MemoryRegistry, RegionDeregFreesWholeRegionAtFixedTableCost)
{
    // Region size 4 for the test; pre-pinned buffers so the batched
    // cost is exactly one table operation regardless of entry count.
    ViCosts costs;
    MemoryRegistry reg(costs, /*region_entries=*/4);
    std::vector<RegResult> results;
    for (int i = 0; i < 4; ++i) {
        auto r = reg.registerMemory(0x1000 + i * 0x2000, 8192, true);
        ASSERT_TRUE(r);
        EXPECT_EQ(r->region, 0u);
        results.push_back(*r);
    }
    const auto dereg = reg.deregisterRegion(0);
    EXPECT_EQ(dereg.entries_freed, 4u);
    EXPECT_EQ(dereg.cost, costs.table_remove);
    EXPECT_EQ(reg.liveEntries(), 0u);
    EXPECT_EQ(reg.registeredBytes(), 0u);
    // All handles are now stale.
    for (const auto &r : results)
        EXPECT_FALSE(reg.covers(r.handle, 0x1000, 1));
}

TEST(MemoryRegistry, RegionDeregPaysUnpinForSelfPinnedEntries)
{
    ViCosts costs;
    MemoryRegistry reg(costs, 4);
    ASSERT_TRUE(reg.registerMemory(0x1000, 8192, /*pre_pinned=*/false));
    ASSERT_TRUE(reg.registerMemory(0x4000, 8192, /*pre_pinned=*/true));
    const auto dereg = reg.deregisterRegion(0);
    EXPECT_EQ(dereg.entries_freed, 2u);
    EXPECT_EQ(dereg.cost, costs.table_remove + 2 * costs.page_pin);
}

TEST(MemoryRegistry, SlotsReusedAfterRegionFree)
{
    MemoryRegistry reg(smallTable(), 4);
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(reg.registerMemory(0x1000 + i * 0x1000, 64, true));
    reg.deregisterRegion(0); // frees slots 0-3
    auto r = reg.registerMemory(0x90000, 64, true);
    ASSERT_TRUE(r);
    EXPECT_LT(r->handle.slot, 4u);
}

TEST(MemoryRegistry, StatsTrackOperations)
{
    ViCosts costs;
    MemoryRegistry reg(costs, 4);
    auto r0 = reg.registerMemory(0x1000, 4096, true);
    auto r1 = reg.registerMemory(0x3000, 4096, true);
    ASSERT_TRUE(r0 && r1);
    reg.deregister(r0->handle);
    reg.deregisterRegion(0);
    EXPECT_EQ(reg.registrationCount(), 2u);
    EXPECT_EQ(reg.deregistrationCount(), 1u);
    EXPECT_EQ(reg.regionDeregCount(), 1u);
    EXPECT_EQ(reg.peakRegisteredBytes(), 8192u);
}

TEST(MemoryRegistry, PaperScaleRegionIsThousandEntries)
{
    ViCosts costs;
    MemoryRegistry reg(costs); // default region = 1000 entries
    EXPECT_EQ(reg.regionEntries(), 1000u);
}

class RegistryModelTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RegistryModelTest, MatchesBruteForceScanOfLiveEntries)
{
    // Random register / deregister / deregisterRegion / anyCovers
    // against a plain list of live entries. Few distinct bases, so
    // one buffer carries several live registrations (with different
    // lengths) at once, as under batched deregistration.
    struct Live
    {
        MemHandle handle;
        sim::Addr addr;
        uint64_t len;
    };
    ViCosts costs;
    costs.max_table_entries = 96;
    costs.max_registered_bytes = 64 * 8192;
    MemoryRegistry reg(costs, /*region_entries=*/8);
    sim::Rng rng(GetParam());
    std::vector<Live> live;

    // The documented rule: the closest live base <= addr decides, and
    // any live entry at that base may cover the range.
    auto expectCovers = [&live](sim::Addr addr, uint64_t len) {
        sim::Addr base = 0;
        bool found = false;
        for (const Live &entry : live) {
            if (entry.addr <= addr && (!found || entry.addr > base)) {
                base = entry.addr;
                found = true;
            }
        }
        for (const Live &entry : live) {
            if (found && entry.addr == base &&
                addr - entry.addr + len <= entry.len) {
                return true;
            }
        }
        return false;
    };

    for (int step = 0; step < 4000; ++step) {
        const uint64_t op = rng.uniformInt(0, 99);
        if (op < 45) {
            const sim::Addr addr = 0x100000 + rng.uniformInt(0, 11) * 0x3000;
            const uint64_t len = 512 * rng.uniformInt(1, 24);
            const auto result =
                reg.registerMemory(addr, len, rng.bernoulli(0.5));
            if (result)
                live.push_back(Live{result->handle, addr, len});
        } else if (op < 70 && !live.empty()) {
            const size_t pick = rng.uniformInt(0, live.size() - 1);
            ASSERT_TRUE(reg.deregister(live[pick].handle).has_value());
            // A second deregistration of the same handle is stale.
            EXPECT_FALSE(reg.deregister(live[pick].handle).has_value());
            live.erase(live.begin() + static_cast<long>(pick));
        } else if (op < 75) {
            const uint32_t region =
                static_cast<uint32_t>(rng.uniformInt(0, 11));
            const RegionDeregResult freed = reg.deregisterRegion(region);
            const auto in_region = [&reg, region](const Live &entry) {
                return reg.regionOf(entry.handle) == region;
            };
            EXPECT_EQ(freed.entries_freed,
                      std::count_if(live.begin(), live.end(),
                                    in_region));
            live.erase(std::remove_if(live.begin(), live.end(),
                                      in_region),
                       live.end());
        } else {
            const sim::Addr addr = 0x100000 - 0x800 +
                                   rng.uniformInt(0, 0x24000 / 512) * 512;
            const uint64_t len = 512 * rng.uniformInt(1, 16);
            ASSERT_EQ(reg.anyCovers(addr, len), expectCovers(addr, len))
                << "step " << step << " addr " << addr << " len " << len;
        }
        ASSERT_EQ(reg.liveEntries(), live.size());
        uint64_t bytes = 0;
        for (const Live &entry : live) {
            bytes += entry.len;
            ASSERT_TRUE(reg.covers(entry.handle, entry.addr, entry.len));
        }
        ASSERT_EQ(reg.registeredBytes(), bytes);
    }
}

TEST_P(RegistryModelTest, MatchesMapModelWithThousandsOfBases)
{
    // Batched deregistration at scale: thousands of distinct buffers,
    // a few registrations each. A full table retires the next
    // 1024-slot region, as dsa::RegCache's forced flush does, which
    // drops hundreds of bases from the address index at once. The
    // model keeps the lengths live at each base.
    struct Live
    {
        MemHandle handle;
        sim::Addr addr;
        uint64_t len;
    };
    ViCosts costs;
    costs.max_table_entries = 8192;
    costs.max_registered_bytes = uint64_t{1} << 40;
    MemoryRegistry reg(costs, /*region_entries=*/1024);
    sim::Rng rng(GetParam());
    std::vector<Live> live;
    std::map<sim::Addr, std::multiset<uint64_t>> by_base;

    const auto forget = [&by_base](const Live &entry) {
        std::multiset<uint64_t> &lens = by_base[entry.addr];
        lens.erase(lens.find(entry.len));
        if (lens.empty())
            by_base.erase(entry.addr);
    };
    // The documented rule: the closest live base <= addr decides.
    const auto expectCovers = [&by_base](sim::Addr addr, uint64_t len) {
        auto next = by_base.upper_bound(addr);
        if (next == by_base.begin())
            return false;
        --next;
        return addr - next->first + len <= *next->second.rbegin();
    };

    size_t most_bases = 0;
    uint32_t retiring = 0;
    for (int step = 0; step < 40000; ++step) {
        const uint64_t op = rng.uniformInt(0, 99);
        if (op < 60) {
            const sim::Addr addr =
                0x100000 + rng.uniformInt(0, 5999) * 0x2000;
            const uint64_t len = 512 * rng.uniformInt(1, 16);
            const auto result = reg.registerMemory(addr, len, true);
            if (result) {
                live.push_back(Live{result->handle, addr, len});
                by_base[addr].insert(len);
                continue;
            }
            const uint32_t region = retiring;
            retiring = (retiring + 1) % 8;
            const auto in_region = [&reg, region](const Live &entry) {
                return reg.regionOf(entry.handle) == region;
            };
            EXPECT_EQ(reg.deregisterRegion(region).entries_freed,
                      std::count_if(live.begin(), live.end(), in_region));
            for (const Live &entry : live) {
                if (in_region(entry))
                    forget(entry);
            }
            std::erase_if(live, in_region);
        } else if (op < 68 && !live.empty()) {
            const size_t pick = rng.uniformInt(0, live.size() - 1);
            ASSERT_TRUE(reg.deregister(live[pick].handle).has_value());
            forget(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        } else {
            const sim::Addr addr =
                0x100000 - 0x1000 + rng.uniformInt(0, 6000 * 16) * 0x200;
            const uint64_t len = 512 * rng.uniformInt(1, 20);
            ASSERT_EQ(reg.anyCovers(addr, len), expectCovers(addr, len))
                << "step " << step << " addr " << addr << " len " << len;
        }
        most_bases = std::max(most_bases, by_base.size());
        ASSERT_EQ(reg.liveEntries(), live.size());
        if (step % 1000 == 0) {
            for (const Live &entry : live) {
                ASSERT_TRUE(
                    reg.covers(entry.handle, entry.addr, entry.len));
            }
        }
    }
    EXPECT_GE(most_bases, 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryModelTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 4242u));

} // namespace
} // namespace v3sim::vi
