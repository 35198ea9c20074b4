/**
 * @file
 * Unit tests for util: size parsing/formatting, the table printer,
 * the flat hot-path tables (OrderedIndex, SeqWindow) checked against
 * std::map models, and the stripe geometry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/random.hh"
#include "util/ordered_index.hh"
#include "util/seq_window.hh"
#include "util/stripe.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace v3sim::util
{
namespace
{

TEST(Units, ParsePlainBytes)
{
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("0"), 0u);
}

TEST(Units, ParseSuffixes)
{
    EXPECT_EQ(parseSize("8K"), 8u * 1024);
    EXPECT_EQ(parseSize("8k"), 8u * 1024);
    EXPECT_EQ(parseSize("64K"), 64u * 1024);
    EXPECT_EQ(parseSize("4M"), 4u * 1024 * 1024);
    EXPECT_EQ(parseSize("2G"), 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(parseSize("8KB"), 8u * 1024);
    EXPECT_EQ(parseSize("8KiB"), 8u * 1024);
}

TEST(Units, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseSize("").has_value());
    EXPECT_FALSE(parseSize("abc").has_value());
    EXPECT_FALSE(parseSize("8Q").has_value());
    EXPECT_FALSE(parseSize("8Kx").has_value());
}

TEST(Units, FormatRoundTrips)
{
    EXPECT_EQ(formatSize(512), "512");
    EXPECT_EQ(formatSize(8 * 1024), "8K");
    EXPECT_EQ(formatSize(128 * 1024), "128K");
    EXPECT_EQ(formatSize(4 * 1024 * 1024), "4M");
    EXPECT_EQ(formatSize(3ull * 1024 * 1024 * 1024), "3G");
    EXPECT_EQ(formatSize(1000), "1000"); // not a clean multiple
}

TEST(Units, FormatTimes)
{
    EXPECT_EQ(formatUsecs(7000), "7.0 us");
    EXPECT_EQ(formatMsecs(1500000), "1.500 ms");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"size", "latency"});
    t.addRow({"512", "10.0"});
    t.addRow({"128K", "200.5"});
    const std::string out = t.render();
    EXPECT_NE(out.find("size"), std::string::npos);
    EXPECT_NE(out.find("128K"), std::string::npos);
    EXPECT_NE(out.find("200.5"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(static_cast<int64_t>(42)), "42");
}

TEST(Table, MissingCellsRenderEmpty)
{
    TextTable t({"a", "b", "c"});
    t.addRow({"x"});
    const std::string out = t.render();
    EXPECT_NE(out.find('x'), std::string::npos);
}

using Index = OrderedIndex<uint64_t, uint64_t>;

/** Asserts that @p index holds exactly @p model, in key order. */
void
expectSameItems(const Index &index, const std::map<uint64_t, uint64_t> &model)
{
    ASSERT_EQ(index.size(), model.size());
    ASSERT_EQ(index.empty(), model.empty());
    std::vector<std::pair<uint64_t, uint64_t>> items;
    index.forEach([&items](const Index::Item &item) {
        items.emplace_back(item.key, item.value);
    });
    const std::vector<std::pair<uint64_t, uint64_t>> expected(
        model.begin(), model.end());
    ASSERT_EQ(items, expected);
    if (!model.empty()) {
        EXPECT_EQ(index.front().key, model.begin()->first);
    }
}

/** find() and floor() at @p key agree with @p model. */
void
expectSameLookups(Index &index,
                  const std::map<uint64_t, uint64_t> &model, uint64_t key)
{
    const auto exact = model.find(key);
    const uint64_t *found = index.find(key);
    ASSERT_EQ(found != nullptr, exact != model.end()) << "key " << key;
    if (found != nullptr) {
        ASSERT_EQ(*found, exact->second);
    }

    auto after = model.upper_bound(key);
    const Index::Item *floor = index.floor(key);
    ASSERT_EQ(floor != nullptr, after != model.begin()) << "key " << key;
    if (floor != nullptr) {
        --after;
        ASSERT_EQ(floor->key, after->first);
        ASSERT_EQ(floor->value, after->second);
    }
}

TEST(OrderedIndex, MatchesStdMapUnderRandomOperations)
{
    // Phases alternate between growing and shrinking, so chunks
    // split, empty and merge many times over.
    sim::Rng rng(7);
    Index index;
    std::map<uint64_t, uint64_t> model;
    for (int step = 0; step < 200000; ++step) {
        const bool growing = (step / 20000) % 2 == 0;
        const uint64_t key = rng.uniformInt(0, 30000);
        const uint64_t op = rng.uniformInt(0, 99);
        if (op < (growing ? 45u : 20u)) {
            if (model.count(key) == 0) {
                const uint64_t value = rng.uniformInt(0, 1u << 30);
                ASSERT_EQ(index.insert(key, value), value);
                model.emplace(key, value);
            }
        } else if (op < 70) {
            ASSERT_EQ(index.erase(key), model.erase(key) == 1)
                << "step " << step;
        } else {
            ASSERT_NO_FATAL_FAILURE(expectSameLookups(index, model, key));
        }
        if (step % 5000 == 0) {
            ASSERT_NO_FATAL_FAILURE(expectSameItems(index, model));
        }
    }
    ASSERT_NO_FATAL_FAILURE(expectSameItems(index, model));
}

TEST(OrderedIndex, RetiresLongRunsOfAscendingKeys)
{
    // The batched-deregistration pattern: a region's worth of
    // buffers registers at ascending addresses, then whole runs of
    // them retire at once, while later ones keep arriving.
    Index index;
    std::map<uint64_t, uint64_t> model;
    uint64_t next = 0x100000;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 5000; ++i, next += 8192) {
            index.insert(next, next / 8192);
            model.emplace(next, next / 8192);
        }
        // Retire every other run of 700 keys, oldest first.
        std::vector<uint64_t> keys;
        for (const auto &[key, value] : model)
            keys.push_back(key);
        for (size_t i = 0; i < keys.size(); ++i) {
            if ((i / 700) % 2 == 0) {
                ASSERT_TRUE(index.erase(keys[i]));
                model.erase(keys[i]);
            }
        }
        ASSERT_NO_FATAL_FAILURE(expectSameItems(index, model));
        for (uint64_t probe = 0x100000 - 8192; probe < next + 8192;
             probe += 4096 * 7) {
            ASSERT_NO_FATAL_FAILURE(expectSameLookups(index, model, probe));
        }
    }
}

TEST(OrderedIndex, WalksInKeyOrder)
{
    Index index;
    std::map<uint64_t, uint64_t> model;
    for (uint64_t key = 1000; key > 0; --key) {
        index.insert(key * 3, key % 7);
        model.emplace(key * 3, key % 7);
    }
    ASSERT_NO_FATAL_FAILURE(expectSameItems(index, model));
    const Index::Item *first =
        index.findIf([](const Index::Item &item) { return item.value == 5; });
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->key, 15u); // key 5 is the smallest with 5 % 7 == 5
    EXPECT_EQ(index.findIf([](const Index::Item &) { return false; }),
              nullptr);
}

TEST(SeqWindow, MatchesStdMapUnderRandomOperations)
{
    // A retransmission filter's traffic: sequences issued in order,
    // completed out of order, pruned below a rising watermark, plus
    // late duplicates that land below the pruned base.
    sim::Rng rng(11);
    SeqWindow<int> window;
    std::map<uint64_t, int> model;
    uint64_t next = 1000;
    uint64_t watermark = 1000;
    for (int step = 0; step < 100000; ++step) {
        const uint64_t op = rng.uniformInt(0, 99);
        if (op < 40) {
            const uint64_t seq = next++;
            const int value = static_cast<int>(rng.uniformInt(0, 2));
            window.set(seq, value);
            model[seq] = value;
        } else if (op < 50 && next > 0) {
            // Overwrite in place, or re-insert below the watermark.
            const uint64_t back = rng.uniformInt(0, 80);
            const uint64_t seq = next > back ? next - back : 0;
            window.set(seq, 7);
            model[seq] = 7;
        } else if (op < 80) {
            const uint64_t seq = next - rng.uniformInt(0, 64);
            window.erase(seq);
            model.erase(seq);
        } else if (op < 85) {
            watermark = std::max(watermark, next - rng.uniformInt(0, 48));
            window.eraseBelow(watermark);
            model.erase(model.begin(), model.lower_bound(watermark));
        }
        ASSERT_EQ(window.size(), model.size()) << "step " << step;
        for (uint64_t seq = next > 120 ? next - 120 : 0; seq <= next;
             ++seq) {
            const auto expected = model.find(seq);
            const int *found = window.find(seq);
            ASSERT_EQ(found != nullptr, expected != model.end())
                << "step " << step << " seq " << seq;
            if (found != nullptr) {
                ASSERT_EQ(*found, expected->second);
            }
        }
    }
}

TEST(Stripe, ChunksTileAnyRange)
{
    // Seeded ranges over assorted geometries, nearly all unaligned:
    // stepping chunk by chunk must tile [offset, offset+len) with
    // chunks that each lie inside one stripe unit, end at its
    // boundary unless the range ends first, and sit on the child
    // (offset / unit) % width at the same place in its row.
    sim::Rng rng(23);
    for (int trial = 0; trial < 20000; ++trial) {
        const uint64_t unit = 512 * rng.uniformInt(1, 512);
        const size_t width = static_cast<size_t>(rng.uniformInt(1, 9));
        const uint64_t offset = rng.uniformInt(0, 1ull << 36);
        const uint64_t len = rng.uniformInt(1, 4 * unit * width);
        uint64_t done = 0;
        while (done < len) {
            const uint64_t pos = offset + done;
            const StripeChunk chunk =
                stripeChunk(pos, len - done, unit, width);
            ASSERT_GT(chunk.len, 0u);
            ASSERT_LE(done + chunk.len, len);
            ASSERT_EQ(pos / unit, (pos + chunk.len - 1) / unit);
            ASSERT_TRUE(done + chunk.len == len ||
                        (pos + chunk.len) % unit == 0);
            ASSERT_EQ(chunk.child, (pos / unit) % width);
            ASSERT_EQ(chunk.child_offset,
                      pos / unit / width * unit + pos % unit);
            done += chunk.len;
        }
        ASSERT_EQ(done, len);
    }
    // Whole stripe units of the smallest child only.
    EXPECT_EQ(stripeCapacity(10 * 4096 + 100, 4096, 3), 30u * 4096);
}

} // namespace
} // namespace v3sim::util
