/**
 * @file
 * Cache explorer: why V3 uses the Multi-Queue replacement policy.
 *
 * A storage-server cache sits *below* the database's buffer pool, so
 * it sees recency-poor, frequency-meaningful traffic. This example
 * replays three access patterns against LRU and MQ caches of equal
 * size and prints the hit ratios, plus the cDSA API in use for a
 * scatter/gather round trip.
 *
 *   $ ./examples/cache_explorer
 */

#include <cstdio>

#include "dsa/cdsa_api.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "storage/mq_cache.hh"
#include "storage/v3_server.hh"
#include "util/table.hh"

using namespace v3sim;

namespace
{

/** Touch helper shared by the policy comparison. */
bool
touch(storage::BlockCache &cache, uint64_t block)
{
    const storage::CacheKey key{0, block};
    if (cache.lookupAndPin(key)) {
        cache.unpin(key);
        return true;
    }
    if (cache.insertAndPin(key))
        cache.unpin(key);
    return false;
}

void
comparePolicies()
{
    constexpr uint64_t kCapacity = 512;
    util::TextTable table({"pattern", "LRU hit%", "MQ hit%"});

    struct Pattern
    {
        const char *name;
        // Returns the next block id.
        uint64_t (*next)(sim::Rng &, int);
    };
    const Pattern patterns[] = {
        {"uniform (no skew)",
         [](sim::Rng &rng, int) {
             return rng.uniformInt(0, 8191);
         }},
        {"hot/cold 50/50 over 16x cache",
         [](sim::Rng &rng, int) {
             return rng.bernoulli(0.5)
                        ? rng.uniformInt(0, kCapacity / 2)
                        : kCapacity + rng.uniformInt(0, 8191);
         }},
        {"hot set + periodic scans",
         [](sim::Rng &rng, int i) -> uint64_t {
             if (i % 4096 < 1024) // a scan phase
                 return 100000 +
                        static_cast<uint64_t>(i % 4096);
             return rng.bernoulli(0.7)
                        ? rng.uniformInt(0, kCapacity / 2)
                        : kCapacity + rng.uniformInt(0, 4095);
         }},
    };

    for (const Pattern &pattern : patterns) {
        sim::MemorySpace mem_a, mem_b;
        storage::LruCache lru(mem_a, 8192, kCapacity);
        storage::MqCache mq(mem_b, 8192, kCapacity);
        sim::Rng rng(17);
        for (int i = 0; i < 500000; ++i) {
            const uint64_t block = pattern.next(rng, i);
            touch(lru, block);
            touch(mq, block);
        }
        table.addRow({pattern.name,
                      util::TextTable::num(lru.hitRatio() * 100, 1),
                      util::TextTable::num(mq.hitRatio() * 100, 1)});
    }
    table.print();
}

} // namespace

int
main()
{
    std::printf("Part 1: LRU vs Multi-Queue on second-level access "
                "patterns (512-block caches)\n\n");
    comparePolicies();

    std::printf("\nPart 2: the cDSA API driving a live V3 "
                "server (MQ cache)\n\n");

    sim::Simulation sim(3);
    net::Fabric fabric(sim.queue());
    osmodel::Node host(sim, osmodel::NodeConfig{.name = "db",
                                                .cpus = 4});
    vi::ViNic nic(sim, fabric, host.memory(), "db.nic");

    storage::V3ServerConfig server_config;
    server_config.cache_bytes = 16 * util::kMiB;
    server_config.cache_policy = storage::CachePolicy::Mq;
    server_config.disk_count = 2;
    storage::V3Server server(sim, fabric, server_config);

    sim::spawn([](sim::Simulation &s, osmodel::Node &h,
                  vi::ViNic &n, net::PortId port) -> sim::Task<> {
        auto api = co_await dsa::CdsaApi::open(h, n, port);
        if (!api) {
            std::printf("open failed\n");
            co_return;
        }
        const auto info = api->volumeInfo();
        std::printf("open: %s volume, block size %u\n",
                    util::formatSize(info.capacity_bytes).c_str(),
                    info.block_size);

        // Scatter a pattern across three segments, gather it back.
        std::vector<dsa::CdsaSegment> segments;
        for (int i = 0; i < 3; ++i) {
            dsa::CdsaSegment segment;
            segment.offset = static_cast<uint64_t>(i) * 65536;
            segment.len = 8192;
            segment.buffer = h.memory().allocate(8192);
            h.memory().fill(segment.buffer,
                            static_cast<uint8_t>(0xA0 + i), 8192);
            segments.push_back(segment);
        }
        const bool wrote = co_await api->writeScatter(segments);
        std::printf("writeScatter of 3 segments: %s\n",
                    wrote ? "ok" : "FAILED");

        // Async reads polled through the completion flags.
        auto handle =
            api->readAsync(0, 8192, h.memory().allocate(8192));
        int polls = 0;
        while (!api->poll(handle)) {
            ++polls;
            co_await s.sleep(sim::usecs(10));
        }
        std::printf("readAsync completed after %d polls "
                    "(no interrupts: %llu taken)\n",
                    polls,
                    static_cast<unsigned long long>(
                        api->stats().interrupt_completions));

        const auto stats = api->stats();
        std::printf("stats: %llu I/Os, %llu polled completions\n",
                    static_cast<unsigned long long>(stats.ios),
                    static_cast<unsigned long long>(
                        stats.polled_completions));
        api->close();
    }(sim, host, nic, server.nic().port()));

    sim.run();
    std::printf("\nserver cache after the run: %llu resident "
                "blocks, hit ratio %.0f%%\n",
                static_cast<unsigned long long>(
                    server.cache()->residentBlocks()),
                server.cacheHitRatio() * 100);
    return 0;
}
