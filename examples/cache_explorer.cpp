/**
 * @file
 * Cache explorer: why V3 uses the Multi-Queue replacement policy.
 *
 * A storage-server cache sits *below* the database's buffer pool, so
 * it sees recency-poor, frequency-meaningful traffic. This example
 * replays three access patterns against LRU and MQ caches of equal
 * size and prints the hit ratios; then a cDSA client writes three
 * blocks to a live V3 server and polls for a read's completion.
 *
 *   $ ./examples/cache_explorer
 */

#include <cstdio>

#include "dsa/dsa_client.hh"
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

    std::printf("\nPart 2: a cDSA client against a live V3 "
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
    dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, nic,
                          server.nic().port());

    sim::spawn([](sim::Simulation &s, sim::MemorySpace &mem,
                  dsa::DsaClient &c) -> sim::Task<> {
        if (!co_await c.connect()) {
            std::printf("connect failed\n");
            co_return;
        }
        std::printf("connected: %s volume\n",
                    util::formatSize(c.capacity()).c_str());

        // Three 8K writes, each block a different byte pattern.
        bool wrote = true;
        for (int i = 0; i < 3; ++i) {
            const sim::Addr buffer = mem.allocate(8192);
            mem.fill(buffer, static_cast<uint8_t>(0xA0 + i), 8192);
            if (!co_await c.write(static_cast<uint64_t>(i) * 65536,
                                  8192, buffer))
                wrote = false;
        }
        std::printf("3 writes of 8K: %s\n", wrote ? "ok" : "FAILED");

        // A read in its own activity; the application polls for it.
        bool done = false;
        bool ok = false;
        sim::spawn([](dsa::DsaClient &cl, sim::Addr buffer, bool &d,
                      bool &o) -> sim::Task<> {
            o = co_await cl.read(0, 8192, buffer);
            d = true;
        }(c, mem.allocate(8192), done, ok));
        int polls = 0;
        while (!done) {
            ++polls;
            co_await s.sleep(sim::usecs(10));
        }
        std::printf("read %s after %d polls of 10 us\n",
                    ok ? "completed" : "FAILED", polls);
    }(sim, host.memory(), client));

    sim.run();
    const sim::MetricRegistry &metrics = sim.metrics();
    std::printf("client: %llu I/Os, %llu polled and %llu interrupt "
                "completions\n",
                static_cast<unsigned long long>(client.ioCount()),
                static_cast<unsigned long long>(
                    metrics.findCounter("client.cdsa0.polled_completions")
                        ->value()),
                static_cast<unsigned long long>(
                    metrics.findCounter("client.cdsa0.intr_completions")
                        ->value()));
    std::printf("\nserver cache after the run: %llu resident "
                "blocks, hit ratio %.0f%%\n",
                static_cast<unsigned long long>(
                    server.cache()->residentBlocks()),
                server.cacheHitRatio() * 100);
    return 0;
}
