/**
 * @file
 * Property-based tests: invariants that must hold across parameter
 * sweeps rather than single examples — determinism by seed, data
 * round-trip integrity over (backend x size x alignment), statistics
 * conservation, and accounting tiling.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dsa/dsa_client.hh"
#include "scenarios/microbench.hh"
#include "single_node_rig.hh"

namespace v3sim
{
namespace
{

using scenarios::Backend;

/** (backend, request size) sweep for data-integrity round trips. */
class RoundTripProperty
    : public ::testing::TestWithParam<
          std::tuple<dsa::DsaImpl, uint64_t>>
{};

TEST_P(RoundTripProperty, DataSurvivesWriteReadCycle)
{
    const auto [impl, size] = GetParam();

    test::SingleNodeRig rig(
        {.seed = 1234 + size,
         .server = test::serverWithCache(8 * util::kMiB, 3)});
    auto &[sim, fabric, host, server, nic] = rig;
    dsa::DsaClient client(impl, host, *nic, server->nic().port());

    const sim::Addr wbuf = host.memory().allocate(size);
    const sim::Addr rbuf = host.memory().allocate(size);
    std::vector<uint8_t> pattern(size);
    for (uint64_t i = 0; i < size; ++i)
        pattern[i] = static_cast<uint8_t>((i * 131 + size) & 0xFF);
    host.memory().write(wbuf, pattern.data(), size);

    bool wrote = false, read = false;
    sim::spawn([](dsa::DsaClient &c, uint64_t n, sim::Addr w,
                  sim::Addr r, bool &wo, bool &ro) -> sim::Task<> {
        co_await c.connect();
        // Offset chosen to cross block and stripe boundaries.
        const uint64_t offset = 8192 * 5 + 512;
        wo = co_await c.write(offset, n, w);
        ro = co_await c.read(offset, n, r);
    }(client, size, wbuf, rbuf, wrote, read));
    sim.run();

    ASSERT_TRUE(wrote);
    ASSERT_TRUE(read);
    std::vector<uint8_t> out(size);
    host.memory().read(rbuf, out.data(), size);
    EXPECT_EQ(out, pattern);
}

INSTANTIATE_TEST_SUITE_P(
    BackendBySize, RoundTripProperty,
    ::testing::Combine(::testing::Values(dsa::DsaImpl::Kdsa,
                                         dsa::DsaImpl::Wdsa,
                                         dsa::DsaImpl::Cdsa),
                       ::testing::Values(512ull, 8192ull, 24576ull,
                                         131072ull)),
    [](const ::testing::TestParamInfo<
        std::tuple<dsa::DsaImpl, uint64_t>> &info) {
        return std::string(dsaImplName(std::get<0>(info.param))) +
               "_" + std::to_string(std::get<1>(info.param));
    });

/** Determinism: identical seeds must give identical simulations. */
TEST(Determinism, SameSeedSameMicroResult)
{
    // Uncached reads: disk head positions and rotational samples
    // depend on the RNG stream, so different seeds almost surely
    // diverge while equal seeds must match exactly.
    auto run_once = [](uint64_t seed) {
        scenarios::MicroRig::Config config;
        config.backend = Backend::Kdsa;
        config.cache_bytes = 0;
        config.seed = seed;
        scenarios::MicroRig rig(config);
        const auto r = rig.measureLatency(8192, true, 30, false);
        return r.mean_us;
    };
    EXPECT_DOUBLE_EQ(run_once(42), run_once(42));
    EXPECT_NE(run_once(42), run_once(43));
}

TEST(Determinism, SameSeedSameEventCount)
{
    auto run_once = [](uint64_t seed) {
        test::SingleNodeRig rig(
            {.seed = seed,
             .server = test::serverWithCache(util::kMiB),
             .host = {.name = "db", .cpus = 2}});
        auto &[sim, fabric, host, server, nic] = rig;
        dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, *nic,
                              server->nic().port());
        const sim::Addr buf = host.memory().allocate(8192);
        sim::spawn([](dsa::DsaClient &c, sim::Addr b,
                      sim::Simulation &s) -> sim::Task<> {
            co_await c.connect();
            sim::Rng rng(s.forkRng());
            for (int i = 0; i < 40; ++i) {
                const uint64_t offset =
                    rng.uniformInt(0, 1000) * 8192;
                if (rng.bernoulli(0.7))
                    co_await c.read(offset, 8192, b);
                else
                    co_await c.write(offset, 8192, b);
            }
        }(client, buf, sim));
        sim.run();
        return sim.queue().firedCount();
    };
    EXPECT_EQ(run_once(7), run_once(7));
}

/** Conservation: fabric bytes, server op counts, cache accounting. */
TEST(Conservation, ServerCountsMatchClientCounts)
{
    test::SingleNodeRig rig(
        {.seed = 5, .server = test::serverWithCache(4 * util::kMiB)});
    auto &[sim, fabric, host, server, nic] = rig;
    dsa::DsaClient client(dsa::DsaImpl::Kdsa, host, *nic,
                          server->nic().port());
    const sim::Addr buf = host.memory().allocate(8192);

    int reads = 0, writes = 0;
    sim::spawn([](dsa::DsaClient &c, sim::Addr b, sim::Simulation &s,
                  int &r_count, int &w_count) -> sim::Task<> {
        co_await c.connect();
        sim::Rng rng(11);
        for (int i = 0; i < 60; ++i) {
            const uint64_t offset = rng.uniformInt(0, 500) * 8192;
            if (rng.bernoulli(0.5)) {
                co_await c.read(offset, 8192, b);
                ++r_count;
            } else {
                co_await c.write(offset, 8192, b);
                ++w_count;
            }
        }
        (void)s;
    }(client, buf, sim, reads, writes));
    sim.run();

    EXPECT_EQ(server->readCount(), static_cast<uint64_t>(reads));
    EXPECT_EQ(server->writeCount(), static_cast<uint64_t>(writes));
    EXPECT_EQ(client.ioCount(),
              static_cast<uint64_t>(reads + writes));
    // No loss on a healthy fabric: nothing dropped, no retransmits.
    EXPECT_EQ(fabric.packetsDropped(), 0u);
    EXPECT_EQ(client.retransmitCount(), 0u);
    // Cache lookups happened for every read block.
    EXPECT_EQ(server->cache()->hits() + server->cache()->misses(),
              static_cast<uint64_t>(reads));
}

/** Registration balance: batched dereg retires every region. */
TEST(Conservation, RegistrationsFullyRetired)
{
    vi::ViCosts costs;
    vi::MemoryRegistry registry(costs, 10);
    dsa::RegCache cache(registry, true, true);
    std::vector<vi::MemHandle> handles;
    for (int i = 0; i < 1000; ++i) {
        auto reg = cache.acquire(0x100000 + i * 0x4000, 8192);
        ASSERT_TRUE(reg);
        handles.push_back(reg->handle);
        // Complete with a lag of 5 I/Os.
        if (handles.size() > 5) {
            cache.release(handles.front());
            handles.erase(handles.begin());
        }
    }
    for (auto &handle : handles)
        cache.release(handle);
    // Everything allocated into full regions retired; 1000 I/Os into
    // regions of 10 = 100 region ops.
    EXPECT_EQ(registry.regionDeregCount(), 100u);
    EXPECT_EQ(registry.liveEntries(), 0u);
}

} // namespace
} // namespace v3sim
