/**
 * @file
 * End-to-end integration tests: DSA client (all three
 * implementations) against a live V3 server over the VI fabric.
 * Covers connection setup, data integrity through cache and disks,
 * flow control, retransmission, reconnection, and the qualitative
 * latency ordering the paper reports.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsa/dsa_client.hh"
#include "dsa/local_backend.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "storage/v3_server.hh"

namespace v3sim::dsa
{
namespace
{

using osmodel::Node;
using osmodel::NodeConfig;
using sim::Addr;
using sim::Task;
using sim::Tick;
using sim::usecs;

/** Client host + V3 server with a striped 4-disk volume. */
class EndToEnd : public ::testing::TestWithParam<DsaImpl>
{
  protected:
    EndToEnd()
        : sim_(12345),
          fabric_(sim_.queue()),
          host_(sim_, NodeConfig{.name = "db", .cpus = 4})
    {
        storage::V3ServerConfig server_config;
        server_config.name = "v3";
        server_config.cache_bytes = 4ull * 1024 * 1024;
        server_ = std::make_unique<storage::V3Server>(sim_, fabric_,
                                                      server_config);
        auto disks = server_->diskManager().addDisks(
            disk::DiskSpec::scsi10k(), "v3.d", 4);
        volume_ = server_->volumeManager().addStripedVolume(
            disks, 64 * 1024);
        server_->start();

        nic_ = std::make_unique<vi::ViNic>(sim_, fabric_,
                                           host_.memory(), "db.nic");
    }

    std::unique_ptr<DsaClient>
    makeClient(DsaImpl impl, DsaConfig config = {})
    {
        auto client = std::make_unique<DsaClient>(
            impl, host_, *nic_, server_->nic().port(), volume_,
            config);
        bool ok = false;
        sim::spawn([](DsaClient &c, bool &out) -> Task<> {
            out = co_await c.connect();
        }(*client, ok));
        sim_.run();
        EXPECT_TRUE(ok);
        return client;
    }

    /** Allocates an app buffer filled with a pattern. */
    Addr
    patternBuffer(uint64_t len, uint8_t salt)
    {
        const Addr buffer = host_.memory().allocate(len);
        std::vector<uint8_t> data(len);
        for (uint64_t i = 0; i < len; ++i)
            data[i] = static_cast<uint8_t>((i * 7 + salt) & 0xFF);
        host_.memory().write(buffer, data.data(), len);
        return buffer;
    }

    bool
    checkPattern(Addr buffer, uint64_t len, uint8_t salt)
    {
        std::vector<uint8_t> data(len);
        host_.memory().read(buffer, data.data(), len);
        for (uint64_t i = 0; i < len; ++i) {
            if (data[i] != static_cast<uint8_t>((i * 7 + salt) & 0xFF))
                return false;
        }
        return true;
    }

    sim::Simulation sim_;
    net::Fabric fabric_;
    Node host_;
    std::unique_ptr<storage::V3Server> server_;
    uint32_t volume_ = 0;
    std::unique_ptr<vi::ViNic> nic_;
};

TEST_P(EndToEnd, ConnectAndHello)
{
    auto client = makeClient(GetParam());
    EXPECT_TRUE(client->connected());
    EXPECT_GT(client->capacity(), 0u);
}

TEST_P(EndToEnd, WriteThenReadBack8K)
{
    auto client = makeClient(GetParam());
    const Addr wbuf = patternBuffer(8192, 3);
    const Addr rbuf = host_.memory().allocate(8192);

    bool wrote = false, read = false;
    sim::spawn([](DsaClient &c, Addr w, Addr r, bool &wo,
                  bool &ro) -> Task<> {
        wo = co_await c.write(16384, 8192, w);
        ro = co_await c.read(16384, 8192, r);
    }(*client, wbuf, rbuf, wrote, read));
    sim_.run();

    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
    EXPECT_TRUE(checkPattern(rbuf, 8192, 3));
    EXPECT_EQ(client->ioCount(), 2u);
    EXPECT_EQ(client->retransmitCount(), 0u);
}

TEST_P(EndToEnd, LargeTransferRoundTrip)
{
    auto client = makeClient(GetParam());
    const uint64_t len = 128 * 1024;
    const Addr wbuf = patternBuffer(len, 9);
    const Addr rbuf = host_.memory().allocate(len);

    bool wrote = false, read = false;
    sim::spawn([](DsaClient &c, Addr w, Addr r, uint64_t n, bool &wo,
                  bool &ro) -> Task<> {
        wo = co_await c.write(1024 * 1024, n, w);
        ro = co_await c.read(1024 * 1024, n, r);
    }(*client, wbuf, rbuf, len, wrote, read));
    sim_.run();

    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
    EXPECT_TRUE(checkPattern(rbuf, len, 9));
}

TEST_P(EndToEnd, DataSurvivesCacheEviction)
{
    // Write a block, then flood the (4 MB) cache with other blocks,
    // then read the original back: it must come from disk intact.
    auto client = makeClient(GetParam());
    const Addr wbuf = patternBuffer(8192, 7);
    const Addr rbuf = host_.memory().allocate(8192);
    const Addr flood = host_.memory().allocate(8192);

    bool ok = true;
    sim::spawn([](DsaClient &c, Addr w, Addr f, Addr r,
                  bool &result) -> Task<> {
        result = co_await c.write(0, 8192, w) && result;
        for (int i = 1; i <= 600; ++i) {
            result = co_await c.read(
                         static_cast<uint64_t>(i) * 8192, 8192, f) &&
                     result;
        }
        result = co_await c.read(0, 8192, r) && result;
    }(*client, wbuf, flood, rbuf, ok));
    sim_.run();

    EXPECT_TRUE(ok);
    EXPECT_TRUE(checkPattern(rbuf, 8192, 7));
}

TEST_P(EndToEnd, ConcurrentWorkersNoOverrun)
{
    // More concurrent requests than credits: flow control must queue
    // them client-side; the server must never see a receive overrun.
    DsaConfig config;
    config.max_outstanding = 8;
    auto client = makeClient(GetParam(), config);
    const Addr buf = host_.memory().allocate(8192);

    int done = 0;
    for (int w = 0; w < 32; ++w) {
        sim::spawn([](DsaClient &c, Addr b, int id, int &count)
                       -> Task<> {
            for (int i = 0; i < 4; ++i) {
                co_await c.read(
                    static_cast<uint64_t>(id * 4 + i) * 8192, 8192,
                    b);
            }
            ++count;
        }(*client, buf, w, done));
    }
    sim_.run();

    EXPECT_EQ(done, 32);
    EXPECT_EQ(server_->nic().recvOverruns(), 0u);
    EXPECT_EQ(client->ioCount(), 128u);
}

TEST_P(EndToEnd, OutOfRangeReadFails)
{
    auto client = makeClient(GetParam());
    const Addr buf = host_.memory().allocate(8192);
    bool ok = true;
    sim::spawn([](DsaClient &c, Addr b, bool &out) -> Task<> {
        out = co_await c.read(c.capacity() - 4096, 8192, b);
    }(*client, buf, ok));
    sim_.run();
    EXPECT_FALSE(ok);
}

TEST_P(EndToEnd, RetransmissionRecoversLostRequest)
{
    DsaConfig config;
    config.retransmit_timeout = sim::msecs(5);
    auto client = makeClient(GetParam(), config);
    const Addr buf = host_.memory().allocate(8192);

    // Drop exactly one client->server packet, then heal.
    int drops_left = 1;
    fabric_.setDropFilter([&](const net::Packet &packet) {
        if (drops_left > 0 && packet.dst == server_->nic().port()) {
            --drops_left;
            return true;
        }
        return false;
    });

    bool ok = false;
    sim::spawn([](DsaClient &c, Addr b, bool &out) -> Task<> {
        out = co_await c.read(8192, 8192, b);
    }(*client, buf, ok));
    sim_.run();

    EXPECT_TRUE(ok);
    EXPECT_GE(client->retransmitCount(), 1u);
}

TEST_P(EndToEnd, WriteRetransmissionIsExactlyOnce)
{
    // Drop the server's completion so the client retransmits a write
    // the server already executed: the dedup filter must answer from
    // memory rather than re-running it.
    DsaConfig config;
    config.retransmit_timeout = sim::msecs(5);
    auto client = makeClient(GetParam(), config);
    const Addr buf = patternBuffer(8192, 1);

    int drops_left = 1;
    fabric_.setDropFilter([&](const net::Packet &packet) {
        if (drops_left > 0 && packet.src == server_->nic().port()) {
            --drops_left;
            return true;
        }
        return false;
    });

    bool ok = false;
    sim::spawn([](DsaClient &c, Addr b, bool &out) -> Task<> {
        out = co_await c.write(32768, 8192, b);
    }(*client, buf, ok));
    sim_.run();

    EXPECT_TRUE(ok);
    EXPECT_GE(client->retransmitCount(), 1u);
    EXPECT_GE(server_->retransmitHits(), 1u);
    EXPECT_EQ(server_->writeCount(), 1u); // executed exactly once
}

TEST_P(EndToEnd, ReconnectionReplaysOutstandingIo)
{
    DsaConfig config;
    config.retransmit_timeout = sim::msecs(5);
    config.max_retransmits = 1;
    config.reconnect_delay = sim::msecs(1);
    auto client = makeClient(GetParam(), config);
    const Addr buf = host_.memory().allocate(8192);

    // Sever the connection silently mid-run (no notification), as a
    // NIC/link failure would.
    sim_.queue().schedule(usecs(10), [&] {
        nic_->breakConnection(*nic_->endpoint(0));
    });

    bool ok = false;
    sim::spawn([](DsaClient &c, Addr b, bool &out) -> Task<> {
        out = co_await c.read(8192, 8192, b);
    }(*client, buf, ok));
    sim_.run();

    EXPECT_TRUE(ok);
    EXPECT_GE(client->reconnectCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllImpls, EndToEnd,
    ::testing::Values(DsaImpl::Kdsa, DsaImpl::Wdsa, DsaImpl::Cdsa),
    [](const ::testing::TestParamInfo<DsaImpl> &info) {
        return dsaImplName(info.param);
    });

TEST(DsaComparison, LatencyOrderingMatchesPaper)
{
    // Section 5.1: cDSA has the lowest latency, kDSA next, wDSA the
    // highest (single outstanding 8K cached read).
    auto measure = [](DsaImpl impl) {
        sim::Simulation sim(7);
        net::Fabric fabric(sim.queue());
        Node host(sim, NodeConfig{.name = "db", .cpus = 4});

        storage::V3ServerConfig server_config;
        server_config.cache_bytes = 16ull * 1024 * 1024;
        storage::V3Server server(sim, fabric, server_config);
        auto disks = server.diskManager().addDisks(
            disk::DiskSpec::scsi10k(), "d", 2);
        const uint32_t volume =
            server.volumeManager().addStripedVolume(disks, 64 * 1024);
        server.start();

        vi::ViNic nic(sim, fabric, host.memory(), "db.nic");
        DsaClient client(impl, host, nic, server.nic().port(),
                         volume);
        const Addr buf = host.memory().allocate(8192);

        sim::spawn([](sim::Simulation &s, DsaClient &c, Addr b) -> Task<> {
            co_await c.connect();
            // Warm the cache, then measure repeated cached reads.
            co_await c.read(0, 8192, b);
            s.metrics().resetEpoch();
            for (int i = 0; i < 50; ++i)
                co_await c.read(0, 8192, b);
        }(sim, client, buf));
        sim.run();
        EXPECT_EQ(client.ioCount(), 50u);
        return client.latency().mean();
    };

    const double cdsa = measure(DsaImpl::Cdsa);
    const double kdsa = measure(DsaImpl::Kdsa);
    const double wdsa = measure(DsaImpl::Wdsa);
    EXPECT_LT(cdsa, kdsa);
    EXPECT_LT(kdsa, wdsa);
    // Paper: V3 adds ~15-50us over raw VI; total ~100-250us at 8K.
    EXPECT_GT(cdsa, usecs(50));
    EXPECT_LT(wdsa, usecs(400));
}

TEST(LocalBackendTest, KernelPathRoundTrip)
{
    sim::Simulation sim(3);
    Node host(sim, NodeConfig{.name = "db", .cpus = 4});
    disk::Disk disk(sim, disk::DiskSpec::scsi10k(), sim.forkRng(),
                    "local.d0");
    disk::SingleDiskVolume volume(disk);
    LocalBackend local(host, volume);

    const Addr wbuf = host.memory().allocate(8192);
    const Addr rbuf = host.memory().allocate(8192);
    std::vector<uint8_t> pattern(8192, 0x5A);
    host.memory().write(wbuf, pattern.data(), pattern.size());

    bool wrote = false, read = false;
    sim::spawn([](LocalBackend &dev, Addr w, Addr r, bool &wo,
                  bool &ro) -> Task<> {
        wo = co_await dev.write(4096, 8192, w);
        ro = co_await dev.read(4096, 8192, r);
    }(local, wbuf, rbuf, wrote, read));
    sim.run();

    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
    std::vector<uint8_t> out(8192);
    host.memory().read(rbuf, out.data(), out.size());
    EXPECT_EQ(out, pattern);
    EXPECT_EQ(local.ioCount(), 2u);
    EXPECT_GE(local.interruptCount(), 1u);
    // The kernel path charged CPU in Kernel + Lock categories.
    EXPECT_GT(host.cpus().busyTime(osmodel::CpuCat::Kernel), 0);
    EXPECT_GT(host.cpus().busyTime(osmodel::CpuCat::Lock), 0);
}

} // namespace
} // namespace v3sim::dsa
