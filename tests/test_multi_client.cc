/**
 * @file
 * Multi-client tests: several database hosts sharing one V3 node
 * (section 2.1: "Clients connect to V3 storage nodes through the VI
 * interconnect" — a storage node serves many clients), including
 * cross-client data visibility, per-connection flow control, and
 * mixed DSA implementations on one server.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsa/dsa_client.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "sim/simulation.hh"
#include "single_node_rig.hh"
#include "storage/v3_server.hh"

namespace v3sim
{
namespace
{

using sim::Addr;
using sim::Task;

class MultiClientTest : public ::testing::Test
{
  protected:
    MultiClientTest() : sim_(55), fabric_(sim_.queue())
    {
        storage::V3ServerConfig config;
        config.cache_bytes = 4ull * 1024 * 1024;
        config.request_credits = 16;
        config.disk_count = 4;
        server_ = std::make_unique<storage::V3Server>(sim_, fabric_,
                                                      config);
    }

    /** Creates one host + NIC + connected client. */
    dsa::DsaClient &
    addClient(dsa::DsaImpl impl)
    {
        hosts_.push_back(std::make_unique<osmodel::Node>(
            sim_, osmodel::NodeConfig{
                      .name = "db" + std::to_string(hosts_.size()),
                      .cpus = 4}));
        nics_.push_back(std::make_unique<vi::ViNic>(
            sim_, fabric_, hosts_.back()->memory(),
            hosts_.back()->name() + ".nic"));
        clients_.push_back(std::make_unique<dsa::DsaClient>(
            impl, *hosts_.back(), *nics_.back(), server_->nic().port()));
        dsa::DsaClient &client = *clients_.back();
        bool ok = false;
        sim::spawn([](dsa::DsaClient &c, bool &out) -> Task<> {
            out = co_await c.connect();
        }(client, ok));
        sim_.run();
        EXPECT_TRUE(ok);
        return client;
    }

    osmodel::Node &host(size_t i) { return *hosts_[i]; }

    sim::Simulation sim_;
    net::Fabric fabric_;
    std::unique_ptr<storage::V3Server> server_;
    std::vector<std::unique_ptr<osmodel::Node>> hosts_;
    std::vector<std::unique_ptr<vi::ViNic>> nics_;
    std::vector<std::unique_ptr<dsa::DsaClient>> clients_;
};

TEST_F(MultiClientTest, DataWrittenByOneClientVisibleToAnother)
{
    dsa::DsaClient &writer = addClient(dsa::DsaImpl::Cdsa);
    dsa::DsaClient &reader = addClient(dsa::DsaImpl::Kdsa);

    const Addr wbuf = host(0).memory().allocate(8192);
    host(0).memory().fill(wbuf, 0xB7, 8192);
    const Addr rbuf = host(1).memory().allocate(8192);

    bool wrote = false, read = false;
    sim::spawn([](dsa::DsaClient &w, dsa::DsaClient &r, Addr wb,
                  Addr rb, bool &wo, bool &ro) -> Task<> {
        wo = co_await w.write(40960, 8192, wb);
        ro = co_await r.read(40960, 8192, rb);
    }(writer, reader, wbuf, rbuf, wrote, read));
    sim_.run();

    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
    uint8_t byte = 0;
    host(1).memory().read(rbuf, &byte, 1);
    EXPECT_EQ(byte, 0xB7);
    // The reader's read was a server cache hit (the write landed in
    // the shared cache).
    EXPECT_GE(server_->cache()->hits(), 1u);
}

TEST_F(MultiClientTest, ThreeClientsConcurrentMixedTraffic)
{
    dsa::DsaClient &a = addClient(dsa::DsaImpl::Kdsa);
    dsa::DsaClient &b = addClient(dsa::DsaImpl::Wdsa);
    dsa::DsaClient &c = addClient(dsa::DsaImpl::Cdsa);

    int done = 0;
    auto worker = [](dsa::DsaClient &client, osmodel::Node &node,
                     uint64_t base, int &count) -> Task<> {
        const Addr buf = node.memory().allocate(8192);
        for (int i = 0; i < 20; ++i) {
            const uint64_t offset =
                base + static_cast<uint64_t>(i % 8) * 8192;
            if (i % 4 == 0)
                co_await client.write(offset, 8192, buf);
            else
                co_await client.read(offset, 8192, buf);
        }
        ++count;
    };
    sim::spawn(worker(a, host(0), 0, done));
    sim::spawn(worker(b, host(1), 1 << 20, done));
    sim::spawn(worker(c, host(2), 2 << 20, done));
    sim_.run();

    EXPECT_EQ(done, 3);
    EXPECT_EQ(server_->nic().recvOverruns(), 0u);
    EXPECT_EQ(a.ioCount() + b.ioCount() + c.ioCount(), 60u);
    EXPECT_EQ(server_->readCount() + server_->writeCount(), 60u);
}

TEST_F(MultiClientTest, PerConnectionFlowControlIsolated)
{
    // One client floods with more concurrency than its credits; a
    // second client's I/O still completes (server receives are
    // per-connection, so no cross-client overrun or starvation).
    dsa::DsaClient &flooder = addClient(dsa::DsaImpl::Cdsa);
    dsa::DsaClient &victim = addClient(dsa::DsaImpl::Cdsa);

    int flood_done = 0;
    for (int w = 0; w < 48; ++w) {
        sim::spawn([](dsa::DsaClient &c, osmodel::Node &n, int id,
                      int &count) -> Task<> {
            const Addr buf = n.memory().allocate(8192);
            co_await c.read(static_cast<uint64_t>(id) * 8192, 8192,
                            buf);
            ++count;
        }(flooder, host(0), w, flood_done));
    }
    bool victim_ok = false;
    sim::spawn([](dsa::DsaClient &c, osmodel::Node &n,
                  bool &out) -> Task<> {
        const Addr buf = n.memory().allocate(8192);
        out = co_await c.read(0, 8192, buf);
    }(victim, host(1), victim_ok));
    sim_.run();

    EXPECT_EQ(flood_done, 48);
    EXPECT_TRUE(victim_ok);
    EXPECT_EQ(server_->nic().recvOverruns(), 0u);
}

TEST_F(MultiClientTest, ConcurrentSameBlockMissesCoalesce)
{
    dsa::DsaClient &a = addClient(dsa::DsaImpl::Cdsa);
    dsa::DsaClient &b = addClient(dsa::DsaImpl::Cdsa);

    // Both clients read the same cold block simultaneously: the
    // server must fetch it from disk once.
    const Addr buf_a = host(0).memory().allocate(8192);
    const Addr buf_b = host(1).memory().allocate(8192);
    bool ok_a = false, ok_b = false;
    sim::spawn([](dsa::DsaClient &c, Addr buf, bool &out) -> Task<> {
        out = co_await c.read(81920, 8192, buf);
    }(a, buf_a, ok_a));
    sim::spawn([](dsa::DsaClient &c, Addr buf, bool &out) -> Task<> {
        out = co_await c.read(81920, 8192, buf);
    }(b, buf_b, ok_b));
    sim_.run();

    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
    EXPECT_EQ(test::diskOps(*server_), 1u);
}

} // namespace
} // namespace v3sim
