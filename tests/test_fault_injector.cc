/**
 * @file
 * Tests for structured fault injection and DSA's resilience to each
 * pattern: counted drops, random loss, blackout windows, and
 * scheduled connection breaks — all while a workload keeps running
 * and every I/O eventually completes correctly.
 */

#include <gtest/gtest.h>

#include "dsa/dsa_client.hh"
#include "single_node_rig.hh"
#include "vi/fault_injector.hh"

namespace v3sim::vi
{
namespace
{

using sim::Addr;
using sim::Task;

class FaultInjectorTest : public ::testing::Test, public test::SingleNodeRig
{
  protected:
    FaultInjectorTest()
        : SingleNodeRig({.seed = 123,
                         .server = test::serverWithCache(4 * util::kMiB)}),
          injector_(sim_, fabric_)
    {
        dsa::DsaConfig dsa_config;
        dsa_config.retransmit_timeout = sim::msecs(8);
        dsa_config.max_retransmits = 3;
        dsa_config.reconnect_delay = sim::msecs(2);
        client_ = std::make_unique<dsa::DsaClient>(
            dsa::DsaImpl::Cdsa, host_, *nic_, server_->nic().port(),
            dsa_config);
        bool ok = false;
        sim::spawn([](dsa::DsaClient &c, bool &out) -> Task<> {
            out = co_await c.connect();
        }(*client_, ok));
        sim_.run();
        EXPECT_TRUE(ok);
        buffer_ = host_.memory().allocate(8192);
    }

    /** Runs @p count sequential I/Os; returns how many succeeded. */
    int
    runIos(int count)
    {
        int succeeded = 0;
        sim::spawn([](sim::Simulation &s, dsa::DsaClient &c, Addr buf,
                      int n, int &out) -> Task<> {
            for (int i = 0; i < n; ++i) {
                const uint64_t offset =
                    static_cast<uint64_t>(i % 16) * 8192;
                const bool ok =
                    i % 3 == 0
                        ? co_await c.write(offset, 8192, buf)
                        : co_await c.read(offset, 8192, buf);
                if (ok)
                    ++out;
                co_await s.sleep(sim::usecs(500));
            }
        }(sim_, *client_, buffer_, count, succeeded));
        sim_.run();
        return succeeded;
    }

    FaultInjector injector_;
    std::unique_ptr<dsa::DsaClient> client_;
    Addr buffer_ = sim::kNullAddr;
};

TEST_F(FaultInjectorTest, CountedDropsAreRecovered)
{
    injector_.dropNext(4);
    EXPECT_EQ(runIos(30), 30);
    EXPECT_EQ(injector_.droppedCount(), 4u);
    EXPECT_GE(client_->retransmitCount(), 1u);
}

TEST_F(FaultInjectorTest, DirectionalDropOnlyHitsTarget)
{
    // Drop only server-bound packets; server->client traffic flows.
    injector_.dropNext(2, server_->nic().port());
    EXPECT_EQ(runIos(20), 20);
    EXPECT_EQ(injector_.droppedCount(), 2u);
}

TEST_F(FaultInjectorTest, RandomLossSustained)
{
    injector_.setLossRate(0.02);
    const int ok = runIos(60);
    injector_.clear();
    EXPECT_EQ(ok, 60);
    EXPECT_GT(injector_.droppedCount(), 0u);
    EXPECT_GE(client_->retransmitCount(), 1u);
}

TEST_F(FaultInjectorTest, BlackoutWindowThenRecovery)
{
    // Nothing gets through for 20 ms in the middle of the run.
    injector_.blackout(sim_.now() + sim::msecs(5),
                       sim_.now() + sim::msecs(25));
    EXPECT_EQ(runIos(40), 40);
    EXPECT_GT(injector_.droppedCount(), 0u);
}

TEST_F(FaultInjectorTest, ScheduledBreakTriggersReconnect)
{
    injector_.scheduleBreak(sim_.now() + sim::msecs(3), *nic_, 0);
    EXPECT_EQ(runIos(25), 25);
    EXPECT_EQ(injector_.breakCount(), 1u);
    EXPECT_GE(client_->reconnectCount(), 1u);
}

TEST_F(FaultInjectorTest, ClearStopsInjection)
{
    injector_.setLossRate(1.0);
    injector_.clear();
    EXPECT_EQ(runIos(10), 10);
    EXPECT_EQ(client_->retransmitCount(), 0u);
}

TEST_F(FaultInjectorTest, WritesStayExactlyOnceUnderLoss)
{
    injector_.setLossRate(0.03);
    const int ok = runIos(60);
    injector_.clear();
    EXPECT_EQ(ok, 60);
    // 1/3 of the 60 I/Os are writes; despite retransmissions the
    // server executed each exactly once.
    EXPECT_EQ(server_->writeCount(), 20u);
}

TEST_F(FaultInjectorTest, ClearCancelsScheduled)
{
    // Arm a connection break and a whole node outage in the near
    // future, then clear() before any of them fire: the run must be
    // completely fault-free, with no crash, restart, break or
    // reconnect ever happening.
    injector_.scheduleBreak(sim_.now() + sim::msecs(2), *nic_, 0);
    injector_.scheduleNodeOutage(sim_.now() + sim::msecs(4),
                                 sim_.now() + sim::msecs(8),
                                 *server_);
    injector_.clear();
    EXPECT_EQ(runIos(20), 20);
    EXPECT_EQ(injector_.breakCount(), 0u);
    EXPECT_EQ(injector_.nodeCrashCount(), 0u);
    EXPECT_EQ(injector_.nodeRestartCount(), 0u);
    EXPECT_EQ(server_->crashCount(), 0u);
    EXPECT_EQ(server_->restartCount(), 0u);
    EXPECT_EQ(client_->reconnectCount(), 0u);
    EXPECT_EQ(client_->retransmitCount(), 0u);
}

TEST_F(FaultInjectorTest, CorruptedPacketsRecoveredByDigests)
{
    // Corruption delivers the packet (the link CRC "passed"); only
    // the end-to-end digest/taint machinery can tell, and recovery
    // is by request-level retransmission, exactly as for loss.
    injector_.corruptNext(4);
    EXPECT_EQ(runIos(30), 30);
    EXPECT_EQ(injector_.corruptedCount(), 4u);
    EXPECT_EQ(injector_.droppedCount(), 0u);
    EXPECT_GE(client_->retransmitCount(), 1u);
}

TEST_F(FaultInjectorTest, NodeOutageRiddenThroughByReconnect)
{
    // Crash the node for 35 ms mid-run. The client exhausts
    // retransmissions (~24 ms), fails connection attempts against
    // the down port, and reconnects once the node restarts — without
    // the generous default attempt budget running out, so the
    // workload rides through the outage.
    injector_.scheduleNodeOutage(sim_.now() + sim::msecs(5),
                                 sim_.now() + sim::msecs(40),
                                 *server_);
    EXPECT_EQ(runIos(60), 60);
    EXPECT_EQ(injector_.nodeCrashCount(), 1u);
    EXPECT_EQ(injector_.nodeRestartCount(), 1u);
    EXPECT_EQ(server_->crashCount(), 1u);
    EXPECT_EQ(server_->restartCount(), 1u);
    EXPECT_GE(client_->reconnectCount(), 1u);
}

TEST_F(FaultInjectorTest, CrashedNodeRefusesNewConnections)
{
    server_->crash();
    dsa::DsaConfig impatient;
    impatient.connect_timeout = sim::msecs(5);
    auto nic2 = std::make_unique<ViNic>(sim_, fabric_,
                                        host_.memory(), "nic2");
    auto client2 = std::make_unique<dsa::DsaClient>(
        dsa::DsaImpl::Cdsa, host_, *nic2, server_->nic().port(),
        impatient);
    bool ok = true;
    sim::spawn([](dsa::DsaClient &c, bool &out) -> Task<> {
        out = co_await c.connect();
    }(*client2, ok));
    sim_.run();
    EXPECT_FALSE(ok);

    server_->restart();
    sim::spawn([](dsa::DsaClient &c, bool &out) -> Task<> {
        out = co_await c.revive();
    }(*client2, ok));
    sim_.run();
    EXPECT_TRUE(ok);
}

TEST_F(FaultInjectorTest, DuplicateResponsesAfterRetransmissionIgnored)
{
    // A client whose retransmit timer is shorter than a disk write:
    // the server answers the original *and* dedup-answers the
    // retransmission, so duplicate responses reach the client. Each
    // I/O must complete exactly once (a double completion would
    // assert), and the dedup filter keeps every write exactly-once.
    dsa::DsaConfig eager;
    eager.retransmit_timeout = sim::msecs(2);
    eager.max_retransmits = 12; // patient enough to never reconnect
    auto nic2 = std::make_unique<ViNic>(sim_, fabric_,
                                        host_.memory(), "nic2");
    auto client2 = std::make_unique<dsa::DsaClient>(
        dsa::DsaImpl::Cdsa, host_, *nic2, server_->nic().port(),
        eager);
    bool connected = false;
    sim::spawn([](dsa::DsaClient &c, bool &out) -> Task<> {
        out = co_await c.connect();
    }(*client2, connected));
    sim_.run();
    ASSERT_TRUE(connected);

    const uint64_t writes_before = server_->writeCount();
    int succeeded = 0;
    sim::spawn([](sim::Simulation &s, dsa::DsaClient &c, Addr buf,
                  int &out) -> Task<> {
        for (int i = 0; i < 30; ++i) {
            const uint64_t offset =
                static_cast<uint64_t>(i % 16) * 8192;
            const bool ok =
                i % 3 == 0 ? co_await c.write(offset, 8192, buf)
                           : co_await c.read(offset, 8192, buf);
            if (ok)
                ++out;
            co_await s.sleep(sim::usecs(500));
        }
    }(sim_, *client2, buffer_, succeeded));
    sim_.run();

    EXPECT_EQ(succeeded, 30);
    EXPECT_GE(client2->retransmitCount(), 1u);
    EXPECT_GE(server_->retransmitHits(), 1u);
    EXPECT_EQ(server_->writeCount() - writes_before, 10u);
    EXPECT_EQ(client2->reconnectCount(), 0u);
}

/** Builds a full stack, runs a workload through a scripted node
 *  outage, and returns the final metrics snapshot. */
std::string
runScriptedOutage(uint64_t seed)
{
    test::SingleNodeRig rig(
        {.seed = seed, .server = test::serverWithCache(4 * util::kMiB)});
    auto &[sim, fabric, host, server, nic] = rig;
    FaultInjector injector(sim, fabric);
    dsa::DsaConfig dsa_config;
    dsa_config.retransmit_timeout = sim::msecs(8);
    dsa_config.max_retransmits = 3;
    dsa_config.reconnect_delay = sim::msecs(2);
    dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, *nic,
                          server->nic().port(), dsa_config);
    injector.setLossRate(0.01);
    injector.scheduleNodeOutage(sim::msecs(10), sim::msecs(45),
                                *server);
    const sim::Addr buffer = host.memory().allocate(8192);
    sim::spawn([](sim::Simulation &s, dsa::DsaClient &c,
                  sim::Addr buf) -> Task<> {
        if (!co_await c.connect())
            co_return;
        for (int i = 0; i < 50; ++i) {
            const uint64_t offset =
                static_cast<uint64_t>(i % 16) * 8192;
            if (i % 3 == 0)
                co_await c.write(offset, 8192, buf);
            else
                co_await c.read(offset, 8192, buf);
            co_await s.sleep(sim::usecs(500));
        }
    }(sim, client, buffer));
    sim.run();
    return sim.metrics().toJson();
}

TEST(FaultInjectorDeterminism, SameSeedSameScheduleSameMetrics)
{
    // Two identical runs — same seed, same node-fault schedule, same
    // loss rate — must produce byte-identical metric snapshots: the
    // failure machinery introduces no hidden nondeterminism.
    const std::string a = runScriptedOutage(202);
    const std::string b = runScriptedOutage(202);
    EXPECT_EQ(a, b);

    // A different seed shifts the random loss, so the snapshots
    // should differ (guards against toJson() ignoring the run).
    const std::string c = runScriptedOutage(203);
    EXPECT_NE(a, c);
}

/**
 * Builds a full stack and runs a fixed workload with wire corruption
 * at @p corrupt_rate plus one cold latent sector error, returning the
 * final metrics snapshot. With @p arm_then_clear, the run is instead
 * fault-free but a corruption rule is set and cleared first — which
 * must leave the run byte-identical to one that never armed it.
 */
std::string
runScriptedCorruption(uint64_t seed, double corrupt_rate,
                      bool arm_then_clear = false)
{
    test::SingleNodeRig rig(
        {.seed = seed, .server = test::serverWithCache(4 * util::kMiB)});
    auto &[sim, fabric, host, server, nic] = rig;
    FaultInjector injector(sim, fabric);
    dsa::DsaConfig dsa_config;
    dsa_config.retransmit_timeout = sim::msecs(8);
    dsa_config.max_retransmits = 3;
    dsa_config.reconnect_delay = sim::msecs(2);
    dsa::DsaClient client(dsa::DsaImpl::Cdsa, host, *nic,
                          server->nic().port(), dsa_config);
    if (arm_then_clear) {
        // Fork the lazy corruption RNG, then fully disarm it.
        injector.setCorruptRate(0.5);
        injector.corruptNext(3);
        injector.clear();
    } else if (corrupt_rate > 0.0) {
        injector.setCorruptRate(corrupt_rate);
        // Cold latent damage outside the workload's footprint: the
        // injection itself must be deterministic and inert.
        injector.injectLatentError(server->volume().disk(0), 128 * 1024,
                                   8192);
    }
    const sim::Addr buffer = host.memory().allocate(8192);
    sim::spawn([](sim::Simulation &s, dsa::DsaClient &c,
                  sim::Addr buf) -> Task<> {
        if (!co_await c.connect())
            co_return;
        for (int i = 0; i < 50; ++i) {
            const uint64_t offset =
                static_cast<uint64_t>(i % 16) * 8192;
            if (i % 3 == 0)
                co_await c.write(offset, 8192, buf);
            else
                co_await c.read(offset, 8192, buf);
            co_await s.sleep(sim::usecs(500));
        }
    }(sim, client, buffer));
    sim.run();
    return sim.metrics().toJson();
}

TEST(FaultInjectorDeterminism, SameSeedSameCorruptionSameMetrics)
{
    // The corruption process (its own lazily forked RNG stream) must
    // be as reproducible as the loss process: identical seeds give
    // byte-identical metrics, different seeds corrupt differently.
    const std::string a = runScriptedCorruption(31, 0.05);
    const std::string b = runScriptedCorruption(31, 0.05);
    EXPECT_EQ(a, b);

    const std::string c = runScriptedCorruption(32, 0.05);
    EXPECT_NE(a, c);
}

TEST(FaultInjectorDeterminism, ClearedCorruptionRuleDoesNotPerturb)
{
    // Arming a corruption rule forks the injector's corruption RNG;
    // clearing it before any packet flows must leave the run
    // indistinguishable from one where the rule never existed — the
    // fork draws from no stream any other component uses.
    const std::string pristine = runScriptedCorruption(31, 0.0);
    const std::string armed_cleared =
        runScriptedCorruption(31, 0.0, /*arm_then_clear=*/true);
    EXPECT_EQ(pristine, armed_cleared);
}

} // namespace
} // namespace v3sim::vi
