/**
 * @file
 * Integration test for the observability spine: build a MicroRig,
 * run a little traffic, and prove one MetricRegistry snapshot covers
 * the whole stack — client, server, NIC, CPU pool, and disks — and
 * that its JSON export parses; and that gauges whose owners died
 * keep their last readings.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disk/disk.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "scenarios/microbench.hh"
#include "sim/metrics.hh"
#include "util/json.hh"
#include "vi/vi_nic.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

size_t
countWithPrefix(const sim::MetricRegistry::Snapshot &snap,
                const std::string &prefix)
{
    size_t n = 0;
    for (const auto &[path, value] : snap)
        if (path.rfind(prefix, 0) == 0)
            ++n;
    return n;
}

} // namespace

TEST(MetricsExport, MicroRigSnapshotSpansSubsystems)
{
    MicroRig::Config config;
    config.backend = Backend::Kdsa;
    config.disks = 2;
    MicroRig rig(config);
    ASSERT_TRUE(rig.ready());
    rig.measureLatency(8192, true, 5, true);

    const auto snap = rig.sim().metrics().snapshot();

    // One registry, at least five subsystems represented.
    EXPECT_GT(countWithPrefix(snap, "client."), 0u);
    EXPECT_GT(countWithPrefix(snap, "server."), 0u);
    EXPECT_GT(countWithPrefix(snap, "nic."), 0u);
    EXPECT_GT(countWithPrefix(snap, "cpu."), 0u);
    EXPECT_GT(countWithPrefix(snap, "disk."), 0u);

    // The traffic actually showed up in the client path.
    const sim::Counter *ios =
        rig.sim().metrics().findCounter("client.kdsa0.ios");
    ASSERT_NE(ios, nullptr);
    EXPECT_GE(ios->value(), 5u);
    const sim::Histogram *hist = rig.sim().metrics().findHistogram(
        "client.kdsa0.latency_hist_ns");
    ASSERT_NE(hist, nullptr);
    EXPECT_GE(hist->count(), 5u);
}

TEST(MetricsExport, ToJsonParsesAndKeepsPaths)
{
    MicroRig::Config config;
    config.backend = Backend::Cdsa;
    config.disks = 2;
    MicroRig rig(config);
    ASSERT_TRUE(rig.ready());
    rig.measureLatency(4096, true, 3, true);

    const std::string json = rig.sim().metrics().toJson();
    const auto doc = util::JsonValue::parse(json);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    const util::JsonValue *ios = doc->find("client.cdsa0.ios");
    ASSERT_NE(ios, nullptr);
    ASSERT_NE(ios->find("count"), nullptr);
    EXPECT_GE(ios->find("count")->number, 3.0);
    EXPECT_NE(doc->find("sim.time_ns"), nullptr);
}

TEST(MetricsExport, ResetEpochZeroesTheWholeSpine)
{
    MicroRig::Config config;
    config.backend = Backend::Kdsa;
    config.disks = 2;
    MicroRig rig(config);
    ASSERT_TRUE(rig.ready());
    rig.measureLatency(8192, true, 5, true);

    sim::MetricRegistry &metrics = rig.sim().metrics();
    ASSERT_GT(metrics.findCounter("client.kdsa0.ios")->value(), 0u);
    metrics.resetEpoch();
    EXPECT_EQ(metrics.findCounter("client.kdsa0.ios")->value(), 0u);
    EXPECT_EQ(
        metrics.findHistogram("client.kdsa0.latency_hist_ns")->count(),
        0u);

    // The spine keeps working after the epoch boundary.
    rig.measureLatency(8192, true, 2, true);
    EXPECT_GE(metrics.findCounter("client.kdsa0.ios")->value(), 2u);
}

TEST(MetricsExport, RetiredGaugesKeepTheirLastReadings)
{
    // A NIC and a disk die before the snapshots that read their
    // gauges. Each gauge reports what it read when its owner died,
    // however much later the snapshot, and resetEpoch() no longer
    // runs the dead owners' hooks.
    sim::Simulation sim(3);
    net::Fabric fabric(sim.queue());
    osmodel::Node host(sim, osmodel::NodeConfig{.name = "db", .cpus = 2});
    auto nic = std::make_unique<vi::ViNic>(sim, fabric, host.memory(),
                                           "gone");
    auto spindle = std::make_unique<disk::Disk>(
        sim, disk::DiskSpec::scsi10k(), sim.forkRng(), "gone");
    const sim::Addr buf = host.memory().allocate(8192);
    ASSERT_TRUE(nic->registry().registerMemory(buf, 8192, false));
    sim::spawn([](disk::Disk &d) -> sim::Task<> {
        co_await d.read(1 << 20, 8192);
    }(*spindle));
    sim.run();
    sim.queue().schedule(sim::msecs(1), [] {});
    sim.run();

    const std::vector<std::string> paths = {
        "nic.gone.mem_registry.registrations",
        "nic.gone.mem_registry.pinned_bytes",
        "disk.gone.utilization",
        "disk.gone.queue_depth",
    };
    const sim::MetricRegistry::Snapshot before = sim.metrics().snapshot();
    EXPECT_EQ(before.at(paths[0]).value, 1.0);
    EXPECT_EQ(before.at(paths[1]).value, 8192.0);
    EXPECT_GT(before.at(paths[2]).value, 0.0);

    nic.reset();
    spindle.reset();
    // Idle time that would pull a live disk's utilization down.
    sim.queue().schedule(sim::msecs(5), [] {});
    sim.run();
    const sim::MetricRegistry::Snapshot first = sim.metrics().snapshot();
    const sim::MetricRegistry::Snapshot second = sim.metrics().snapshot();
    sim.metrics().resetEpoch();
    const sim::MetricRegistry::Snapshot reset = sim.metrics().snapshot();
    for (const std::string &path : paths) {
        EXPECT_EQ(first.at(path).value, before.at(path).value) << path;
        EXPECT_EQ(second.at(path).value, before.at(path).value) << path;
        EXPECT_EQ(reset.at(path).value, before.at(path).value) << path;
    }
}
