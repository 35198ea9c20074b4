/**
 * @file
 * End-to-end integration tests for the iSCSI rival transport: an
 * initiator session against a live target over the TCP model. Covers
 * the data round trip, RFC 3720 digest recovery from in-flight
 * damage, the no-silent-corruption guarantee, verify-on-read latent
 * media errors, and the Testbed's Iscsi backend wiring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "iscsi/initiator.hh"
#include "iscsi/target.hh"
#include "net/fabric.hh"
#include "osmodel/node.hh"
#include "scenarios/testbed.hh"
#include "sim/simulation.hh"

namespace v3sim::iscsi
{
namespace
{

using osmodel::Node;
using osmodel::NodeConfig;
using sim::Addr;
using sim::Task;

constexpr uint64_t kIo = 8192;

/** Host + one cacheless target (every read hits the platter, so
 *  verify-on-read is always exercised). */
class IscsiEndToEnd : public ::testing::Test
{
  protected:
    IscsiEndToEnd()
        : sim_(12345),
          fabric_(sim_.queue()),
          host_(sim_, NodeConfig{.name = "db", .cpus = 4})
    {
        TargetConfig target_config;
        target_config.name = "tgt";
        target_config.cache_bytes = 0;
        target_config.disk_count = 1;
        target_ = std::make_unique<Target>(sim_, fabric_,
                                           target_config);

        initiator_ = std::make_unique<Initiator>(
            host_, fabric_, target_->port(), InitiatorConfig{});
        bool ok = false;
        sim::spawn([](Initiator &init, bool &out) -> Task<> {
            out = co_await init.connect();
        }(*initiator_, ok));
        sim_.run();
        EXPECT_TRUE(ok);
        EXPECT_GT(initiator_->capacity(), 0u);
    }

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

    /** Runs one I/O to completion and returns its status. */
    bool
    runIo(bool is_write, uint64_t offset, uint64_t len, Addr buffer)
    {
        bool ok = false;
        sim::spawn([](Initiator &init, bool is_write, uint64_t offset,
                      uint64_t len, Addr buffer, bool &out) -> Task<> {
            out = is_write
                ? co_await init.write(offset, len, buffer)
                : co_await init.read(offset, len, buffer);
        }(*initiator_, is_write, offset, len, buffer, ok));
        sim_.run();
        return ok;
    }

    sim::Simulation sim_;
    net::Fabric fabric_;
    Node host_;
    std::unique_ptr<Target> target_;
    std::unique_ptr<Initiator> initiator_;
};

TEST_F(IscsiEndToEnd, ReadWriteRoundTrip)
{
    const Addr wbuf = patternBuffer(kIo, 3);
    EXPECT_TRUE(runIo(true, 0, kIo, wbuf));
    const Addr rbuf = host_.memory().allocate(kIo);
    EXPECT_TRUE(runIo(false, 0, kIo, rbuf));
    EXPECT_TRUE(checkPattern(rbuf, kIo, 3));
    EXPECT_EQ(target_->writeCount(), 1u);
    EXPECT_EQ(target_->readCount(), 1u);
    EXPECT_EQ(initiator_->errorCount(), 0u);
    EXPECT_GT(initiator_->latency().count(), 0u);
}

TEST_F(IscsiEndToEnd, WrappingRangeReadFails)
{
    // offset + len wraps past 2^64: the target must refuse the range
    // with an error status.
    const Addr buf = host_.memory().allocate(kIo);
    bool done = false;
    bool ok = true;
    sim::spawn([](Initiator &init, Addr b, bool &finished,
                  bool &out) -> Task<> {
        out = co_await init.read(UINT64_MAX - 4095, kIo, b);
        finished = true;
    }(*initiator_, buf, done, ok));
    sim_.runUntil(sim_.now() + sim::secs(2));
    EXPECT_TRUE(done);
    EXPECT_FALSE(ok);
}

TEST_F(IscsiEndToEnd, DigestMismatchRetransmit)
{
    // Damage one data segment of the write command in flight. TCP's
    // modeled Internet checksum misses it (the packet is *delivered*
    // tainted); the target's data digest catches it and answers
    // DigestError, and the initiator retries the whole command with
    // fresh data — the write still lands correctly.
    bool corrupted = false;
    fabric_.setCorruptFilter([&](const net::Packet &packet) {
        if (!corrupted && packet.wire_bytes > 500) {
            corrupted = true;
            return true;
        }
        return false;
    });
    const Addr wbuf = patternBuffer(kIo, 5);
    EXPECT_TRUE(runIo(true, 0, kIo, wbuf));
    EXPECT_TRUE(corrupted);
    EXPECT_GE(initiator_->digestRetryCount(), 1u);
    EXPECT_GE(target_->digestMismatchCount(), 1u);
    EXPECT_EQ(initiator_->errorCount(), 0u);

    fabric_.setCorruptFilter(nullptr);
    const Addr rbuf = host_.memory().allocate(kIo);
    EXPECT_TRUE(runIo(false, 0, kIo, rbuf));
    EXPECT_TRUE(checkPattern(rbuf, kIo, 5));
}

TEST_F(IscsiEndToEnd, ZeroUndetectedCorruption)
{
    // Persistently damage every thirteenth data segment (an 8 KiB
    // I/O is six segments, so the corruption slides across attempts
    // and some retries get through clean). Commands may retry or
    // ultimately fail, but no I/O reported Good may ever carry wrong
    // bytes — that is the end-to-end digest argument.
    uint32_t data_packets = 0;
    fabric_.setCorruptFilter([&](const net::Packet &packet) {
        return packet.wire_bytes > 500 && ++data_packets % 13 == 0;
    });
    int good_reads = 0;
    for (int i = 0; i < 6; ++i) {
        const uint64_t offset = static_cast<uint64_t>(i) * kIo;
        const uint8_t salt = static_cast<uint8_t>(i + 1);
        const Addr wbuf = patternBuffer(kIo, salt);
        if (!runIo(true, offset, kIo, wbuf))
            continue;
        const Addr rbuf = host_.memory().allocate(kIo);
        if (!runIo(false, offset, kIo, rbuf))
            continue;
        ++good_reads;
        EXPECT_TRUE(checkPattern(rbuf, kIo, salt))
            << "silent corruption at offset " << offset;
    }
    EXPECT_GT(good_reads, 0);
    EXPECT_GT(initiator_->digestRetryCount(), 0u);
}

TEST_F(IscsiEndToEnd, LatentMediaError)
{
    // Committed data silently rots on the platter. Verify-on-read
    // catches it at the target, the command fails IntegrityError
    // (definitive — no retry), and the damage never reaches the
    // initiator's buffer as Good data.
    const Addr wbuf = patternBuffer(kIo, 9);
    ASSERT_TRUE(runIo(true, 0, kIo, wbuf));
    target_->volume().disk(0).store().markCorrupt(0, kIo);

    const Addr rbuf = host_.memory().allocate(kIo);
    EXPECT_FALSE(runIo(false, 0, kIo, rbuf));
    EXPECT_GE(target_->integrityErrorCount(), 1u);
    EXPECT_EQ(initiator_->errorCount(), 1u);
    EXPECT_EQ(initiator_->digestRetryCount(), 0u);
}

TEST(IscsiTestbed, TestbedIscsiBackend)
{
    // The Testbed's Iscsi backend: four targets striped behind the
    // initiators, reached through interrupt-driven TCP sessions.
    using scenarios::Backend;
    using scenarios::HostParams;
    using scenarios::StorageParams;
    StorageParams storage = StorageParams::midSize();
    storage.disks_per_node = 2;
    storage.cache_bytes_per_node = 4ull * 1024 * 1024;
    scenarios::Testbed bed(Backend::Iscsi, HostParams::midSize(),
                           storage);
    ASSERT_TRUE(bed.connectAll());
    ASSERT_EQ(bed.nodes().size(), 4u);
    ASSERT_EQ(bed.sessions().size(), 4u);
    EXPECT_TRUE(bed.clients().empty());

    // Exactly one 64 KiB stripe unit: the whole I/O lands on the
    // first target.
    const uint64_t len = 64 * 1024;
    const Addr buffer = bed.host().memory().allocate(len);
    bool ok = false;
    sim::spawn([](dsa::BlockDevice &dev, uint64_t len, Addr buffer,
                  bool &out) -> Task<> {
        out = co_await dev.write(0, len, buffer);
        if (out)
            out = co_await dev.read(0, len, buffer);
    }(bed.device(), len, buffer, ok));
    bed.sim().run();
    EXPECT_TRUE(ok);
    // One write and one read, on a lossless fabric.
    uint64_t ios = 0;
    uint64_t retransmits = 0;
    for (const auto &session : bed.sessions()) {
        ios += session->ioCount();
        retransmits += session->retransmitCount();
    }
    EXPECT_EQ(ios, 2u);
    EXPECT_EQ(retransmits, 0u);
    // The rival's signature: I/O completions arrive by interrupt.
    EXPECT_GT(bed.hostInterrupts(), 0u);
    // The node aggregates read the targets as they read V3 servers.
    EXPECT_EQ(bed.caches().size(), 4u);
    EXPECT_GT(bed.diskUtilization(), 0.0);
    EXPECT_GE(bed.serverCacheHitRatio(), 0.0);
    EXPECT_LE(bed.serverCacheHitRatio(), 1.0);
}

} // namespace
} // namespace v3sim::iscsi
