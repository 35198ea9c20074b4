/**
 * @file
 * End-to-end data integrity tests: the CRC32C digest itself, the
 * completion-flag digest packing, and the full detect-and-repair
 * pipeline — wire corruption recovered by retransmission, RDMA/DMA
 * corruption caught by the staging digest, latent sector errors and
 * torn writes found by verify-on-read and repaired from the mirror
 * peer, and the background scrubber catching rot in cold data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsa/protocol.hh"
#include "scenarios/testbed.hh"
#include "sim/random.hh"
#include "util/crc32c.hh"
#include "util/crc32c_internal.hh"

namespace v3sim::dsa
{
namespace
{

using scenarios::Backend;
using scenarios::HostParams;
using scenarios::StorageParams;
using scenarios::Testbed;
using sim::Addr;
using sim::Task;

TEST(Crc32c, KnownAnswerVectorAndChaining)
{
    // RFC 3720's CRC32C check vector: the iSCSI digest this models.
    const char *vec = "123456789";
    EXPECT_EQ(util::crc32c(vec, 9), 0xE3069283u);

    // Seed chaining digests discontiguous pieces as one stream.
    const uint32_t head = util::crc32c(vec, 4);
    EXPECT_EQ(util::crc32c(vec + 4, 5, head), 0xE3069283u);

    // Zero-length input is the identity on the running digest.
    EXPECT_EQ(util::crc32c(vec, 0), 0u);
    EXPECT_EQ(util::crc32c(vec, 0, head), head);
}

TEST(Crc32c, Rfc3720Vectors)
{
    // RFC 3720 appendix B.4: 32-byte patterns.
    std::vector<uint8_t> bytes(32, 0x00);
    EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x8A9136AAu);
    bytes.assign(32, 0xFF);
    EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x62A8AB43u);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x46DD794Eu);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(31 - i);
    EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x113FDB5Cu);
}

/** Seeded random bytes for the sweeps below. */
std::vector<uint8_t>
randomBytes(size_t len, uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<uint8_t> bytes(len);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    return bytes;
}

TEST(Crc32c, MatchesTablePathAtEveryLengthAndOffset)
{
    // Every length up to 6,400 crosses the 3 x 256 and 3 x 2,048
    // block edges of the three-stream path; the offsets cover every
    // alignment of an 8-byte word.
    constexpr size_t kMaxLen = 6400;
    constexpr size_t kMaxOffset = 7;
    const std::vector<uint8_t> bytes =
        randomBytes(kMaxLen + kMaxOffset, 3720);
    for (const uint32_t seed : {0u, 0x5EEDF00Du}) {
        for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
            const uint8_t *data = bytes.data() + offset;
            // The table path over [0, len), extended a byte per step.
            uint32_t reference = seed;
            for (size_t len = 0; len <= kMaxLen; ++len) {
                if (len > 0) {
                    reference = util::detail::crc32cTable(
                        data + len - 1, 1, reference);
                }
                ASSERT_EQ(util::crc32c(data, len, seed), reference)
                    << "len " << len << " offset " << offset
                    << " seed " << seed;
            }
        }
    }
}

TEST(Crc32c, ChainingAtRandomSplitsEqualsOnePass)
{
    const std::vector<uint8_t> bytes = randomBytes(64 * 1024, 42);
    const uint32_t whole = util::crc32c(bytes.data(), bytes.size());
    EXPECT_EQ(whole,
              util::detail::crc32cTable(bytes.data(), bytes.size(), 0));
    sim::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t crc = 0;
        size_t at = 0;
        while (at < bytes.size()) {
            const size_t n = std::min<size_t>(
                rng.uniformInt(0, 9000), bytes.size() - at);
            crc = util::crc32c(bytes.data() + at, n, crc);
            at += n;
        }
        ASSERT_EQ(crc, whole) << "trial " << trial;
    }
}

TEST(DsaProtocol, FlagWordCarriesStatusAndDigest)
{
    // RdmaFlag completions pack the read payload's CRC32C into the
    // flag word's upper half; status decoding must see through it.
    const uint64_t flag = flagValue(IoStatus::Ok, 0xDEADBEEFu);
    EXPECT_NE(flag & kFlagDone, 0u);
    EXPECT_EQ(statusFromFlag(flag), IoStatus::Ok);
    EXPECT_EQ(digestFromFlag(flag), 0xDEADBEEFu);

    // No digest (phantom memory) leaves the upper half zero.
    EXPECT_EQ(digestFromFlag(flagValue(IoStatus::Ok)), 0u);

    // An all-ones digest must not bleed into the status bits.
    EXPECT_EQ(statusFromFlag(flagValue(IoStatus::IntegrityError,
                                       0xFFFFFFFFu)),
              IoStatus::IntegrityError);
    EXPECT_EQ(statusFromFlag(flagValue(IoStatus::BadDigest,
                                       0xFFFFFFFFu)),
              IoStatus::BadDigest);
    EXPECT_EQ(statusFromFlag(flagValue(IoStatus::Error, 0x12345678u)),
              IoStatus::Error);
}

constexpr uint64_t kIo = 8192;

/**
 * A mirrored 2-node cDSA testbed with real (non-phantom) memory and
 * small disks, so on-media damage is cheap to inject and to scrub.
 * The retransmit timer sits above the disk latency tail: corruption
 * recovery must come from digest detection, never from spurious
 * timeouts.
 */
class IntegrityTest : public ::testing::Test
{
  protected:
    explicit IntegrityTest(uint64_t scrub_rate = 0,
                           uint32_t scrub_passes = 0)
    {
        dsa::DsaConfig dsa_config;
        dsa_config.retransmit_timeout = sim::msecs(40);
        dsa_config.max_retransmits = 8;
        dsa_config.reconnect_delay = sim::msecs(1);
        dsa_config.max_reconnect_attempts = 2;
        dsa_config.connect_timeout = sim::msecs(3);

        StorageParams storage_params;
        storage_params.v3_nodes = 2;
        storage_params.disks_per_node = 2;
        storage_params.disk_spec = disk::DiskSpec::scsi10k();
        storage_params.disk_spec.capacity_bytes = 2 * util::kMiB;
        storage_params.cache_bytes_per_node = 4 * util::kMiB;
        storage_params.layout = scenarios::Layout::Mirrored;
        storage_params.mirror.probe_interval = sim::msecs(2);
        storage_params.mirror.scrub_rate_bytes_per_sec = scrub_rate;
        storage_params.mirror.scrub_chunk = 64 * util::kKiB;
        storage_params.mirror.scrub_pass_limit = scrub_passes;

        bed_ = std::make_unique<Testbed>(
            Backend::Cdsa, HostParams::midSize(), storage_params,
            dsa_config, /*seed=*/17);
        EXPECT_TRUE(bed_->connectAll());
    }

    MirroredDevice &mirror() { return *bed_->mirrors().front(); }

    storage::V3Server &server(size_t n)
    {
        return *bed_->servers()[n];
    }

    /** One I/O straight through the mirror; returns its status. */
    bool
    oneIo(bool write, uint64_t offset, Addr buf)
    {
        bool ok = false;
        sim::spawn([](BlockDevice &device, bool w, uint64_t off,
                      Addr b, bool &out) -> Task<> {
            out = w ? co_await device.write(off, kIo, b)
                    : co_await device.read(off, kIo, b);
        }(mirror(), write, offset, buf, ok));
        bed_->sim().runUntil(bed_->sim().now() + sim::msecs(500));
        return ok;
    }

    /** Evicts the block at @p offset (kIo is one cache block) from
     *  server @p n's cache so the next read faults it from media (and
     *  its verify-on-read). */
    bool
    dropFromCache(size_t n, uint64_t offset)
    {
        storage::BlockCache *cache = server(n).cache();
        if (cache == nullptr)
            return false;
        cache->invalidate(storage::CacheKey{0, offset / kIo});
        return true;
    }

    Addr
    patternBuffer(uint8_t salt)
    {
        const Addr buffer = bed_->host().memory().allocate(kIo);
        std::vector<uint8_t> data(kIo);
        for (uint64_t i = 0; i < kIo; ++i)
            data[i] = static_cast<uint8_t>((i * 7 + salt) & 0xFF);
        bed_->host().memory().write(buffer, data.data(), kIo);
        return buffer;
    }

    bool
    checkPattern(Addr buffer, uint8_t salt)
    {
        std::vector<uint8_t> data(kIo);
        bed_->host().memory().read(buffer, data.data(), kIo);
        for (uint64_t i = 0; i < kIo; ++i) {
            if (data[i] !=
                static_cast<uint8_t>((i * 7 + salt) & 0xFF)) {
                return false;
            }
        }
        return true;
    }

    std::unique_ptr<Testbed> bed_;
};

TEST_F(IntegrityTest, WireCorruptionDetectedAndRecovered)
{
    const Addr buf = patternBuffer(3);
    ASSERT_TRUE(oneIo(true, 0, buf));

    // Damage the next six delivered packets — requests, responses or
    // RDMA data, whatever flows next. Every read must still return
    // the exact pattern: damage is detected end to end and recovered
    // by retransmission, never surfaced to the application.
    bed_->faults().corruptNext(6);
    const Addr rbuf = bed_->host().memory().allocate(kIo);
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(oneIo(false, 0, rbuf)) << "read " << i;
        EXPECT_TRUE(checkPattern(rbuf, 3)) << "read " << i;
    }
    EXPECT_EQ(bed_->faults().corruptedCount(), 6u);
    EXPECT_EQ(bed_->faults().droppedCount(), 0u);

    uint64_t retransmits = 0;
    uint64_t detections = 0;
    for (auto &client : bed_->clients()) {
        retransmits += client->retransmitCount();
        detections += client->digestMismatchCount();
    }
    for (auto &srv : bed_->servers()) {
        detections +=
            srv->digestMismatchCount() + srv->badRequestCount();
    }
    EXPECT_GE(retransmits, 1u);
    EXPECT_GE(detections, 1u);
}

TEST_F(IntegrityTest, RdmaStagingCorruptionDetected)
{
    // Damage the next inbound RDMA fragment at server 0's DMA engine
    // — past the link CRC, so only the end-to-end staging digest can
    // tell. The server rejects the staged write payload and the
    // client's retransmission re-stages clean bytes.
    bed_->faults().corruptRdmaNext(server(0).nic(), 1);

    const Addr buf = patternBuffer(4);
    ASSERT_TRUE(oneIo(true, kIo, buf)); // mirrored despite the hit
    EXPECT_GE(server(0).digestMismatchCount(), 1u);

    // Both replicas committed the clean payload: force reads off
    // both (round-robin) and verify the pattern.
    const Addr rbuf = bed_->host().memory().allocate(kIo);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(oneIo(false, kIo, rbuf));
        EXPECT_TRUE(checkPattern(rbuf, 4)) << "read " << i;
    }
    EXPECT_EQ(mirror().unrecoverableCount(), 0u);
}

TEST_F(IntegrityTest, LatentErrorDetectedAndRepairedFromMirror)
{
    const Addr buf = patternBuffer(5);
    ASSERT_TRUE(oneIo(true, 0, buf)); // duplicated to both replicas

    // Rot the block on replica 0's media, then evict it from that
    // server's cache so a read actually faults it from the disk.
    bed_->faults().injectLatentError(server(0).volume().disk(0), 0, kIo);
    ASSERT_TRUE(dropFromCache(0, 0));

    const disk::StripeVolume *vol0 = &server(0).volume();
    ASSERT_TRUE(vol0->corrupt(0, kIo));

    // Reads round-robin across replicas, so the rotten leg is hit
    // within a few tries; verify-on-read fires there and the mirror
    // rewrites the bad copy from its peer. Every read returns the
    // true pattern — the damage is never visible to the application.
    const Addr rbuf = bed_->host().memory().allocate(kIo);
    for (int i = 0; i < 8 && vol0->corrupt(0, kIo); ++i) {
        ASSERT_TRUE(oneIo(false, 0, rbuf)) << "read " << i;
        EXPECT_TRUE(checkPattern(rbuf, 5)) << "read " << i;
    }
    EXPECT_FALSE(vol0->corrupt(0, kIo));
    EXPECT_GE(server(0).integrityErrorCount(), 1u);
    EXPECT_GE(mirror().integrityRepairCount(), 1u);
    EXPECT_EQ(mirror().unrecoverableCount(), 0u);

    // Data rot is repaired in place, not treated as node death.
    EXPECT_EQ(mirror().failoverCount(), 0u);
    EXPECT_EQ(mirror().activeReplicas(), 2u);
}

TEST_F(IntegrityTest, TornWriteDetectedAndRepaired)
{
    // Arm a certain tear on replica 0's disk, write one block
    // through the mirror, disarm. The tear silently corrupts the
    // tail sectors of replica 0's copy; replica 1 stays intact.
    auto &media = server(0).volume().disk(0);
    bed_->faults().setTornWriteRate(media, 1.0);
    const Addr buf = patternBuffer(7);
    ASSERT_TRUE(oneIo(true, 0, buf));
    bed_->faults().setTornWriteRate(media, 0.0);
    EXPECT_GE(media.tornWriteCount(), 1u);

    const disk::StripeVolume *vol0 = &server(0).volume();
    ASSERT_TRUE(vol0->corrupt(0, kIo));

    // The damaged copy hides behind a warm cache; evict it, then
    // read until verify-on-read finds it and the mirror repairs.
    ASSERT_TRUE(dropFromCache(0, 0));
    const Addr rbuf = bed_->host().memory().allocate(kIo);
    for (int i = 0; i < 8 && vol0->corrupt(0, kIo); ++i) {
        ASSERT_TRUE(oneIo(false, 0, rbuf)) << "read " << i;
        EXPECT_TRUE(checkPattern(rbuf, 7)) << "read " << i;
    }
    EXPECT_FALSE(vol0->corrupt(0, kIo));
    EXPECT_GE(mirror().integrityRepairCount(), 1u);
    EXPECT_EQ(mirror().unrecoverableCount(), 0u);
}

/** The fixture with the background scrubber armed: 32 MiB/s, two
 *  full passes so Simulation::run() terminates. */
class ScrubberTest : public IntegrityTest
{
  protected:
    ScrubberTest() : IntegrityTest(32 * util::kMiB, /*passes=*/2) {}
};

TEST_F(ScrubberTest, ScrubberRepairsColdDamage)
{
    // Rot a block no application I/O ever touches (volume offset
    // 64 K maps to replica 1's second disk): only the scrubber's
    // walk can find it. Injected before any I/O — the scrubber
    // starts with the first write and would otherwise finish its
    // bounded passes before the damage exists.
    bed_->faults().injectLatentError(server(1).volume().disk(1), 0, kIo);
    const disk::StripeVolume *vol1 = &server(1).volume();
    ASSERT_TRUE(vol1->corrupt(64 * util::kKiB, kIo));

    // One write starts the lazily spawned scrubber.
    const Addr buf = patternBuffer(6);
    ASSERT_TRUE(oneIo(true, 0, buf));

    // Drain: the pass-bounded scrubber walks both replicas twice and
    // then stops, so the event queue empties.
    bed_->sim().run();

    EXPECT_EQ(mirror().scrubPassCount(), 2u);
    EXPECT_GT(mirror().scrubbedBytes(), 0u);
    EXPECT_GE(mirror().integrityRepairCount(), 1u);
    EXPECT_FALSE(vol1->corrupt(64 * util::kKiB, kIo));
    EXPECT_EQ(mirror().unrecoverableCount(), 0u);
    EXPECT_EQ(mirror().failoverCount(), 0u);
}

} // namespace
} // namespace v3sim::dsa
