/**
 * @file
 * Physical disk parameterization.
 *
 * Table 2 of the paper lists the two drive families in play:
 *  - mid-size V3 nodes / local baseline: 18 GB SCSI, 10K RPM behind
 *    UltraSCSI controllers;
 *  - large V3 nodes: 18 GB FC, 15K RPM behind Mylex eXtremeRAID 3000
 *    controllers.
 *
 * Service time = controller overhead + seek + rotational latency +
 * media transfer. The seek curve is the standard concave model
 * t2t + (full - t2t) * sqrt(distance_fraction), which integrates to
 * the quoted average seek for uniformly random targets.
 */

#ifndef V3SIM_DISK_DISK_SPEC_HH
#define V3SIM_DISK_DISK_SPEC_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "util/units.hh"

namespace v3sim::disk
{

/** Static parameters of one drive model. */
struct DiskSpec
{
    std::string model = "generic";
    uint32_t rpm = 10000;
    sim::Tick track_to_track_seek = sim::msecs(0.6);
    sim::Tick full_stroke_seek = sim::msecs(10.5);
    /** Sustained media rate, bytes/second. */
    double media_rate_bps = 40e6;
    uint64_t capacity_bytes = 18ull * util::kGiB;
    /** Per-command controller/firmware overhead. */
    sim::Tick controller_overhead = sim::msecs(0.20);

    /** One full rotation. */
    sim::Tick
    rotationTime() const
    {
        return sim::secs(60.0 / static_cast<double>(rpm));
    }

    /** Average rotational latency (half a rotation). */
    sim::Tick avgRotationalLatency() const { return rotationTime() / 2; }

    /**
     * Seek time for a head move spanning @p distance_fraction of the
     * full stroke (0 = no move, 1 = full stroke). Zero for no move.
     */
    sim::Tick seekTime(double distance_fraction) const;

    /**
     * Average seek for uniformly random back-to-back targets
     * (E[sqrt(u)] with u = |a-b| of two uniforms is ~0.514).
     */
    sim::Tick avgSeek() const;

    /** Media transfer time for @p len bytes. */
    sim::Tick
    transferTime(uint64_t len) const
    {
        return sim::transferTime(len, media_rate_bps);
    }

    /** 18 GB 10K RPM SCSI drive (mid-size configuration, Table 2). */
    static DiskSpec scsi10k();

    /** 18 GB 15K RPM FC drive (large configuration, Table 2). */
    static DiskSpec fc15k();
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_DISK_SPEC_HH
