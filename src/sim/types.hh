/**
 * @file
 * Fundamental simulation types: the simulated clock.
 *
 * Simulated time is a signed 64-bit nanosecond count (`Tick`), giving
 * ~292 simulated years of range — ample for the minutes-long TPC-C
 * runs the paper reports. All model constants are expressed through
 * the unit helpers below so call sites read like the paper's text
 * ("interrupt cost is 5-10 us" becomes `usecs(7)`).
 */

#ifndef V3SIM_SIM_TYPES_HH
#define V3SIM_SIM_TYPES_HH

#include <concepts>
#include <cstdint>

namespace v3sim::sim
{

/** Simulated time in nanoseconds. */
using Tick = int64_t;

/** A Tick value meaning "no deadline / never". */
constexpr Tick kTickNever = INT64_MAX;

/** @name Unit constructors
 *  Convert human units to Ticks. Double overloads round to the
 *  nearest nanosecond.
 *  @{
 */
template <std::integral T>
constexpr Tick nsecs(T n) { return static_cast<Tick>(n); }

template <std::integral T>
constexpr Tick usecs(T n) { return static_cast<Tick>(n) * 1000; }

template <std::integral T>
constexpr Tick msecs(T n) { return static_cast<Tick>(n) * 1000 * 1000; }

template <std::integral T>
constexpr Tick
secs(T n)
{
    return static_cast<Tick>(n) * 1000 * 1000 * 1000;
}

constexpr Tick
usecs(double n)
{
    return static_cast<Tick>(n * 1e3 + (n >= 0 ? 0.5 : -0.5));
}

constexpr Tick
msecs(double n)
{
    return static_cast<Tick>(n * 1e6 + (n >= 0 ? 0.5 : -0.5));
}

constexpr Tick
secs(double n)
{
    return static_cast<Tick>(n * 1e9 + (n >= 0 ? 0.5 : -0.5));
}
/** @} */

/** @name Unit extractors
 *  Convert Ticks back to human units as doubles.
 *  @{
 */
constexpr double toUsecs(Tick t) { return static_cast<double>(t) / 1e3; }
constexpr double toMsecs(Tick t) { return static_cast<double>(t) / 1e6; }
constexpr double toSecs(Tick t) { return static_cast<double>(t) / 1e9; }
/** @} */

/**
 * Ticks needed to move @p bytes at @p bytes_per_second, rounded up.
 * Used by link, DMA, and disk media-rate models.
 */
constexpr Tick
transferTime(uint64_t bytes, double bytes_per_second)
{
    if (bytes == 0 || bytes_per_second <= 0)
        return 0;
    const double ns = static_cast<double>(bytes) * 1e9 / bytes_per_second;
    return static_cast<Tick>(ns + 0.999999);
}

/**
 * CPU ticks to process @p bytes at @p per_kb per KB, each started KB
 * charged in full: the CRC32C digest and memcpy costs of the DSA
 * client, the storage nodes and the iSCSI/TCP path.
 */
constexpr Tick
perKbTicks(uint64_t bytes, Tick per_kb)
{
    return static_cast<Tick>((bytes + 1023) / 1024) * per_kb;
}

} // namespace v3sim::sim

#endif // V3SIM_SIM_TYPES_HH
