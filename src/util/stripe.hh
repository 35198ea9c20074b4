/**
 * @file
 * RAID-0 geometry, written once: a fixed stripe unit round-robined
 * across `width` children. A node's disks under disk::StripeVolume,
 * the storage nodes under dsa::StripedDevice and the shards of
 * cluster::PlacementMap all map offsets through these two functions.
 */

#ifndef V3SIM_UTIL_STRIPE_HH
#define V3SIM_UTIL_STRIPE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace v3sim::util
{

/** The piece of a striped range that starts at one volume offset. */
struct StripeChunk
{
    size_t child = 0;          ///< the child that holds it
    uint64_t child_offset = 0; ///< where it starts on that child
    uint64_t len = 0;          ///< bytes, up to the stripe unit's end
};

/**
 * The chunk at volume offset @p offset of a range with @p len bytes
 * left, striped in @p unit-byte units over @p width children.
 * Stepping by each chunk's len tiles the whole range.
 */
inline StripeChunk
stripeChunk(uint64_t offset, uint64_t len, uint64_t unit, size_t width)
{
    const uint64_t index = offset / unit;
    const uint64_t within = offset % unit;
    return StripeChunk{static_cast<size_t>(index % width),
                       index / width * unit + within,
                       std::min(len, unit - within)};
}

/** Capacity of a stripe over @p width children whose smallest holds
 *  @p smallest bytes: whole stripe units only. */
inline uint64_t
stripeCapacity(uint64_t smallest, uint64_t unit, size_t width)
{
    return smallest / unit * unit * width;
}

} // namespace v3sim::util

#endif // V3SIM_UTIL_STRIPE_HH
