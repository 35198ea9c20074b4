/**
 * @file
 * Internal to util::crc32c: the portable reference path, exposed so
 * tests can check the dispatched implementation against it. Model
 * code calls util::crc32c() and never names a path.
 */

#ifndef V3SIM_UTIL_CRC32C_INTERNAL_HH
#define V3SIM_UTIL_CRC32C_INTERNAL_HH

#include <cstddef>
#include <cstdint>

namespace v3sim::util::detail
{

/** Byte-at-a-time table CRC32C: same contract as util::crc32c, and
 *  the only path on CPUs without SSE4.2. */
uint32_t crc32cTable(const void *data, size_t len, uint32_t seed);

} // namespace v3sim::util::detail

#endif // V3SIM_UTIL_CRC32C_INTERNAL_HH
