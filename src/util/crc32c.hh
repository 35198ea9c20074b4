/**
 * @file
 * CRC32C (Castagnoli) — the end-to-end digest of the integrity
 * subsystem.
 *
 * The polynomial is the one iSCSI standardized for its header and
 * data digests (RFC 3720), the closest real-world analogue to what a
 * VI-era block protocol would have used for end-to-end protection:
 * the link-level CRC only covers one hop and is checked (and
 * discarded) by the NIC, so a bit flipped in a NIC buffer, a DMA
 * engine or a staging copy is invisible to it. DSA therefore carries
 * its own CRC32C digests end to end (dsa/protocol.hh) and the disk
 * path stamps blocks with the same function.
 *
 * The simulator charges digest *time* through the cost models
 * (DsaCosts, V3ServerConfig, HostCosts), so the host work here buys
 * correctness only and should run at memory speed. The path is picked
 * once, from CPUID: an SSE4.2 crc32q kernel running three interleaved
 * streams where the CPU has it, the byte-at-a-time table loop
 * everywhere else. Both return the same digest for every input
 * (DESIGN.md §10.5).
 */

#ifndef V3SIM_UTIL_CRC32C_HH
#define V3SIM_UTIL_CRC32C_HH

#include <cstddef>
#include <cstdint>

namespace v3sim::util
{

/**
 * Extends @p seed over @p len bytes at @p data. Pass the previous
 * return value as @p seed to checksum discontiguous pieces as one
 * logical stream; start with 0.
 */
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);

} // namespace v3sim::util

#endif // V3SIM_UTIL_CRC32C_HH
