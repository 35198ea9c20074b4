/**
 * @file
 * Size/time unit helpers shared across the simulator.
 *
 * Sizes are plain byte counts; parsing accepts the "512", "8K", "4M",
 * "1G" forms the paper uses for I/O request sizes. Formatting renders
 * byte counts and rates the way the paper's figures label their axes.
 */

#ifndef V3SIM_UTIL_UNITS_HH
#define V3SIM_UTIL_UNITS_HH

#include <cstdint>
#include <optional>
#include <string>

namespace v3sim::util
{

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;
constexpr uint64_t kGiB = 1024 * kMiB;

/**
 * Parses a size string such as "512", "8K", "64K", "4M", "2G".
 * @return the byte count, or std::nullopt on malformed input.
 */
std::optional<uint64_t> parseSize(const std::string &text);

/** Formats a byte count compactly: 512, 8K, 64K, 1M, 2G. */
std::string formatSize(uint64_t bytes);

/** Formats nanoseconds as microseconds with one decimal. */
std::string formatUsecs(int64_t ns);

/** Formats nanoseconds as milliseconds with three decimals. */
std::string formatMsecs(int64_t ns);

} // namespace v3sim::util

#endif // V3SIM_UTIL_UNITS_HH
