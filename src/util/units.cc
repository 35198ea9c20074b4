#include "units.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace v3sim::util
{

std::optional<uint64_t>
parseSize(const std::string &text)
{
    if (text.empty())
        return std::nullopt;

    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str())
        return std::nullopt;

    uint64_t multiplier = 1;
    if (*end != '\0') {
        switch (std::toupper(static_cast<unsigned char>(*end))) {
          case 'K': multiplier = kKiB; break;
          case 'M': multiplier = kMiB; break;
          case 'G': multiplier = kGiB; break;
          default: return std::nullopt;
        }
        ++end;
        // Allow an optional trailing "B" / "iB".
        if (*end == 'i')
            ++end;
        if (*end == 'B' || *end == 'b')
            ++end;
        if (*end != '\0')
            return std::nullopt;
    }
    return value * multiplier;
}

std::string
formatSize(uint64_t bytes)
{
    char buf[32];
    if (bytes >= kGiB && bytes % kGiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluG",
                      static_cast<unsigned long long>(bytes / kGiB));
    else if (bytes >= kMiB && bytes % kMiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluM",
                      static_cast<unsigned long long>(bytes / kMiB));
    else if (bytes >= kKiB && bytes % kKiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluK",
                      static_cast<unsigned long long>(bytes / kKiB));
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

std::string
formatUsecs(int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f us",
                  static_cast<double>(ns) / 1e3);
    return buf;
}

std::string
formatMsecs(int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

} // namespace v3sim::util
