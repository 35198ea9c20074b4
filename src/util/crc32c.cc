#include "crc32c.hh"

#include <array>
#include <cstring>

#include "crc32c_internal.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define V3SIM_CRC32C_SSE42 1
#endif

namespace v3sim::util
{

namespace
{

/** 0x1EDC6F41 reflected (CRC32C/Castagnoli). */
constexpr uint32_t kPolynomial = 0x82F63B78u;

constexpr std::array<uint32_t, 256>
makeTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
        table[i] = crc;
    }
    return table;
}

constexpr std::array<uint32_t, 256> kTable = makeTable();

#ifdef V3SIM_CRC32C_SSE42

// Three-stream hardware CRC (the scheme of Mark Adler's crc32c.c).
// crc32q has a latency of three cycles but a throughput of one per
// cycle, so a block of 3*B bytes runs as three independent streams
// of B bytes; the partial CRCs then merge by shifting the running CRC
// over B zero bytes (a linear map over GF(2), applied by table) and
// xoring in the next stream's CRC.

/** Block edges of the two three-stream loops. */
constexpr size_t kLongBlock = 2048;
constexpr size_t kShortBlock = 256;

/** A linear map on 32-bit CRC registers: entry i is the image of
 *  bit i. */
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t
gf2Times(const Gf2Matrix &mat, uint32_t vec)
{
    uint32_t sum = 0;
    for (int i = 0; vec != 0; ++i, vec >>= 1) {
        if (vec & 1)
            sum ^= mat[i];
    }
    return sum;
}

constexpr Gf2Matrix
gf2Square(const Gf2Matrix &mat)
{
    Gf2Matrix square{};
    for (int i = 0; i < 32; ++i)
        square[i] = gf2Times(mat, mat[i]);
    return square;
}

/** The map that advances a CRC register over @p len zero bytes;
 *  @p len must be a power of two. */
constexpr Gf2Matrix
zerosOperator(size_t len)
{
    Gf2Matrix op{};
    op[0] = kPolynomial; // one zero bit
    for (int i = 1; i < 32; ++i)
        op[i] = 1u << (i - 1);
    for (size_t bits = 1; bits < len * 8; bits <<= 1)
        op = gf2Square(op);
    return op;
}

/** zerosOperator(len) applied a byte of the register at a time. */
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable
makeShiftTable(size_t len)
{
    const Gf2Matrix op = zerosOperator(len);
    ShiftTable table{};
    for (uint32_t n = 0; n < 256; ++n) {
        for (int b = 0; b < 4; ++b)
            table[b][n] = gf2Times(op, n << (8 * b));
    }
    return table;
}

constexpr ShiftTable kLongShift = makeShiftTable(kLongBlock);
constexpr ShiftTable kShortShift = makeShiftTable(kShortBlock);

uint32_t
shift(const ShiftTable &table, uint64_t crc)
{
    return table[0][crc & 0xFF] ^ table[1][(crc >> 8) & 0xFF] ^
           table[2][(crc >> 16) & 0xFF] ^ table[3][(crc >> 24) & 0xFF];
}

uint64_t
loadWord(const uint8_t *bytes)
{
    uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    return word;
}

/** Advances @p crc over the 3 * kBlock bytes at @p bytes. */
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t
threeStreams(uint64_t crc, const uint8_t *bytes, const ShiftTable &table)
{
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
        crc = _mm_crc32_u64(crc, loadWord(bytes + i));
        crc1 = _mm_crc32_u64(crc1, loadWord(bytes + kBlock + i));
        crc2 = _mm_crc32_u64(crc2, loadWord(bytes + 2 * kBlock + i));
    }
    crc = shift(table, crc) ^ crc1;
    return shift(table, crc) ^ crc2;
}

__attribute__((target("sse4.2"))) uint32_t
crc32cSse42(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint64_t crc = ~seed;
    size_t at = 0;
    for (; len - at >= 3 * kLongBlock; at += 3 * kLongBlock)
        crc = threeStreams<kLongBlock>(crc, bytes + at, kLongShift);
    for (; len - at >= 3 * kShortBlock; at += 3 * kShortBlock)
        crc = threeStreams<kShortBlock>(crc, bytes + at, kShortShift);
    for (; len - at >= 8; at += 8)
        crc = _mm_crc32_u64(crc, loadWord(bytes + at));
    for (; at < len; ++at)
        crc = _mm_crc32_u8(static_cast<uint32_t>(crc), bytes[at]);
    return ~static_cast<uint32_t>(crc);
}

#endif // V3SIM_CRC32C_SSE42

using Crc32cFn = uint32_t (*)(const void *, size_t, uint32_t);

/** The fastest path this CPU runs; every path returns the same
 *  digest, so the choice is invisible to the simulation. */
Crc32cFn
pickPath()
{
#ifdef V3SIM_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32cSse42;
#endif
    return detail::crc32cTable;
}

} // namespace

uint32_t
detail::crc32cTable(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint32_t crc = ~seed;
    for (size_t i = 0; i < len; ++i)
        crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFF];
    return ~crc;
}

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
    static const Crc32cFn path = pickPath();
    return path(data, len, seed);
}

} // namespace v3sim::util
