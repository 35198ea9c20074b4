#include "random.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace v3sim::sim
{

namespace
{

/** SplitMix64 step, used only for seeding. */
uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::uniformInt(uint64_t lo, uint64_t hi)
{
    assert(lo <= hi);
    const uint64_t span = hi - lo + 1;
    if (span == 0)
        return next(); // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t value;
    do {
        value = next();
    } while (value >= limit);
    return lo + value % span;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::exponential(double mean)
{
    assert(mean > 0);
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev, bool nonneg)
{
    double value;
    if (have_spare_) {
        have_spare_ = false;
        value = mean + stddev * spare_;
    } else {
        double u1;
        do {
            u1 = nextDouble();
        } while (u1 == 0.0);
        const double u2 = nextDouble();
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double two_pi = 6.283185307179586;
        spare_ = mag * std::sin(two_pi * u2);
        have_spare_ = true;
        value = mean + stddev * mag * std::cos(two_pi * u2);
    }
    if (nonneg && value < 0)
        value = 0;
    return value;
}

bool
Rng::bernoulli(double p)
{
    return nextDouble() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n)
{
    assert(n > 0);
    cdf_.resize(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
}

uint64_t
ZipfGenerator::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
}

} // namespace v3sim::sim
