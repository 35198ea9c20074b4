/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * A xoshiro256++ engine seeded through SplitMix64 gives fast,
 * high-quality, reproducible streams. The distributions cover what
 * the workload models need: uniform (I/O offsets), exponential
 * (arrival/think times), normal (service jitter), Zipf (skewed block
 * popularity for cache studies), and Bernoulli (read/write mix).
 */

#ifndef V3SIM_SIM_RANDOM_HH
#define V3SIM_SIM_RANDOM_HH

#include <cstdint>
#include <vector>

namespace v3sim::sim
{

/** xoshiro256++ PRNG (public-domain algorithm by Blackman/Vigna). */
class Rng
{
  public:
    /** Seeds the stream; identical seeds give identical streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform in [0, 1). */
    double nextDouble();

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    uint64_t uniformInt(uint64_t lo, uint64_t hi);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Exponential with the given mean (> 0). */
    double exponential(double mean);

    /** Normal via Box-Muller; clamped at zero when @p nonneg. */
    double normal(double mean, double stddev, bool nonneg = true);

    /** True with probability @p p. */
    bool bernoulli(double p);

    /** Creates an independent substream (for per-component RNGs). */
    Rng fork();

  private:
    uint64_t s_[4];
    bool have_spare_ = false;
    double spare_ = 0.0;
};

/**
 * Zipf-distributed integers over [0, n). Uses a precomputed inverse
 * CDF table for exact sampling; construction is O(n), sampling is
 * O(log n). theta = 0 degenerates to uniform; typical OLTP block
 * popularity uses theta in [0.5, 1.0].
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(uint64_t n, double theta);

    /** Samples one value in [0, n). */
    uint64_t sample(Rng &rng) const;

    uint64_t n() const { return n_; }

  private:
    uint64_t n_;
    std::vector<double> cdf_;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_RANDOM_HH
