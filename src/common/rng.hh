/**
 * @file
 * Deterministic random number generation for simulation reproducibility.
 *
 * All stochastic components (graph generators, ML initializers, workload
 * randomizers) draw from a Rng seeded explicitly by the caller, so every
 * experiment in EXPERIMENTS.md is bit-reproducible.
 */

#ifndef GOPIM_COMMON_RNG_HH
#define GOPIM_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gopim {

/**
 * xoshiro256** generator with SplitMix64 seeding.
 *
 * Chosen over std::mt19937_64 for speed (graph generation streams
 * billions of draws for the largest catalog entries) and for a stable
 * cross-platform sequence independent of the standard library.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (cached second draw). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * Draw an index from a discrete distribution proportional to
     * weights (need not be normalized). Linear scan; intended for
     * small weight vectors.
     */
    size_t discrete(const std::vector<double> &weights);

    /** Fisher-Yates shuffle of an index vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng fork();

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

} // namespace gopim

#endif // GOPIM_COMMON_RNG_HH
