#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace gopim {

namespace {

/** SplitMix64 step used to expand the user seed into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    GOPIM_ASSERT(n > 0, "uniformInt(0) is undefined");
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return draw % n;
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    GOPIM_ASSERT(lo <= hi, "empty integer range");
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::discrete(const std::vector<double> &weights)
{
    GOPIM_ASSERT(!weights.empty(), "discrete() needs weights");
    double total = 0.0;
    for (double w : weights)
        total += w;
    GOPIM_ASSERT(total > 0.0, "discrete() needs positive total weight");
    double draw = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace gopim
