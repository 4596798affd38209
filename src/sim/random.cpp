#include "sim/random.hpp"

#include <random>

namespace nbmg::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// MersenneTwister64's seeding multiplier and twist matrix (the standard's
// f and a for its 64-bit engine); r = 31 splits a word into its upper 33
// bits and lower 31.
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;
constexpr std::uint64_t kTwistMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

/// The twisted value of a word: `upper` is the word itself, `lower` its
/// successor and `far` the word m places on, cyclically.
constexpr std::uint64_t twist_word(std::uint64_t upper, std::uint64_t lower,
                                   std::uint64_t far) noexcept {
    const std::uint64_t y = (upper & kUpperMask) | (lower & ~kUpperMask);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kTwistMatrix);
}

constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t root, std::string_view label,
                          std::uint64_t index) noexcept {
    std::uint64_t h = kFnvOffset ^ root;
    for (const char c : label) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= kFnvPrime;
    }
    h ^= index + 0x9E3779B97F4A7C15ULL;
    return splitmix64(splitmix64(h));
}

void MersenneTwister64::refill() noexcept {
    if (next_ < kLazyDraws) {
        // Early in the first block: word next_ alone, from words next_,
        // next_ + 1 and next_ + m as seeded.
        seed_through(next_ + kShift);
        state_[next_] = twist_word(state_[next_], state_[next_ + 1], state_[next_ + kShift]);
        ready_ = next_ + 1;
        return;
    }
    if (next_ == kWords) {
        next_ = 0;  // the next block
    } else {
        seed_through(kWords - 1);  // the rest of the first block
    }
    twist_from(next_);
    ready_ = kWords;
}

void MersenneTwister64::seed_through(std::size_t last) noexcept {
    for (std::size_t i = seeded_; i <= last; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
    seeded_ = last + 1;
}

void MersenneTwister64::twist_from(std::size_t first) noexcept {
    // The standard's three loops: word k reads word k + m until that wraps,
    // then the already twisted word k + m - n; the last word reads word 0.
    std::size_t k = first;
    for (; k < kWords - kShift; ++k) {
        state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
        state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kShift - kWords]);
    }
    state_[kWords - 1] = twist_word(state_[kWords - 1], state_[0], state_[kShift - 1]);
}

std::int64_t RandomStream::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("RandomStream::uniform_int: lo > hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double RandomStream::uniform_real(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("RandomStream::uniform_real: lo > hi");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

bool RandomStream::bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

double RandomStream::exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("RandomStream::exponential: mean <= 0");
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
}

std::int64_t RandomStream::geometric(double p) {
    if (p <= 0.0 || p > 1.0) {
        throw std::invalid_argument("RandomStream::geometric: p outside (0, 1]");
    }
    if (p == 1.0) return 0;
    std::geometric_distribution<std::int64_t> dist(p);
    return dist(engine_);
}

std::size_t RandomStream::weighted_index(std::span<const double> weights) {
    if (weights.empty()) {
        throw std::invalid_argument("RandomStream::weighted_index: no weights");
    }
    double total = 0.0;
    for (const double w : weights) {
        if (w < 0.0) throw std::invalid_argument("RandomStream::weighted_index: negative weight");
        total += w;
    }
    if (total <= 0.0) {
        throw std::invalid_argument("RandomStream::weighted_index: zero total weight");
    }
    const double r = uniform_real(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc) return i;
    }
    return weights.size() - 1;  // floating-point edge: r == total
}

}  // namespace nbmg::sim
