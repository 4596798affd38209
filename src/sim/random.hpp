// Seedable randomness for reproducible simulations.
//
// Every stochastic component receives its own RandomStream derived from a
// root seed plus a string label (and optionally a run index).  Streams are
// independent for distinct labels, and the whole experiment is reproducible
// from the root seed alone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace nbmg::sim {

/// Derives a 64-bit sub-seed from a root seed and a label.  Uses FNV-1a over
/// the label followed by splitmix64 finalization, which gives well-spread,
/// platform-independent seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, std::string_view label,
                                        std::uint64_t index = 0) noexcept;

/// The standard library's 64-bit Mersenne Twister engine (n = 312,
/// m = 156, the same seeding, twist and tempering), drawing the same
/// numbers for every seed, but seeded and twisted only as far as the
/// stream has read.  A fleet holds one stream per device, most of which
/// draw a dozen numbers, so the standard engine's up-front 312-word seeding
/// and first 312-word twist are most of a stream's cost.
///
/// Construction stores the seed.  Draw k < kLazyDraws of the first block
/// seeds the words up to k + m and twists word k alone (its inputs are
/// words k, k + 1 and k + m as seeded).  The next draw seeds the rest of the
/// block and twists it from that word on in one pass, and every later block
/// is twisted in one pass, as the standard engine does.  The refill stays
/// off the draw path: a draw is a compare, a load and the tempering.
class MersenneTwister64 {
public:
    using result_type = std::uint64_t;

    static constexpr std::size_t kWords = 312;
    static constexpr std::size_t kShift = 156;
    /// Draws of the first block served by twisting one word each.  Past it,
    /// the remaining words twist in one pass: word by word, interleaved
    /// streams would touch scattered words of their states.
    static constexpr std::size_t kLazyDraws = 32;
    static_assert(kLazyDraws <= kWords - kShift, "a lazy draw reads word k + m untwisted");

    explicit MersenneTwister64(result_type seed) noexcept { state_[0] = seed; }

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

    result_type operator()() noexcept {
        if (next_ == ready_) [[unlikely]] refill();
        result_type z = state_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /// Equal seeds at equal draw counts compare equal.
    friend bool operator==(const MersenneTwister64&, const MersenneTwister64&) = default;

private:
    /// Makes state_[next_] drawable.
    void refill() noexcept;
    /// Seeds the words [seeded_, last].
    void seed_through(std::size_t last) noexcept;
    /// Twists the words [first, kWords) in place, in the standard order.
    void twist_from(std::size_t first) noexcept;

    std::size_t next_ = 0;    // the word the next draw tempers
    std::size_t ready_ = 0;   // words of the current block twisted so far
    std::size_t seeded_ = 1;  // words seeded (kWords once the first block is)
    std::array<result_type, kWords> state_{};
};

/// One MersenneTwister64 with the distributions the simulator needs.
/// Copyable so a stream can be forked for what-if analysis.
class RandomStream {
public:
    explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

    /// Uniform integer in [lo, hi] (inclusive).
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform_real(double lo, double hi);

    /// True with probability p (clamped to [0, 1]).
    [[nodiscard]] bool bernoulli(double p);

    /// Exponentially distributed value with the given mean (> 0).
    [[nodiscard]] double exponential(double mean);

    /// Number of failures before the first success, success probability p
    /// in (0, 1].
    [[nodiscard]] std::int64_t geometric(double p);

    /// Index in [0, weights.size()) drawn proportionally to `weights`.
    /// Weights must be non-negative with a positive sum.
    [[nodiscard]] std::size_t weighted_index(std::span<const double> weights);

    /// Uniformly chosen element of a non-empty container.
    template <typename Container>
    [[nodiscard]] const auto& pick(const Container& c) {
        if (c.empty()) throw std::invalid_argument("RandomStream::pick: empty container");
        const auto idx = static_cast<std::size_t>(
            uniform_int(0, static_cast<std::int64_t>(c.size()) - 1));
        return c[idx];
    }

    /// Fisher-Yates shuffle.
    template <typename Container>
    void shuffle(Container& c) {
        if (c.size() < 2) return;
        for (std::size_t i = c.size() - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                uniform_int(0, static_cast<std::int64_t>(i)));
            using std::swap;
            swap(c[i], c[j]);
        }
    }

    /// Raw 64-bit draw (for tests and hashing).
    [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

    [[nodiscard]] MersenneTwister64& engine() noexcept { return engine_; }

private:
    MersenneTwister64 engine_;
};

/// Factory handing out independent named streams from one root seed.
class RngFactory {
public:
    explicit RngFactory(std::uint64_t root_seed) : root_(root_seed) {}

    [[nodiscard]] std::uint64_t root_seed() const noexcept { return root_; }

    [[nodiscard]] RandomStream stream(std::string_view label, std::uint64_t index = 0) const {
        return RandomStream{derive_seed(root_, label, index)};
    }

private:
    std::uint64_t root_ = 0;
};

}  // namespace nbmg::sim
