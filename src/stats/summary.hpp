// Online summary statistics (Welford) with confidence intervals.
#pragma once

#include <cstdint>
#include <span>

namespace nbmg::stats {

/// Accumulates samples and reports mean / stddev / min / max and a normal
/// 95% confidence half-width.  Numerically stable (Welford's algorithm).
class Summary {
public:
    void add(double sample) noexcept;
    void merge(const Summary& other) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
    [[nodiscard]] double variance() const noexcept;  // sample variance (n-1)
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

    /// Half-width of the normal-approximation 95% CI of the mean.
    [[nodiscard]] double ci95_half_width() const noexcept;

    /// Bit-exact state equality: two summaries compare equal only when they
    /// accumulated the same samples in the same merge order.  This is what
    /// the determinism/golden tests assert ("aggregates are bit-identical").
    [[nodiscard]] bool operator==(const Summary& other) const noexcept = default;

    /// The complete accumulator state, exposed losslessly for serialization
    /// (the public statistics API divides/normalizes, so it cannot round-trip
    /// the Welford state bit-exactly).
    struct State {
        std::uint64_t count = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    [[nodiscard]] State state() const noexcept {
        return State{count_, mean_, m2_, min_, max_};
    }

private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> samples) noexcept;

}  // namespace nbmg::stats
