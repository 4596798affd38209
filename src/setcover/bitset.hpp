// Packed 64-bit-word bitset used as the coverage representation of the
// set-cover kernels.  Replaces std::vector<bool> on the hot paths: word
// storage is contiguous and test/set compile to single-instruction
// mask ops, and test_and_set fuses the membership check with the update
// so marking a set costs one pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nbmg::setcover {

class CoverageBitset {
public:
    CoverageBitset() = default;
    explicit CoverageBitset(std::size_t bits)
        : bits_(bits), words_((bits + 63) / 64, 0) {}

    [[nodiscard]] std::size_t size() const noexcept { return bits_; }

    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

    void reset(std::size_t i) noexcept {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    /// Sets bit i; returns true when the bit was previously clear.
    bool test_and_set(std::size_t i) noexcept {
        std::uint64_t& word = words_[i >> 6];
        const std::uint64_t mask = std::uint64_t{1} << (i & 63);
        const bool was_clear = (word & mask) == 0;
        word |= mask;
        return was_clear;
    }

private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace nbmg::setcover
