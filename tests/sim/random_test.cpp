#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace nbmg::sim {
namespace {

TEST(DeriveSeedTest, DeterministicForSameInputs) {
    EXPECT_EQ(derive_seed(1, "a", 0), derive_seed(1, "a", 0));
    EXPECT_EQ(derive_seed(99, "population", 7), derive_seed(99, "population", 7));
}

TEST(DeriveSeedTest, DiffersByRoot) {
    EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
}

TEST(DeriveSeedTest, DiffersByLabel) {
    EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
}

TEST(DeriveSeedTest, DiffersByIndex) {
    EXPECT_NE(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
}

TEST(DeriveSeedTest, SpreadsAcrossIndexSequence) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(42, "run", i));
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(RandomStreamTest, UniformIntWithinBounds) {
    RandomStream rng{1};
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(RandomStreamTest, UniformIntSinglePoint) {
    RandomStream rng{1};
    EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(RandomStreamTest, UniformIntInvalidRangeThrows) {
    RandomStream rng{1};
    EXPECT_THROW((void)rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(RandomStreamTest, UniformRealWithinBounds) {
    RandomStream rng{2};
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform_real(0.25, 0.75);
        EXPECT_GE(v, 0.25);
        EXPECT_LT(v, 0.75);
    }
}

TEST(RandomStreamTest, BernoulliEdgeCases) {
    RandomStream rng{3};
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(RandomStreamTest, BernoulliRateRoughlyMatchesP) {
    RandomStream rng{4};
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
}

TEST(RandomStreamTest, ExponentialMeanRoughlyMatches) {
    RandomStream rng{5};
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / 20000.0, 50.0, 2.5);
}

TEST(RandomStreamTest, ExponentialRejectsNonPositiveMean) {
    RandomStream rng{5};
    EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
    EXPECT_THROW((void)rng.exponential(-1.0), std::invalid_argument);
}

TEST(RandomStreamTest, GeometricMeanRoughlyMatches) {
    RandomStream rng{6};
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += static_cast<double>(rng.geometric(0.25));
    // Mean of Geometric(p) counting failures is (1-p)/p = 3.
    EXPECT_NEAR(sum / 20000.0, 3.0, 0.25);
}

TEST(RandomStreamTest, GeometricPOneIsZero) {
    RandomStream rng{6};
    EXPECT_EQ(rng.geometric(1.0), 0);
}

TEST(RandomStreamTest, GeometricRejectsBadP) {
    RandomStream rng{6};
    EXPECT_THROW((void)rng.geometric(0.0), std::invalid_argument);
    EXPECT_THROW((void)rng.geometric(1.5), std::invalid_argument);
}

TEST(RandomStreamTest, WeightedIndexRespectsWeights) {
    RandomStream rng{7};
    const std::array<double, 3> weights{0.0, 1.0, 3.0};
    std::array<int, 3> counts{};
    for (int i = 0; i < 10000; ++i) {
        ++counts[rng.weighted_index(weights)];
    }
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[1]), 3.0,
                0.4);
}

TEST(RandomStreamTest, WeightedIndexRejectsBadInput) {
    RandomStream rng{8};
    EXPECT_THROW((void)rng.weighted_index(std::span<const double>{}),
                 std::invalid_argument);
    const std::array<double, 2> negative{1.0, -0.5};
    EXPECT_THROW((void)rng.weighted_index(negative), std::invalid_argument);
    const std::array<double, 2> zero{0.0, 0.0};
    EXPECT_THROW((void)rng.weighted_index(zero), std::invalid_argument);
}

TEST(RandomStreamTest, PickReturnsElementFromContainer) {
    RandomStream rng{9};
    const std::vector<int> v{10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int x = rng.pick(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

TEST(RandomStreamTest, PickEmptyThrows) {
    RandomStream rng{9};
    const std::vector<int> empty;
    EXPECT_THROW((void)rng.pick(empty), std::invalid_argument);
}

TEST(RandomStreamTest, ShufflePreservesElements) {
    RandomStream rng{10};
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

/// 1,000 seeds: the extremes, the standard's default seed and well-spread
/// derived ones.
std::vector<std::uint64_t> engine_seeds() {
    std::vector<std::uint64_t> seeds{0,
                                     1,
                                     5489,
                                     std::uint64_t{1} << 32,
                                     std::uint64_t{1} << 63,
                                     std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t i = 0; seeds.size() < 1000; ++i) {
        seeds.push_back(derive_seed(2018, "mt-seeds", i));
    }
    return seeds;
}

constexpr std::size_t kLazy = MersenneTwister64::kLazyDraws;
constexpr std::size_t kBlock = MersenneTwister64::kWords;

// The lazy first block (draws 0 to kLazy + 1), the word m = 156 whose
// seeding the early draws read, the first block's end and several blocks:
// one sequence of four blocks and two draws passes every one of those draw
// counts.
TEST(MersenneTwister64Test, DrawsStdMt19937_64ForEverySeed) {
    for (const std::uint64_t seed : engine_seeds()) {
        std::mt19937_64 reference(seed);
        MersenneTwister64 engine(seed);
        for (std::size_t draw = 0; draw < 4 * kBlock + 2; ++draw) {
            const std::uint64_t expected = reference();
            const std::uint64_t actual = engine();
            if (actual != expected) {
                FAIL() << "seed " << seed << ", draw " << draw << ": " << actual
                       << " != " << expected;
            }
        }
    }
}

/// The reference for RandomStream::weighted_index: a uniform draw over the
/// total, placed on the running sums.
std::size_t reference_weighted_index(std::mt19937_64& engine,
                                     std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    const double r = std::uniform_real_distribution<double>(0.0, total)(engine);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc) return i;
    }
    return weights.size() - 1;
}

// Every distribution RandomStream draws, interleaved (so each consumes its
// own number of engine draws, through the lazy block and past it), against
// the same std distribution over std::mt19937_64.
TEST(MersenneTwister64Test, StreamDistributionsMatchStdOverMt19937_64) {
    const std::array<std::pair<std::int64_t, std::int64_t>, 4> int_ranges{{
        {-5, 17},
        {0, (std::int64_t{1} << 62) + 1},  // rejects about half its draws
        {std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()},
        {7, 7},
    }};
    const std::array<double, 4> weights{0.5, 0.0, 2.0, 1.25};
    const std::vector<std::uint64_t> seeds = engine_seeds();
    for (std::size_t s = 0; s < 200; ++s) {
        std::mt19937_64 reference(seeds[s]);
        RandomStream stream(seeds[s]);
        for (std::size_t draw = 0; draw < 600; ++draw) {
            switch (draw % 6) {
                case 0: {
                    const auto [lo, hi] = int_ranges[(draw / 6) % int_ranges.size()];
                    ASSERT_EQ(stream.uniform_int(lo, hi),
                              std::uniform_int_distribution<std::int64_t>(lo, hi)(reference))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
                }
                case 1:
                    ASSERT_EQ(stream.uniform_real(0.25, 0.75),
                              std::uniform_real_distribution<double>(0.25, 0.75)(reference))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
                case 2:
                    ASSERT_EQ(stream.bernoulli(0.3), std::bernoulli_distribution(0.3)(reference))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
                case 3:
                    ASSERT_EQ(stream.exponential(50.0),
                              std::exponential_distribution<double>(1.0 / 50.0)(reference))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
                case 4:
                    ASSERT_EQ(stream.geometric(0.25),
                              std::geometric_distribution<std::int64_t>(0.25)(reference))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
                default:
                    ASSERT_EQ(stream.weighted_index(weights),
                              reference_weighted_index(reference, weights))
                        << "seed " << seeds[s] << ", draw " << draw;
                    break;
            }
        }
    }
}

// A copy taken at any point of the lazy first block, or just past it,
// carries the seeded and twisted words: it and the original go on drawing
// the reference's numbers.
TEST(MersenneTwister64Test, CopiesContinueIdentically) {
    const std::uint64_t seed = derive_seed(2018, "mt-copies");
    for (std::size_t taken = 0; taken <= kLazy + 8; ++taken) {
        std::mt19937_64 reference(seed);
        RandomStream original(seed);
        for (std::size_t i = 0; i < taken; ++i) {
            ASSERT_EQ(original.next_u64(), reference()) << "draw " << i;
        }
        RandomStream copy = original;
        ASSERT_TRUE(copy.engine() == original.engine()) << "copy taken at draw " << taken;
        for (std::size_t i = taken; i < 2 * kBlock + 5; ++i) {
            const std::uint64_t expected = reference();
            ASSERT_EQ(copy.next_u64(), expected) << "copy taken at " << taken << ", draw " << i;
            ASSERT_EQ(original.next_u64(), expected)
                << "copy taken at " << taken << ", draw " << i;
        }
    }
}

TEST(MersenneTwister64Test, EqualExactlyAtEqualSeedAndPosition) {
    const std::vector<std::size_t> counts{
        0, 1, 2, kLazy - 1, kLazy, kLazy + 1, 155, 156, 157, 311, 312, 313, 624, 625};
    const auto drawn = [](std::uint64_t seed, std::size_t count) {
        MersenneTwister64 engine(seed);
        for (std::size_t i = 0; i < count; ++i) (void)engine();
        return engine;
    };
    for (const std::size_t i : counts) {
        for (const std::size_t j : counts) {
            EXPECT_EQ(drawn(42, i) == drawn(42, j), i == j) << i << " vs " << j << " draws";
        }
        EXPECT_FALSE(drawn(42, i) == drawn(43, i)) << i << " draws";
    }
}

TEST(RandomStreamTest, SameSeedSameSequence) {
    RandomStream a{123};
    RandomStream b{123};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngFactoryTest, StreamsAreIndependentByLabel) {
    const RngFactory factory{77};
    RandomStream a = factory.stream("alpha");
    RandomStream b = factory.stream("beta");
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngFactoryTest, StreamsReproducible) {
    const RngFactory factory{77};
    RandomStream a1 = factory.stream("alpha", 3);
    RandomStream a2 = factory.stream("alpha", 3);
    EXPECT_EQ(a1.next_u64(), a2.next_u64());
}

}  // namespace
}  // namespace nbmg::sim
