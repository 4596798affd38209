#include "traffic/population.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "traffic/firmware.hpp"

namespace nbmg::traffic {
namespace {

TEST(ProfileTest, BuiltinProfilesAreValid) {
    for (const auto& p : builtin_profiles()) {
        EXPECT_TRUE(p.valid()) << p.name;
        EXPECT_FALSE(p.classes.empty()) << p.name;
    }
}

TEST(ProfileTest, InvalidProfilesRejected) {
    PopulationProfile p;
    EXPECT_FALSE(p.valid());  // no classes
    p = massive_iot_city();
    p.batch_mean = 0.5;
    EXPECT_FALSE(p.valid());
    p = massive_iot_city();
    p.classes[0].share = 0.0;
    EXPECT_FALSE(p.valid());
    p = massive_iot_city();
    p.classes[0].cycle_weights.clear();
    EXPECT_FALSE(p.valid());
}

TEST(GeneratePopulationTest, ProducesRequestedCountWithDenseIds) {
    sim::RandomStream rng{1};
    const auto devices = generate_population(massive_iot_city(), 250, rng);
    ASSERT_EQ(devices.size(), 250u);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        EXPECT_EQ(devices[i].spec.device.value, i);
    }
}

TEST(GeneratePopulationTest, ImsisAreUniqueFifteenDigit) {
    sim::RandomStream rng{2};
    const auto devices = generate_population(massive_iot_city(), 1'000, rng);
    std::set<std::uint64_t> imsis;
    for (const auto& d : devices) {
        EXPECT_GE(d.spec.imsi.value, 100'000'000'000'000ULL);
        EXPECT_LE(d.spec.imsi.value, 999'999'999'999'999ULL);
        EXPECT_TRUE(imsis.insert(d.spec.imsi.value).second);
    }
}

TEST(GeneratePopulationTest, ReproducibleFromSeed) {
    sim::RandomStream a{7};
    sim::RandomStream b{7};
    const auto da = generate_population(massive_iot_city(), 100, a);
    const auto db = generate_population(massive_iot_city(), 100, b);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].spec.imsi, db[i].spec.imsi);
        EXPECT_EQ(da[i].spec.cycle, db[i].spec.cycle);
        EXPECT_EQ(da[i].class_index, db[i].class_index);
    }
}

TEST(GeneratePopulationTest, DifferentSeedsDiffer) {
    sim::RandomStream a{7};
    sim::RandomStream b{8};
    const auto da = generate_population(massive_iot_city(), 100, a);
    const auto db = generate_population(massive_iot_city(), 100, b);
    bool any_diff = false;
    for (std::size_t i = 0; i < da.size(); ++i) {
        any_diff |= da[i].spec.imsi != db[i].spec.imsi;
    }
    EXPECT_TRUE(any_diff);
}

TEST(GeneratePopulationTest, ClassSharesRoughlyRespected) {
    sim::RandomStream rng{3};
    const auto profile = massive_iot_city();
    const auto devices = generate_population(profile, 20'000, rng);
    std::map<std::size_t, std::size_t> counts;
    for (const auto& d : devices) ++counts[d.class_index];
    double total_share = 0.0;
    for (const auto& c : profile.classes) total_share += c.share;
    for (std::size_t c = 0; c < profile.classes.size(); ++c) {
        const double expected = profile.classes[c].share / total_share;
        const double actual =
            static_cast<double>(counts[c]) / static_cast<double>(devices.size());
        EXPECT_NEAR(actual, expected, 0.05) << profile.classes[c].name;
    }
}

TEST(GeneratePopulationTest, CyclesComeFromClassChoices) {
    sim::RandomStream rng{4};
    const auto profile = massive_iot_city();
    const auto devices = generate_population(profile, 2'000, rng);
    for (const auto& d : devices) {
        const auto& cls = profile.classes[d.class_index];
        bool found = false;
        for (const auto& [cycle, w] : cls.cycle_weights) {
            found |= cycle == d.spec.cycle;
        }
        EXPECT_TRUE(found) << "cycle not in class " << cls.name;
    }
}

TEST(GeneratePopulationTest, BatchingProducesConsecutiveImsiRuns) {
    sim::RandomStream rng{5};
    PopulationProfile profile = massive_iot_city();
    profile.batch_mean = 4.0;
    const auto devices = generate_population(profile, 2'000, rng);
    std::size_t consecutive_pairs = 0;
    for (std::size_t i = 1; i < devices.size(); ++i) {
        if (devices[i].spec.imsi.value == devices[i - 1].spec.imsi.value + 1) {
            ++consecutive_pairs;
            EXPECT_EQ(devices[i].spec.cycle, devices[i - 1].spec.cycle)
                << "batch members must share the DRX cycle";
        }
    }
    // Mean batch 4 -> ~3/4 of adjacent pairs are within a batch.
    EXPECT_GT(consecutive_pairs, devices.size() / 2);
}

TEST(GeneratePopulationTest, BatchMeanOneGivesIndependentImsis) {
    sim::RandomStream rng{6};
    PopulationProfile profile = massive_iot_city();
    profile.batch_mean = 1.0;
    const auto devices = generate_population(profile, 2'000, rng);
    std::size_t consecutive_pairs = 0;
    for (std::size_t i = 1; i < devices.size(); ++i) {
        if (devices[i].spec.imsi.value == devices[i - 1].spec.imsi.value + 1) {
            ++consecutive_pairs;
        }
    }
    EXPECT_LT(consecutive_pairs, 5u);
}

TEST(GeneratePopulationTest, InvalidProfileThrows) {
    sim::RandomStream rng{1};
    PopulationProfile bad;
    EXPECT_THROW((void)generate_population(bad, 10, rng), std::invalid_argument);
}

TEST(ToSpecsTest, PreservesOrderAndFields) {
    sim::RandomStream rng{1};
    const auto devices = generate_population(massive_iot_city(), 50, rng);
    const auto specs = to_specs(devices);
    ASSERT_EQ(specs.size(), devices.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].imsi, devices[i].spec.imsi);
        EXPECT_EQ(specs[i].cycle, devices[i].spec.cycle);
    }
}

TEST(MixedCoverageTest, ProducesNonCe0Devices) {
    sim::RandomStream rng{9};
    const auto devices = generate_population(mixed_coverage_city(), 2'000, rng);
    std::size_t deep = 0;
    for (const auto& d : devices) {
        deep += d.spec.ce_level != nbiot::CeLevel::ce0 ? 1 : 0;
    }
    EXPECT_GT(deep, 100u);  // ~15% expected
    EXPECT_LT(deep, 600u);
}

TEST(FirmwareTest, PaperPayloadSizes) {
    const auto payloads = paper_payloads();
    ASSERT_EQ(payloads.size(), 3u);
    EXPECT_EQ(payloads[0].bytes, 102'400);
    EXPECT_EQ(payloads[1].bytes, 1'048'576);
    EXPECT_EQ(payloads[2].bytes, 10'485'760);
    EXPECT_NEAR(payloads[2].megabytes(), 10.0, 1e-9);
}

}  // namespace
}  // namespace nbmg::traffic
