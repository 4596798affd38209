// End-to-end properties across seeds, profiles and configurations: these
// tests assert the paper's qualitative results hold wherever the model is
// exercised, not just at the benchmark operating point.
#include <gtest/gtest.h>

#include <tuple>

#include "core/experiment.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "scenario/run.hpp"
#include "traffic/firmware.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

using nbiot::SimTime;

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, PaperOrderingHoldsAcrossSeeds) {
    const std::uint64_t seed = GetParam();
    sim::RandomStream rng{seed};
    const auto specs = traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), 100, rng));
    const CampaignConfig config;
    const std::int64_t payload = traffic::firmware_100kb().bytes;

    const CampaignResult unicast =
        plan_and_run(UnicastBaseline{}, specs, config, payload, seed);
    const CampaignResult dr_sc =
        plan_and_run(DrScMechanism{}, specs, config, payload, seed);
    const CampaignResult da_sc =
        plan_and_run(DaScMechanism{}, specs, config, payload, seed);
    const CampaignResult dr_si =
        plan_and_run(DrSiMechanism{}, specs, config, payload, seed);

    // Everyone is served, always.
    EXPECT_TRUE(unicast.all_received());
    EXPECT_TRUE(dr_sc.all_received());
    EXPECT_TRUE(da_sc.all_received());
    EXPECT_TRUE(dr_si.all_received());

    // Bandwidth: 1 = DA-SC = DR-SI < DR-SC < unicast = n.
    EXPECT_EQ(da_sc.total_transmissions(), 1u);
    EXPECT_EQ(dr_si.total_transmissions(), 1u);
    EXPECT_LT(dr_sc.total_transmissions(), specs.size());
    EXPECT_GT(dr_sc.total_transmissions(), 1u);

    // Fig 6(a): DR-SC light sleep identical; DR-SI nearly; DA-SC above.
    const RelativeUptime rel_dr_sc = relative_uptime(dr_sc, unicast);
    const RelativeUptime rel_da_sc = relative_uptime(da_sc, unicast);
    const RelativeUptime rel_dr_si = relative_uptime(dr_si, unicast);
    EXPECT_DOUBLE_EQ(rel_dr_sc.light_sleep_increase, 0.0);
    EXPECT_GE(rel_dr_si.light_sleep_increase, 0.0);
    EXPECT_LT(rel_dr_si.light_sleep_increase, 0.10);
    EXPECT_GT(rel_da_sc.light_sleep_increase, rel_dr_si.light_sleep_increase);

    // Fig 6(b): connected-mode ordering.  DA-SC vs DR-SI differs only by
    // the reconfiguration connection (~0.7 s/device), which per-run wait
    // noise can mask at n = 100; the strict DA-SC > DR-SI inequality is
    // asserted on the mean in ConnectedOrderingInExpectation below.
    EXPECT_GT(rel_dr_sc.connected_increase, 0.0);
    EXPECT_GT(rel_dr_si.connected_increase, rel_dr_sc.connected_increase);
    EXPECT_GT(rel_da_sc.connected_increase, rel_dr_si.connected_increase - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(ConnectedOrderingInExpectation, DaScLongestOnAverage) {
    const scenario::ScenarioResult outcome =
        scenario::run_scenario({.profile = traffic::massive_iot_city(),
                                .device_count = 200,
                                .payload_bytes = traffic::firmware_100kb().bytes,
                                .runs = 6,
                                .base_seed = 1234});
    double da_sc = 0.0;
    double dr_si = 0.0;
    double dr_sc = 0.0;
    for (std::size_t m = 0; m < outcome.mechanism_count(); ++m) {
        const MechanismStats& s = outcome.mechanism_stats(m);
        if (s.kind == MechanismKind::da_sc) da_sc = s.connected_increase.mean();
        if (s.kind == MechanismKind::dr_si) dr_si = s.connected_increase.mean();
        if (s.kind == MechanismKind::dr_sc) dr_sc = s.connected_increase.mean();
    }
    EXPECT_GT(dr_sc, 0.0);
    EXPECT_GT(dr_si, dr_sc);
    EXPECT_GT(da_sc, dr_si) << "DA-SC has the longest connected uptime (Fig. 6b)";
}

class ProfileSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileSweepTest, DeliveryAndSingleTransmissionOnEveryProfile) {
    const auto& profile =
        traffic::builtin_profiles()[static_cast<std::size_t>(GetParam())];
    sim::RandomStream rng{42};
    const auto specs =
        traffic::to_specs(traffic::generate_population(profile, 60, rng));
    const CampaignConfig config;
    const std::int64_t payload = traffic::firmware_100kb().bytes;
    const CampaignResult da_sc =
        plan_and_run(DaScMechanism{}, specs, config, payload, 42);
    EXPECT_TRUE(da_sc.all_received()) << profile.name;
    EXPECT_EQ(da_sc.total_transmissions(), 1u) << profile.name;
    const CampaignResult dr_si =
        plan_and_run(DrSiMechanism{}, specs, config, payload, 42);
    EXPECT_TRUE(dr_si.all_received()) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileSweepTest, ::testing::Range(0, 5));

class TiSweepTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TiSweepTest, LargerWindowsNeedFewerDrScTransmissions) {
    CampaignConfig config;
    config.inactivity_timer = SimTime{GetParam()};
    sim::RandomStream rng{7};
    const auto specs = traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), 150, rng));
    sim::RandomStream plan_rng{1};
    const MulticastPlan plan = DrScMechanism{}.plan(specs, config, plan_rng);
    EXPECT_NO_THROW(validate_plan(plan, specs));
    EXPECT_GE(plan.transmissions.size(), 1u);
    EXPECT_LE(plan.transmissions.size(), specs.size());
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, TiSweepTest,
                         ::testing::Values(10'000, 20'000, 30'000));

TEST(TiMonotonicityTest, TransmissionsDecreaseWithTi) {
    sim::RandomStream rng{11};
    const auto specs = traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), 300, rng));
    std::size_t last = specs.size() + 1;
    for (const std::int64_t ti : {5'000, 10'000, 20'000, 40'000}) {
        CampaignConfig config;
        config.inactivity_timer = SimTime{ti};
        sim::RandomStream plan_rng{1};
        const auto tx = DrScMechanism{}.plan(specs, config, plan_rng).transmissions.size();
        EXPECT_LE(tx, last) << "TI=" << ti;
        last = tx;
    }
}

TEST(ExperimentDriverTest, SingleCellScenarioAggregatesAllMechanisms) {
    const scenario::ScenarioResult outcome =
        scenario::run_scenario({.profile = traffic::massive_iot_city(),
                                .device_count = 50,
                                .payload_bytes = traffic::firmware_100kb().bytes,
                                .runs = 3});
    ASSERT_EQ(outcome.mechanism_count(), 3u);
    for (std::size_t m = 0; m < outcome.mechanism_count(); ++m) {
        EXPECT_EQ(outcome.mechanism_stats(m).transmissions.count(), 3u);
        EXPECT_EQ(outcome.mechanism_stats(m).unreceived_devices.max(), 0.0);
    }
    EXPECT_EQ(outcome.unicast_stats().transmissions.mean(), 50.0);
}

TEST(ExperimentDriverTest, RejectsEmptySetups) {
    EXPECT_THROW((void)scenario::run_scenario({.runs = 0}),
                 std::invalid_argument);
    EXPECT_THROW((void)drsc_transmission_point(traffic::massive_iot_city(), 0,
                                               CampaignConfig{}, 1, 1),
                 std::invalid_argument);
}

TEST(ExperimentDriverTest, TransmissionPointMatchesDirectPlanning) {
    const CampaignConfig config;
    const auto point =
        drsc_transmission_point(traffic::massive_iot_city(), 100, config, 5, 42);
    EXPECT_EQ(point.device_count, 100u);
    EXPECT_EQ(point.transmissions.count(), 5u);
    EXPECT_GT(point.transmissions.mean(), 1.0);
    EXPECT_LT(point.transmissions.mean(), 100.0);
    EXPECT_NEAR(point.transmissions_per_device.mean(),
                point.transmissions.mean() / 100.0, 1e-9);
}

TEST(Fig7ShapeTest, RatioDeclinesWithPopulation) {
    const CampaignConfig config;
    const auto at100 =
        drsc_transmission_point(traffic::massive_iot_city(), 100, config, 10, 42);
    const auto at600 =
        drsc_transmission_point(traffic::massive_iot_city(), 600, config, 10, 42);
    EXPECT_GT(at100.transmissions_per_device.mean(),
              at600.transmissions_per_device.mean());
    // The calibrated operating band of the reproduction (paper: 0.5 -> 0.4).
    EXPECT_NEAR(at100.transmissions_per_device.mean(), 0.52, 0.08);
    EXPECT_NEAR(at600.transmissions_per_device.mean(), 0.41, 0.08);
}

TEST(MixedCoverageTest, DeepCoverageStretchesMulticastAirtime) {
    sim::RandomStream rng{5};
    const auto specs = traffic::to_specs(
        traffic::generate_population(traffic::mixed_coverage_city(), 60, rng));
    const CampaignConfig config;
    const std::int64_t payload = traffic::firmware_100kb().bytes;
    const CampaignResult da_sc =
        plan_and_run(DaScMechanism{}, specs, config, payload, 5);
    EXPECT_TRUE(da_sc.all_received());
    // The shared bearer runs at the deepest member's CE level, so the mean
    // connected uptime far exceeds a CE0-only population's.
    sim::RandomStream rng2{5};
    auto ce0_specs = specs;
    for (auto& d : ce0_specs) d.ce_level = nbiot::CeLevel::ce0;
    const CampaignResult ce0 =
        plan_and_run(DaScMechanism{}, ce0_specs, config, payload, 5);
    EXPECT_GT(mean_connected_ms(da_sc), 2.0 * mean_connected_ms(ce0));
}

TEST(HorizonTest, RecommendedHorizonCoversEveryPlan) {
    sim::RandomStream rng{31};
    const auto specs = traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), 80, rng));
    const CampaignConfig config;
    const std::int64_t payload = traffic::firmware_100kb().bytes;
    const SimTime horizon = recommended_horizon(specs, config, payload);
    for (const MechanismKind kind :
         {MechanismKind::dr_sc, MechanismKind::da_sc, MechanismKind::dr_si}) {
        sim::RandomStream plan_rng{1};
        const MulticastPlan plan = make_mechanism(kind)->plan(specs, config, plan_rng);
        for (const auto& tx : plan.transmissions) {
            EXPECT_LT(tx.start, horizon) << to_string(kind);
        }
    }
}

}  // namespace
}  // namespace nbmg::core
