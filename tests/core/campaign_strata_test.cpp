// Intra-cell parallelism: paging-frame strata over the sweep pool.
//
// Pins the three contracts of the stratified campaign path:
//  1. resolve_strata's documented rounding rule (largest power of two <=
//     the request, capped at kMaxStrata, 0 rejected),
//  2. paging_stratum is a total partition key that is invariant under the
//     DA-SC ladder adaptation (every allowed stratum count divides every
//     cycle's frame length), and
//  3. the merged stratified result is bit-identical at any strata_threads
//     — the executed strata count is a model knob, the thread count never
//     is.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "nbiot/paging.hpp"
#include "sim/random.hpp"
#include "tests/support/campaign_equal.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

std::vector<nbiot::UeSpec> population(std::size_t devices, std::uint64_t seed) {
    sim::RandomStream rng{seed};
    return traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), devices, rng));
}

CampaignResult run_campaign(MechanismKind kind,
                            std::span<const nbiot::UeSpec> specs,
                            const CampaignConfig& config,
                            std::size_t strata_threads) {
    const auto mechanism = make_mechanism(kind);
    return plan_and_run(*mechanism, specs, config, 64 * 1024, 99, strata_threads);
}

TEST(ResolveStrataTest, RoundsDownToLargestPowerOfTwo) {
    EXPECT_EQ(resolve_strata(1), 1u);
    EXPECT_EQ(resolve_strata(2), 2u);
    EXPECT_EQ(resolve_strata(3), 2u);
    EXPECT_EQ(resolve_strata(4), 4u);
    EXPECT_EQ(resolve_strata(7), 4u);
    EXPECT_EQ(resolve_strata(8), 8u);
    EXPECT_EQ(resolve_strata(15), 8u);
    EXPECT_EQ(resolve_strata(16), 16u);
    EXPECT_EQ(resolve_strata(31), 16u);
    EXPECT_EQ(resolve_strata(32), 32u);
}

TEST(ResolveStrataTest, CapsAtMaxStrata) {
    EXPECT_EQ(resolve_strata(33), 32u);
    EXPECT_EQ(resolve_strata(100), 32u);
    EXPECT_EQ(resolve_strata(1u << 20), 32u);
}

TEST(ResolveStrataTest, RejectsZero) {
    EXPECT_THROW((void)resolve_strata(0), std::invalid_argument);
}

TEST(PagingStratumTest, PartitionsEveryDeviceIntoRange) {
    const auto specs = population(500, 7);
    const nbiot::PagingSchedule paging{{}};
    for (const std::size_t strata : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}, std::size_t{32}}) {
        std::vector<std::size_t> counts(strata, 0);
        for (const nbiot::UeSpec& spec : specs) {
            const std::size_t s = paging_stratum(paging, spec, strata);
            ASSERT_LT(s, strata);
            ++counts[s];
        }
        std::size_t total = 0;
        for (const std::size_t c : counts) total += c;
        EXPECT_EQ(total, specs.size()) << "strata=" << strata;
    }
}

TEST(PagingStratumTest, InvariantUnderLadderAdaptation) {
    // The stratum must not move when DA-SC walks a device down the cycle
    // ladder: every allowed stratum count (power of two <= 32) divides
    // every cycle's frame length (32 * 2^k frames), so the paging-frame
    // residue mod strata is the same at every rung.
    const auto specs = population(300, 11);
    const nbiot::PagingSchedule paging{{}};
    for (const std::size_t strata : {std::size_t{2}, std::size_t{4},
                                     std::size_t{8}, std::size_t{16},
                                     std::size_t{32}}) {
        for (nbiot::UeSpec spec : specs) {
            const std::size_t original = paging_stratum(paging, spec, strata);
            while (spec.cycle.has_shorter()) {
                spec.cycle = spec.cycle.shorter();
                EXPECT_EQ(paging_stratum(paging, spec, strata), original)
                    << "imsi=" << spec.imsi.value
                    << " cycle_index=" << spec.cycle.index()
                    << " strata=" << strata;
            }
        }
    }
}

class StrataDeterminismTest
    : public ::testing::TestWithParam<std::tuple<MechanismKind, std::size_t>> {};

TEST_P(StrataDeterminismTest, BitIdenticalAcrossThreadCounts) {
    const auto [kind, strata] = GetParam();
    const auto specs = population(300, 17);
    CampaignConfig config;
    config.strata = strata;
    config.background_ra_per_second = 2.0;
    config.page_miss_prob = 0.05;

    const CampaignResult serial = run_campaign(kind, specs, config, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const CampaignResult fanned = run_campaign(kind, specs, config, threads);
        test_support::expect_campaign_results_equal(fanned, serial);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsByStrata, StrataDeterminismTest,
    ::testing::Combine(::testing::Values(MechanismKind::dr_sc,
                                         MechanismKind::da_sc,
                                         MechanismKind::dr_si,
                                         MechanismKind::unicast,
                                         MechanismKind::sc_ptm),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}, std::size_t{32})),
    [](const auto& info) {
        std::string name = to_string(std::get<0>(info.param));
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name + "_strata" + std::to_string(std::get<1>(info.param));
    });

TEST(StrataCampaignTest, RequestedCountRoundsLikeResolveStrata) {
    // strata = 3 runs the resolved 2-stratum model and strata = 7 the
    // 4-stratum one: the documented rounding rule is observable end to end.
    const auto specs = population(200, 23);
    CampaignConfig three;
    three.strata = 3;
    CampaignConfig two;
    two.strata = 2;
    test_support::expect_campaign_results_equal(
        run_campaign(MechanismKind::dr_si, specs, three, 2),
        run_campaign(MechanismKind::dr_si, specs, two, 1));

    CampaignConfig seven;
    seven.strata = 7;
    CampaignConfig four;
    four.strata = 4;
    test_support::expect_campaign_results_equal(
        run_campaign(MechanismKind::da_sc, specs, seven, 8),
        run_campaign(MechanismKind::da_sc, specs, four, 1));
}

TEST(StrataCampaignTest, PopulationSmallerThanStrataLeavesStrataEmpty) {
    // 3 devices cannot fill 32 strata; the empty ones are skipped and the
    // merged result still covers every device exactly once.
    const auto specs = population(3, 31);
    CampaignConfig config;
    config.strata = 32;
    const CampaignResult serial =
        run_campaign(MechanismKind::unicast, specs, config, 1);
    const CampaignResult fanned =
        run_campaign(MechanismKind::unicast, specs, config, 8);
    test_support::expect_campaign_results_equal(fanned, serial);
    ASSERT_EQ(serial.devices.size(), 3u);
    for (std::size_t i = 0; i < serial.devices.size(); ++i) {
        EXPECT_EQ(serial.devices[i].spec.device.value, i);
        EXPECT_TRUE(serial.devices[i].received);
    }
}

TEST(StrataCampaignTest, UnservedDevicesReachTheResultAtAnyStrata) {
    // 30 devices on identical paging occasions, one page record per
    // occasion: every paging kind leaves devices without a delivery, and
    // the result counts exactly the schedules that have none, whether the
    // campaign runs as one cell or through the stratified merge.
    std::vector<nbiot::UeSpec> specs;
    for (std::uint32_t i = 0; i < 30; ++i) {
        specs.push_back(nbiot::UeSpec{nbiot::DeviceId{i},
                                      nbiot::Imsi{(std::uint64_t{1} << 20) * i + 5},
                                      nbiot::drx::seconds_10485_76(), nbiot::CeLevel::ce0});
    }
    CampaignConfig config;
    config.paging.max_page_records = 1;
    constexpr std::int64_t kPayload = 64 * 1024;
    const nbiot::SimTime horizon = recommended_horizon(specs, config, kPayload);
    for (const MechanismKind kind : {MechanismKind::unicast, MechanismKind::dr_sc,
                                     MechanismKind::da_sc, MechanismKind::dr_si,
                                     MechanismKind::sc_ptm}) {
        SCOPED_TRACE(to_string(kind));
        sim::RandomStream rng{99};
        const MulticastPlan plan = make_mechanism(kind)->plan(specs, config, rng);
        const auto unserved = static_cast<std::size_t>(
            std::count_if(plan.schedules.begin(), plan.schedules.end(),
                          [](const DeviceSchedule& s) { return !s.served(); }));
        if (kind != MechanismKind::sc_ptm) {
            EXPECT_GT(unserved, 0u);
        }
        for (const std::size_t strata : {std::size_t{1}, std::size_t{8}}) {
            CampaignConfig stratified = config;
            stratified.strata = strata;
            const CampaignResult result =
                CampaignRunner(stratified, 2).run(plan, specs, kPayload, horizon, 99);
            EXPECT_EQ(result.unserved, unserved) << "strata=" << strata;
        }
    }
}

TEST(StrataCampaignTest, InvalidStratumCountRejected) {
    CampaignConfig config;
    config.strata = 0;
    EXPECT_THROW(CampaignRunner runner(config), std::invalid_argument);
    config.strata = kMaxStrata + 1;
    EXPECT_THROW(CampaignRunner runner(config), std::invalid_argument);
}

}  // namespace
}  // namespace nbmg::core
