// Allocation budget of a campaign's per-device work.  This binary replaces
// the global operator new and delete with counting versions and holds each
// stage of a fixed 2,000-device campaign (seed 42, one thread) under a
// per-device bound: population, the DR-SC, DA-SC and DR-SI plans, and the
// event loop of all four mechanisms.  A closure that spills to the heap, a
// container node per device or per event, or storage freed and regrown
// every window shows up here as a count, before it shows up as time.
//
// The bounds are the counts this code makes (noted beside each), with
// headroom.  The unicast plan is left out: it holds one device list per
// transmission, so it allocates per device by design.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/mechanism.hpp"
#include "sim/random.hpp"
#include "tests/support/counting_new.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

constexpr std::size_t kDevices = 2'000;
constexpr std::uint64_t kSeed = 42;
constexpr std::int64_t kPayloadBytes = 100 * 1024;

/// Operator-new calls made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
    const std::uint64_t before = test_support::allocation_count();
    fn();
    return test_support::allocation_count() - before;
}

const std::vector<nbiot::UeSpec>& fleet() {
    static const std::vector<nbiot::UeSpec> specs = [] {
        sim::RandomStream rng{kSeed};
        return traffic::to_specs(
            traffic::generate_population(traffic::massive_iot_city(), kDevices, rng));
    }();
    return specs;
}

MulticastPlan plan_of(MechanismKind kind, std::span<const nbiot::UeSpec> devices) {
    sim::RandomStream rng{sim::derive_seed(kSeed, "planner")};
    return make_mechanism(kind)->plan(devices, CampaignConfig{}, rng);
}

/// Allocations per device a stage may make.
struct Budget {
    MechanismKind kind;
    double per_device;
};

/// Checks `n` against `per_device` allocations per device of the fleet.
void expect_within(std::uint64_t n, double per_device) {
    EXPECT_LE(static_cast<double>(n), per_device * kDevices)
        << n << " allocations for " << kDevices << " devices";
}

TEST(AllocationBudgetTest, PopulationAllocatesPerFleet) {
    const traffic::PopulationProfile profile = traffic::massive_iot_city();
    std::vector<traffic::GeneratedDevice> devices;
    const std::uint64_t n = allocations_in([&] {
        sim::RandomStream rng{kSeed};
        devices = traffic::generate_population(profile, kDevices, rng);
    });
    ASSERT_EQ(devices.size(), kDevices);
    expect_within(n, 0.01);  // 14
}

TEST(AllocationBudgetTest, PlansAllocatePerFleet) {
    // DR-SC's plan keeps one device list per transmission and per cover
    // window, about 1.5 allocations per device.
    for (const Budget budget : {Budget{MechanismKind::dr_sc, 2.0},    // 2,937
                                Budget{MechanismKind::da_sc, 0.02},   // 17
                                Budget{MechanismKind::dr_si, 0.02}}) {  // 16
        SCOPED_TRACE(to_string(budget.kind));
        const std::vector<nbiot::UeSpec>& devices = fleet();
        MulticastPlan plan;
        const std::uint64_t n =
            allocations_in([&] { plan = plan_of(budget.kind, devices); });
        ASSERT_EQ(plan.schedules.size(), kDevices);
        expect_within(n, budget.per_device);
    }
}

TEST(AllocationBudgetTest, CampaignsAllocatePerFleet) {
    const CampaignRunner runner(CampaignConfig{}, 1);
    const nbiot::SimTime horizon =
        recommended_horizon(fleet(), CampaignConfig{}, kPayloadBytes);
    for (const Budget budget : {Budget{MechanismKind::unicast, 0.2},  // 219
                                Budget{MechanismKind::dr_sc, 0.2},    // 254
                                Budget{MechanismKind::da_sc, 0.3},    // 398
                                Budget{MechanismKind::dr_si, 0.25}}) {  // 347
        SCOPED_TRACE(to_string(budget.kind));
        const MulticastPlan plan = plan_of(budget.kind, fleet());
        CampaignResult result;
        const std::uint64_t n = allocations_in(
            [&] { result = runner.run(plan, fleet(), kPayloadBytes, horizon, kSeed); });
        ASSERT_EQ(result.devices.size(), kDevices);
        EXPECT_GT(result.rach_attempts, 0u);
        expect_within(n, budget.per_device);
    }
}

}  // namespace
}  // namespace nbmg::core
