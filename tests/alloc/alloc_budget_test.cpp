// Allocation budget of a campaign's per-device work.  This binary replaces
// the global operator new and delete with counting versions and holds each
// stage of a fixed 2,000-device campaign (seed 42, one thread) under a
// per-device bound: population, the plans of all five mechanisms, and the
// event loop of the four that page.  A closure that spills to the heap, a
// container node per device or per event, or storage freed and regrown
// every window shows up here as a count, before it shows up as time.
//
// The bounds are the counts this code makes (noted beside each), with
// headroom.
//
// The trace's memory bound rides the same counters: a run renders no trace
// it was not asked for, and trace_out holds one window of it at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/mechanism.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "sim/random.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "tests/support/counting_new.hpp"
#include "tests/support/same_render.hpp"
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
    for (const Budget budget : {Budget{MechanismKind::dr_sc, 2.0},     // 2,937
                                Budget{MechanismKind::da_sc, 0.02},    // 17
                                Budget{MechanismKind::dr_si, 0.02},    // 16
                                Budget{MechanismKind::unicast, 0.02},  // 3
                                Budget{MechanismKind::sc_ptm, 0.02}}) {  // 15
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
    for (const Budget budget : {Budget{MechanismKind::unicast, 0.2},  // 217
                                Budget{MechanismKind::dr_sc, 0.2},    // 252
                                Budget{MechanismKind::da_sc, 0.3},    // 396
                                Budget{MechanismKind::dr_si, 0.25}}) {  // 345
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

/// The 16-cell backhaul preset with the trace on, at two threads.
scenario::ScenarioSpec traced_city(std::size_t devices, std::size_t runs) {
    scenario::ScenarioSpec spec = scenario::Registry::instance().preset("citywide-backhaul");
    spec.device_count = devices;
    spec.runs = runs;
    spec.threads = 2;
    spec.telemetry = {.trace = true};
    return spec;
}

TEST(TraceMemoryBoundTest, RunWithoutTraceOutHoldsNoRenderedTrace) {
    const scenario::ScenarioSpec spec = traced_city(400, 4);  // 46,412 records
    test_support::reset_largest_allocation();
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const std::size_t largest = test_support::largest_allocation();
    ASSERT_TRUE(result.telemetry.has_value());
    EXPECT_LT(largest, result.telemetry->trace_jsonl.str().size());
}

TEST(TraceMemoryBoundTest, TraceOutHoldsOneWindowAtATime) {
    scenario::ScenarioSpec spec = traced_city(3'000, 4);  // 346,583 records
    spec.telemetry.trace_out = testing::TempDir() + "alloc_budget_trace.jsonl";
    test_support::reset_largest_allocation();
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const std::size_t largest = test_support::largest_allocation();
    ASSERT_TRUE(result.telemetry.has_value());
    ASSERT_GT(result.telemetry->collector->trace_records(), 2 * telemetry::kTraceWindowRecords);

    const std::string& trace = result.telemetry->trace_jsonl.str();
    std::ifstream file(spec.telemetry.trace_out, std::ios::binary);
    const std::string written{std::istreambuf_iterator<char>(file), {}};
    std::remove(spec.telemetry.trace_out.c_str());
    EXPECT_TRUE(test_support::same_render(written, trace));

    // The largest window's bytes, from the lines of the whole render.
    std::size_t window = 0;
    std::size_t start = 0;
    std::size_t lines = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i] == '\n' && ++lines % telemetry::kTraceWindowRecords == 0) {
            window = std::max(window, i + 1 - start);
            start = i + 1;
        }
    }
    window = std::max(window, trace.size() - start);
    EXPECT_LE(largest, window + 1)  // the string's terminator
        << "a window holds " << window << " of the trace's " << trace.size() << " bytes";
}

}  // namespace
}  // namespace nbmg::core
