// Property battery for the failure-injection layer: faulted runs (churn,
// cell outage, lossy backhaul) stay bit-identical at any --threads for
// every strata shape — telemetry artifacts byte for byte included — while
// faults-on and faults-off runs genuinely differ; and a checkpointed run
// interrupted before an injected outage resumes to aggregates identical
// to the uninterrupted faulted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "faults/spec.hpp"
#include "scenario/run.hpp"
#include "sim/random.hpp"
#include "snapshot/checkpoint.hpp"
#include "tests/support/deployment_equal.hpp"

namespace nbmg::scenario {
namespace {

struct Shape {
    std::size_t strata;
    std::size_t threads_a;
    std::size_t threads_b;
};

/// A faulted single-cell workload: aggressive churn so departures land in
/// every run, telemetry on so the fault events are compared byte for byte.
ScenarioSpec churn_spec(std::size_t strata) {
    return ScenarioSpec{
        .name = "churn-property",
        .device_count = 50,
        .payload_bytes = 60 * 1024,
        .config = {.churn = {.leave_rate = 40.0, .rejoin_ms = 90'000}, .strata = strata},
        .runs = 3,
        .base_seed = 90'210,
        .telemetry = {.trace = true, .metrics = true}};
}

/// A multicell workload with all three fault classes engaged: churn, a
/// mid-campaign outage of cell 1, and 10% backhaul chunk loss.
ScenarioSpec faulted_city_spec(std::size_t strata) {
    return ScenarioSpec{
        .name = "faulted-city-property",
        .device_count = 120,
        .payload_bytes = 60 * 1024,
        .config = {.churn = {.leave_rate = 20.0, .rejoin_ms = 120'000}, .strata = strata},
        .runs = 2,
        .base_seed = 4'242,
        .topology = TopologySpec{.cells = 3},
        .coordinator =
            multicell::CoordinatorSpec{.policy = multicell::StartPolicy::backhaul_budgeted,
                                       .backhaul_kbps = 256.0,
                                       .loss_prob = 0.1},
        .cell_down = faults::OutageSpec{.cell = 1, .at_ms = 60'000},
        .telemetry = {.trace = true, .metrics = true}};
}

void expect_telemetry_equal(const ScenarioResult& a, const ScenarioResult& b) {
    ASSERT_TRUE(a.telemetry.has_value());
    ASSERT_TRUE(b.telemetry.has_value());
    EXPECT_EQ(a.telemetry->trace_jsonl.str(), b.telemetry->trace_jsonl.str());
    EXPECT_EQ(a.telemetry->timeline_json.str(), b.telemetry->timeline_json.str());
    ASSERT_TRUE(a.telemetry->metrics.has_value());
    ASSERT_TRUE(b.telemetry->metrics.has_value());
    EXPECT_EQ(a.telemetry->metrics->to_csv(), b.telemetry->metrics->to_csv());
}

class FaultDeterminismProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(FaultDeterminismProperty, ChurnedComparisonIsThreadInvariant) {
    const Shape shape = GetParam();
    ScenarioSpec a = churn_spec(shape.strata);
    a.threads = shape.threads_a;
    ScenarioSpec b = churn_spec(shape.strata);
    b.threads = shape.threads_b;
    const ScenarioResult ra = run_scenario(a);
    const ScenarioResult rb = run_scenario(b);
    test_support::expect_deployment_results_equal(ra.deployment(),
                                                  rb.deployment());
    expect_telemetry_equal(ra, rb);
    // The fault process actually fired: the trace carries churn events.
    EXPECT_NE(ra.telemetry->trace_jsonl.str().find("device_leave"), std::string::npos);
}

TEST_P(FaultDeterminismProperty, FaultedCityIsThreadInvariant) {
    const Shape shape = GetParam();
    ScenarioSpec a = faulted_city_spec(shape.strata);
    a.threads = shape.threads_a;
    ScenarioSpec b = faulted_city_spec(shape.strata);
    b.threads = shape.threads_b;
    const ScenarioResult ra = run_scenario(a);
    const ScenarioResult rb = run_scenario(b);
    test_support::expect_deployment_results_equal(ra.deployment(),
                                                  rb.deployment());
    ASSERT_TRUE(ra.coordination.has_value());
    ASSERT_TRUE(rb.coordination.has_value());
    EXPECT_TRUE(ra.coordination->completion_ms == rb.coordination->completion_ms);
    EXPECT_TRUE(ra.coordination->backhaul_busy_ms ==
                rb.coordination->backhaul_busy_ms);
    EXPECT_TRUE(ra.coordination->redelivered_bytes ==
                rb.coordination->redelivered_bytes);
    expect_telemetry_equal(ra, rb);
    // All three fault classes left their marks.
    EXPECT_NE(ra.telemetry->trace_jsonl.str().find("device_leave"), std::string::npos);
    EXPECT_NE(ra.telemetry->trace_jsonl.str().find("cell_outage"), std::string::npos);
    EXPECT_GT(ra.coordination->redelivered_bytes.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FaultDeterminismProperty,
                         ::testing::Values(Shape{1, 1, 8}, Shape{8, 1, 8}),
                         [](const auto& info) {
                             return "strata" + std::to_string(info.param.strata) +
                                    "_t" + std::to_string(info.param.threads_a) +
                                    "v" + std::to_string(info.param.threads_b);
                         });

TEST(FaultDeterminismTest, ChurnOnActuallyDiffersFromOff) {
    ScenarioSpec off = churn_spec(1);
    off.config.churn = faults::ChurnSpec{};
    off.threads = 1;
    ScenarioSpec on = churn_spec(1);
    on.threads = 1;
    const ScenarioResult roff = run_scenario(off);
    const ScenarioResult ron = run_scenario(on);
    // Departed devices sleep through paging occasions they would have
    // monitored, so the light-sleep aggregate cannot coincide.
    EXPECT_FALSE(ron.mechanism_stats(0).mean_light_sleep_seconds ==
                 roff.mechanism_stats(0).mean_light_sleep_seconds);
    EXPECT_EQ(roff.telemetry->trace_jsonl.str().find("device_leave"),
              std::string::npos);
}

TEST(FaultDeterminismTest, CheckpointResumeThroughOutageMatchesUninterrupted) {
    const ScenarioSpec base = faulted_city_spec(8);
    const std::string snap =
        testing::TempDir() + "churn_outage_checkpoint.bin";
    std::remove(snap.c_str());

    ScenarioSpec full = base;
    full.threads = 1;
    const ScenarioResult expected = run_scenario(full);

    // Interrupt after half the (run, cell) grid — before some of the
    // outage-afflicted tasks have executed.
    const std::uint64_t budget = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(base.runs) * base.cell_count() / 2);
    ScenarioSpec interrupted = base;
    interrupted.threads = 1;
    interrupted.checkpoint = {.out = snap, .stop_after = budget};
    bool stopped = false;
    try {
        (void)run_scenario(interrupted);
    } catch (const snapshot::CheckpointStop& stop) {
        stopped = true;
        EXPECT_GE(stop.completed(), budget);
    }
    ASSERT_TRUE(stopped) << "stop budget " << budget << " never fired";

    ScenarioSpec resumed = base;
    resumed.threads = 8;
    resumed.checkpoint.resume = snap;
    const ScenarioResult actual = run_scenario(resumed);
    test_support::expect_deployment_results_equal(actual.deployment(),
                                                  expected.deployment());
    expect_telemetry_equal(actual, expected);
    std::remove(snap.c_str());
}

}  // namespace
}  // namespace nbmg::scenario
