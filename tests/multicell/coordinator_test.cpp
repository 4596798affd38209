// Determinism battery for the city-wide wall-clock coordinator
// (multicell/coordinator.hpp), pinning the contracts the scenario layer
// builds on:
//  - a coordinated scenario's DeploymentResult is bit-identical to the
//    uncoordinated one for every start policy (coordination is a pure
//    post-pass over the recorded spans),
//  - the simultaneous policy reproduces the pre-coordinator goldens: same
//    campaign aggregates, time axis equal to the per-cell horizons,
//  - fleet time-axis aggregates are bit-identical at --threads {1, 2, 8},
//  - schedule_run's policy arithmetic (stagger offsets, serial backhaul
//    admission in most-devices-first order, peak-overlap counting) matches
//    hand-computed expectations.
#include "multicell/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/run.hpp"
#include "tests/support/deployment_equal.hpp"
#include "traffic/population.hpp"

namespace nbmg::multicell {
namespace {

DeploymentSetup small_setup(std::size_t cells) {
    DeploymentSetup setup;
    setup.profile = traffic::massive_iot_city();
    setup.device_count = 120;
    setup.payload_bytes = 20 * 1024;
    setup.runs = 3;
    setup.base_seed = 42;
    setup.threads = 1;
    setup.topology = CellTopology::uniform(cells);
    return setup;
}

CoordinatorSpec stagger(std::int64_t ms) {
    CoordinatorSpec spec;
    spec.policy = StartPolicy::fixed_stagger;
    spec.stagger_ms = ms;
    return spec;
}

CoordinatorSpec backhaul(double kbps) {
    CoordinatorSpec spec;
    spec.policy = StartPolicy::backhaul_budgeted;
    spec.backhaul_kbps = kbps;
    return spec;
}

using test_support::expect_deployment_results_equal;

/// The deployment of `setup` and its coordination under `coordinator`.
struct Coordinated {
    DeploymentResult deployment;
    CoordinationAggregates coordination;
};
Coordinated coordinate(const DeploymentSetup& setup, const CoordinatorSpec& coordinator) {
    Coordinated out{run_deployment(setup), {}};
    out.coordination = coordinate_deployment(out.deployment, coordinator, setup.payload_bytes);
    return out;
}

void expect_coordination_equal(const CoordinationAggregates& a,
                               const CoordinationAggregates& b) {
    EXPECT_TRUE(a.completion_ms == b.completion_ms);
    EXPECT_TRUE(a.peak_concurrent_cells == b.peak_concurrent_cells);
    EXPECT_TRUE(a.start_spread_ms == b.start_spread_ms);
    EXPECT_TRUE(a.backhaul_busy_ms == b.backhaul_busy_ms);
    EXPECT_TRUE(a.backhaul_utilization == b.backhaul_utilization);
    ASSERT_EQ(a.timelines.size(), b.timelines.size());
    for (std::size_t run = 0; run < a.timelines.size(); ++run) {
        EXPECT_EQ(a.timelines[run].completion_ms, b.timelines[run].completion_ms);
        EXPECT_EQ(a.timelines[run].peak_concurrent_cells,
                  b.timelines[run].peak_concurrent_cells);
        ASSERT_EQ(a.timelines[run].cells.size(), b.timelines[run].cells.size());
        for (std::size_t c = 0; c < a.timelines[run].cells.size(); ++c) {
            EXPECT_EQ(a.timelines[run].cells[c].start_ms,
                      b.timelines[run].cells[c].start_ms);
            EXPECT_EQ(a.timelines[run].cells[c].end_ms,
                      b.timelines[run].cells[c].end_ms);
        }
    }
}

TEST(CoordinatorTest, EveryPolicyKeepsDeploymentBitIdentical) {
    // run_scenario coordinates after the engine ran, so every policy leaves
    // the uncoordinated scenario's campaign aggregates untouched.
    scenario::ScenarioSpec spec{.device_count = 120,
                                .payload_bytes = 20 * 1024,
                                .runs = 3,
                                .threads = 1,
                                .topology = scenario::TopologySpec{.cells = 4}};
    const DeploymentResult reference = scenario::run_scenario(spec).outcome;
    for (const CoordinatorSpec& coordinator :
         {CoordinatorSpec{}, stagger(20'000), backhaul(256.0)}) {
        spec.coordinator = coordinator;
        const scenario::ScenarioResult coordinated = scenario::run_scenario(spec);
        ASSERT_TRUE(coordinated.is_coordinated());
        expect_deployment_results_equal(coordinated.outcome, reference);
    }
}

TEST(CoordinatorTest, SimultaneousReproducesPreCoordinatorTimeAxis) {
    const DeploymentSetup setup = small_setup(4);
    const Coordinated result = coordinate(setup, CoordinatorSpec{});
    ASSERT_EQ(result.coordination.timelines.size(), setup.runs);
    for (std::size_t run = 0; run < setup.runs; ++run) {
        const RunTimeline& timeline = result.coordination.timelines[run];
        std::int64_t max_horizon = 0;
        std::size_t active = 0;
        for (std::size_t c = 0; c < 4; ++c) {
            const CellRunSpan& span = result.deployment.span(run, c);
            const CellSchedule& slot = timeline.cells[c];
            EXPECT_EQ(slot.start_ms, 0);
            EXPECT_EQ(slot.end_ms, span.horizon_ms);
            if (span.devices > 0) {
                max_horizon = std::max(max_horizon, span.horizon_ms);
                ++active;
            }
        }
        // Everything starts at zero: the city completes when the slowest
        // cell's horizon ends, every active cell overlaps, and the feed is
        // untouched.
        EXPECT_EQ(timeline.completion_ms, max_horizon);
        EXPECT_EQ(timeline.peak_concurrent_cells, active);
        EXPECT_EQ(timeline.start_spread_ms, 0);
        EXPECT_EQ(timeline.backhaul_busy_ms, 0);
        EXPECT_EQ(timeline.backhaul_utilization, 0.0);
    }
}

TEST(CoordinatorTest, AggregatesBitIdenticalAcrossThreadCounts) {
    for (const CoordinatorSpec& coordinator :
         {CoordinatorSpec{}, stagger(15'000), backhaul(64.0)}) {
        DeploymentSetup setup = small_setup(4);
        setup.threads = 1;
        const Coordinated serial = coordinate(setup, coordinator);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
            setup.threads = threads;
            const Coordinated threaded = coordinate(setup, coordinator);
            expect_deployment_results_equal(threaded.deployment, serial.deployment);
            expect_coordination_equal(threaded.coordination, serial.coordination);
        }
    }
}

TEST(CoordinatorTest, FixedStaggerOffsetsAreTopologyOrderTimesStagger) {
    const DeploymentSetup setup = small_setup(5);
    const std::int64_t step = 10'000;
    const Coordinated result = coordinate(setup, stagger(step));
    for (const RunTimeline& timeline : result.coordination.timelines) {
        std::int64_t last_active_start = 0;
        for (std::size_t c = 0; c < timeline.cells.size(); ++c) {
            const CellSchedule& slot = timeline.cells[c];
            if (!slot.active) continue;
            EXPECT_EQ(slot.start_ms, static_cast<std::int64_t>(c) * step);
            last_active_start = slot.start_ms;
        }
        EXPECT_GT(timeline.start_spread_ms, 0);
        EXPECT_LE(timeline.start_spread_ms, last_active_start);
    }
}

TEST(CoordinatorTest, StaggerBeyondSpanSerializesTheCity) {
    // A stagger longer than any cell's campaign span means no two cells
    // are ever active together, and the city completes at the last start
    // plus that cell's span.
    const DeploymentSetup setup = small_setup(3);
    const DeploymentResult plain = run_deployment(setup);
    std::int64_t max_horizon = 0;
    for (const CellRunSpan& span : plain.spans) {
        max_horizon = std::max(max_horizon, span.horizon_ms);
    }
    const CoordinationAggregates coordination =
        coordinate_deployment(plain, stagger(max_horizon + 1), setup.payload_bytes);
    for (const RunTimeline& timeline : coordination.timelines) {
        EXPECT_EQ(timeline.peak_concurrent_cells, 1u);
    }
}

TEST(CoordinatorTest, BackhaulAdmitsMostLoadedCellFirstOverASerialFeed) {
    const CoordinatorSpec coordinator = backhaul(128.0);  // KB/s
    const std::int64_t payload = 64 * 1024;               // -> 500 ms per cell
    const std::vector<CellRunSpan> spans{
        {10, 400'000}, {30, 400'000}, {0, 0}, {20, 400'000}};
    const RunTimeline timeline = schedule_run(coordinator, spans, payload);

    // Priority order is devices-descending (cells 1, 3, 0); the empty cell
    // 2 consumes no feed time.  The serial feed finishes delivery k at
    // (k + 1) * 500 ms, and a cell starts when its image lands.
    EXPECT_EQ(timeline.cells[1].start_ms, 500);
    EXPECT_EQ(timeline.cells[3].start_ms, 1'000);
    EXPECT_EQ(timeline.cells[0].start_ms, 1'500);
    EXPECT_FALSE(timeline.cells[2].active);
    EXPECT_EQ(timeline.backhaul_busy_ms, 1'500);
    EXPECT_EQ(timeline.completion_ms, 401'500);
    EXPECT_EQ(timeline.start_spread_ms, 1'000);
    EXPECT_EQ(timeline.peak_concurrent_cells, 3u);
    EXPECT_DOUBLE_EQ(timeline.backhaul_utilization, 1'500.0 / 401'500.0);
}

TEST(CoordinatorTest, BackhaulTiesBreakByAscendingCellId) {
    const std::vector<CellRunSpan> spans{{20, 1'000}, {20, 1'000}, {20, 1'000}};
    const RunTimeline timeline =
        schedule_run(backhaul(1024.0), spans, 1024);  // 1 ms per delivery
    EXPECT_EQ(timeline.cells[0].start_ms, 1);
    EXPECT_EQ(timeline.cells[1].start_ms, 2);
    EXPECT_EQ(timeline.cells[2].start_ms, 3);
}

TEST(CoordinatorTest, PeakOverlapTreatsIntervalsAsHalfOpen) {
    // Cell 0 ends exactly when cell 1 starts: back-to-back, not concurrent.
    const std::vector<CellRunSpan> spans{{5, 10'000}, {5, 10'000}};
    const RunTimeline timeline = schedule_run(stagger(10'000), spans, 1024);
    EXPECT_EQ(timeline.cells[0].end_ms, timeline.cells[1].start_ms);
    EXPECT_EQ(timeline.peak_concurrent_cells, 1u);
}

TEST(CoordinatorTest, InvalidSpecsThrow) {
    const DeploymentSetup setup = small_setup(2);
    const DeploymentResult deployment = run_deployment(setup);

    CoordinatorSpec mixed_knobs;  // stagger on a simultaneous policy
    mixed_knobs.stagger_ms = 5'000;
    EXPECT_FALSE(mixed_knobs.valid());
    EXPECT_THROW(
        (void)coordinate_deployment(deployment, mixed_knobs, setup.payload_bytes),
        std::invalid_argument);

    CoordinatorSpec no_budget;  // backhaul without a feed budget
    no_budget.policy = StartPolicy::backhaul_budgeted;
    EXPECT_FALSE(no_budget.valid());
    EXPECT_THROW((void)coordinate_deployment(deployment, no_budget, setup.payload_bytes),
                 std::invalid_argument);

    EXPECT_TRUE(CoordinatorSpec{}.valid());
    EXPECT_TRUE(stagger(0).valid());
    EXPECT_TRUE(backhaul(0.5).valid());
}

TEST(CoordinatorTest, StartPolicySpellingsRoundTrip) {
    for (const StartPolicy policy :
         {StartPolicy::simultaneous, StartPolicy::fixed_stagger,
          StartPolicy::backhaul_budgeted}) {
        const auto parsed = parse_start_policy(to_string(policy));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(parse_start_policy("staggered").has_value());
    EXPECT_FALSE(parse_start_policy("").has_value());
}

}  // namespace
}  // namespace nbmg::multicell
