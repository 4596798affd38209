// Golden pins for run_scenario.
//
// Single cell: the paper's fig6a/fig6b/fig7 presets (scaled down), the
// churn preset and a single-run 8-strata smoke with telemetry must
// reproduce the aggregates of the original single-cell comparison engine,
// which has since been folded into the 1-cell deployment.  Its results were
// recorded as 64-bit digests before the fold, at --threads 1 and 8 (equal
// at both): FNV-1a over the little-endian stats::Summary state bytes
// (snapshot::put_summary) of all 12 MechanismStats fields, the unicast row
// first, then each mechanism in spec order.  The DA-SC tail/page-loss file
// (examples/scenarios/dasc_tail.scenario) is pinned the same way, recorded
// on the 1-cell deployment while the UE still ran one event per paging
// occasion through DA-SC's adjustment window.  The two SC-PTM pins were
// recorded while every SC-MCCH read was a queue event.
//
// Multicell: the 16-cell citywide preset must reproduce run_deployment on
// the hand-assembled pre-redesign setup, with and without a coordinator, at
// --threads 1 and 8.  stats::Summary::operator== is bit-exact state
// equality, so any drift in RNG stream derivation, reduction order, or
// field mapping fails loudly.
#include <gtest/gtest.h>

#include <cstdint>

#include "multicell/deployment.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "snapshot/codec.hpp"
#include "tests/support/deployment_equal.hpp"
#include "traffic/firmware.hpp"

namespace nbmg::scenario {
namespace {

using test_support::expect_deployment_results_equal;

/// FNV-1a over a byte string or byte vector.
template <typename Bytes>
std::uint64_t fnv1a(const Bytes& bytes) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (const auto byte : bytes) {
        hash ^= static_cast<unsigned char>(byte);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// The golden digest of a result's aggregates (see the file comment).
std::uint64_t stats_digest(const ScenarioResult& result) {
    snapshot::Writer w;
    const auto put = [&w](const core::MechanismStats& s) {
        for (const stats::Summary* summary :
             {&s.light_sleep_increase, &s.connected_increase, &s.transmissions,
              &s.transmissions_per_device, &s.bytes_ratio,
              &s.recovery_transmissions, &s.unreceived_devices,
              &s.mean_connected_seconds, &s.mean_light_sleep_seconds,
              &s.completion_p99_ms, &s.redelivery_bytes, &s.stranded_devices}) {
            snapshot::put_summary(w, *summary);
        }
    };
    put(result.unicast_stats());
    for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
        put(result.mechanism_stats(m));
    }
    return fnv1a(w.buffer());
}

/// Runs `spec` at --threads 1 and 8 and checks both against `digest`.
void expect_pinned_digest(ScenarioSpec spec, std::uint64_t digest) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        spec.threads = threads;
        EXPECT_EQ(stats_digest(run_scenario(spec)), digest) << "threads " << threads;
    }
}

TEST(ScenarioGoldenTest, Fig6aMatchesPinnedDigest) {
    ScenarioSpec spec = Registry::instance().preset("fig6a");
    spec.device_count = 60;
    spec.runs = 4;
    expect_pinned_digest(spec, 0x005ab34308a4b48bULL);
}

TEST(ScenarioGoldenTest, Fig6bPayloadPointMatchesPinnedDigest) {
    // The 1 MB point of the fig6b shell's payload sweep, recorded when the
    // shell shared one set of pre-generated populations across the sweep:
    // the engine's own per-run fleets must be the same devices.
    ScenarioSpec spec = Registry::instance().preset("fig6b");
    spec.device_count = 50;
    spec.runs = 3;
    spec.payload_bytes = traffic::firmware_1mb().bytes;
    expect_pinned_digest(spec, 0x9d834d007dbbd36aULL);
}

TEST(ScenarioGoldenTest, Fig7DrScMatchesPinnedDigest) {
    ScenarioSpec spec = Registry::instance().preset("fig7");
    spec.device_count = 80;
    spec.runs = 3;
    expect_pinned_digest(spec, 0x4076e43ede1e8ad4ULL);
}

TEST(ScenarioGoldenTest, ChurnMatchesPinnedDigest) {
    expect_pinned_digest(Registry::instance().preset("churn"),
                         0x046770bc98869f3fULL);
}

TEST(ScenarioGoldenTest, DaScTailAndPageLossMatchPinnedDigest) {
    // DA-SC with the inactivity tail on, the one setting in which the
    // release that restores a device's cycle can outlast the adapted
    // cycle, plus lossy paging.
    expect_pinned_digest(
        load_scenario_file(std::string(NBMG_SCENARIO_DIR) + "/dasc_tail.scenario"),
        0x84e2de613c3b9899ULL);
}

TEST(ScenarioGoldenTest, AblationScPtmMatchesPinnedDigest) {
    // SC-PTM's standing SC-MCCH reads, recorded while each read was one
    // queue event charging every device.
    ScenarioSpec spec = Registry::instance().preset("ablation-scptm");
    spec.device_count = 60;
    spec.runs = 3;
    expect_pinned_digest(spec, 0x81c814067165c57fULL);
}

TEST(ScenarioGoldenTest, ScPtmShortMcchPeriodWithChurnAndOutageMatchesPinnedDigest) {
    // The same, at a 100 ms modification period, with churn and a cell
    // that goes dark: reads stop at the outage instant, and off-air
    // devices still pay them.
    ScenarioSpec spec = Registry::instance().preset("ablation-scptm");
    spec.device_count = 80;
    spec.runs = 2;
    spec.config.sc_ptm_mcch_period = nbiot::SimTime{100};
    spec.config.churn = {.leave_rate = 2.0, .rejoin_ms = 60'000};
    spec.topology = TopologySpec{.cells = 4};
    spec.cell_down = faults::OutageSpec{.cell = 1, .at_ms = 600'000};
    expect_pinned_digest(spec, 0x689a802d80f97ed7ULL);
}

TEST(ScenarioGoldenTest, SingleRunStrataWithTelemetryMatchPinnedDigests) {
    // One run, so at --threads 8 the spare workers run the 8 strata.  The
    // telemetry artifacts were pinned alongside the aggregates.
    ScenarioSpec spec = Registry::instance().preset("smoke");
    spec.runs = 1;
    spec.config.strata = 8;
    spec.telemetry = {.trace = true, .metrics = true};
    expect_pinned_digest(spec, 0xf688df06072cda30ULL);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        spec.threads = threads;
        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.telemetry.has_value());
        ASSERT_TRUE(result.telemetry->metrics.has_value());
        EXPECT_EQ(fnv1a(result.telemetry->trace_jsonl.str()), 0x7660a3b858295828ULL);
        EXPECT_EQ(fnv1a(result.telemetry->metrics->to_csv()), 0xb1bc6ab1945d6948ULL);
        EXPECT_EQ(fnv1a(result.telemetry->timeline_json.str()), 0x5be15d0552dfbae4ULL);
    }
}

/// The pre-coordinator 16-cell citywide deployment, hand-assembled as the
/// PR 3 binary did — the golden reference for the coordinator-absent AND
/// coordinator=simultaneous scenarios.
multicell::DeploymentSetup legacy_citywide_setup(std::size_t threads) {
    multicell::DeploymentSetup legacy;
    legacy.profile = traffic::massive_iot_city();
    legacy.device_count = 400;
    legacy.payload_bytes = traffic::firmware_100kb().bytes;
    legacy.runs = 2;
    legacy.base_seed = 42;
    legacy.threads = threads;
    legacy.topology = multicell::CellTopology::uniform(16);
    return legacy;
}

TEST(ScenarioGoldenTest, Citywide16CellsBitIdenticalToRunDeployment) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScenarioSpec spec = Registry::instance().preset("citywide");
        spec.device_count = 400;
        spec.runs = 2;
        spec.threads = threads;
        ASSERT_EQ(spec.cell_count(), 16u);

        const multicell::DeploymentResult expected =
            multicell::run_deployment(legacy_citywide_setup(threads));
        const ScenarioResult result = run_scenario(spec);
        EXPECT_FALSE(result.is_coordinated());
        expect_deployment_results_equal(result.deployment(), expected);
    }
}

TEST(ScenarioGoldenTest, CoordinatorSimultaneousBitIdenticalToRunDeployment) {
    // Acceptance pin: a coordinator=simultaneous scenario reproduces the
    // pre-coordinator run_deployment aggregates bit for bit at threads 1
    // and 8 — the coordinator adds the time axis without perturbing a
    // single campaign number.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScenarioSpec spec = Registry::instance().preset("citywide");
        spec.device_count = 400;
        spec.runs = 2;
        spec.threads = threads;
        spec.coordinator = multicell::CoordinatorSpec{};

        const multicell::DeploymentResult expected =
            multicell::run_deployment(legacy_citywide_setup(threads));
        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.is_coordinated());
        expect_deployment_results_equal(result.deployment(), expected);

        // The simultaneous time axis: no stagger, no feed, everything
        // concurrent from t = 0.
        EXPECT_EQ(result.coordination->completion_ms.count(), 2u);
        EXPECT_DOUBLE_EQ(result.coordination->start_spread_ms.max(), 0.0);
        EXPECT_DOUBLE_EQ(result.coordination->backhaul_busy_ms.max(), 0.0);
        EXPECT_GT(result.coordination->peak_concurrent_cells.min(), 0.0);
    }
}

TEST(ScenarioGoldenTest, StaggeredAndBackhaulKeepCampaignAggregatesGolden) {
    // The stronger form of the same pin: even the non-trivial policies may
    // only add time-axis data on top of the golden campaign aggregates.
    const multicell::DeploymentResult expected =
        multicell::run_deployment(legacy_citywide_setup(1));
    for (const char* preset : {"citywide-staggered", "citywide-backhaul"}) {
        ScenarioSpec spec = Registry::instance().preset(preset);
        spec.device_count = 400;
        spec.runs = 2;
        spec.threads = 1;
        spec.payload_bytes = traffic::firmware_100kb().bytes;

        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.is_coordinated()) << preset;
        expect_deployment_results_equal(result.deployment(), expected);
    }
}

TEST(ScenarioGoldenTest, FullScaleSetupsMatchFieldForField) {
    // Full-scale equivalence without the full-scale runtime: the engine
    // setup of each acceptance-criteria preset equals the pre-redesign
    // binary's hand-built setup field for field, so the runtime identity
    // proven above at small scale carries over unchanged.
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("fig6a"));
        const core::CampaignConfig defaults{};
        // As bench/fig6a_* hand-assembled it, on the paper's single cell.
        EXPECT_EQ(actual.profile.name, "massive_iot_city");
        EXPECT_EQ(actual.device_count, 300u);
        EXPECT_EQ(actual.payload_bytes, traffic::firmware_100kb().bytes);
        EXPECT_EQ(actual.runs, 50u);
        EXPECT_EQ(actual.base_seed, 42u);
        EXPECT_EQ(actual.mechanisms,
                  (std::vector<core::MechanismKind>{core::MechanismKind::dr_sc,
                                                    core::MechanismKind::da_sc,
                                                    core::MechanismKind::dr_si}));
        EXPECT_EQ(actual.config.inactivity_timer, defaults.inactivity_timer);
        EXPECT_EQ(actual.topology.cell_count(), 1u);
    }
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("fig7"));
        EXPECT_EQ(actual.runs, 100u);
        EXPECT_EQ(actual.base_seed, 42u);
        const std::vector<core::MechanismKind> drsc{core::MechanismKind::dr_sc};
        EXPECT_EQ(actual.mechanisms, drsc);
        EXPECT_EQ(actual.profile.name, "massive_iot_city");
    }
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("citywide"));
        EXPECT_EQ(actual.device_count, 6'000u);
        EXPECT_EQ(actual.runs, 2u);
        EXPECT_EQ(actual.base_seed, 42u);
        EXPECT_EQ(actual.topology.cell_count(), 16u);
        EXPECT_EQ(actual.assignment, multicell::AssignmentPolicy::uniform_hash);
    }
}

}  // namespace
}  // namespace nbmg::scenario
