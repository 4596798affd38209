// Telemetry merge under contention: the TSan-leg companion to
// sweep_stress_test for the new observability layer.
//
// A coordinated 16-cell deployment with trace+metrics on fans
// runs x cells campaign tasks over 8 workers; every task writes its own
// pre-allocated Collector slot (plus per-stratum child sinks absorbed in
// stratum order).  This pins the subsystem's two contracts at once:
// parallel slot writes are race-free (TSan watches the interleavings)
// and every exported artifact — trace JSONL, metrics CSV, Chrome
// timeline — is byte-identical to the serial execution (the EXPECTs
// watch the bits).
#include <gtest/gtest.h>

#include <cstddef>

#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "tests/support/deployment_equal.hpp"

namespace nbmg {
namespace {

constexpr std::size_t kStressThreads = 8;

/// citywide-staggered scaled to stress size, telemetry fully on: the
/// 16-cell topology supplies the concurrent (run, cell) slot writes, the
/// stagger policy exercises the city-level backhaul sink too.
scenario::ScenarioSpec stress_spec(std::size_t threads, std::size_t strata) {
    scenario::ScenarioSpec spec =
        scenario::Registry::instance().preset("citywide-staggered");
    spec.device_count = 320;
    spec.runs = 2;
    spec.threads = threads;
    spec.config.strata = strata;
    spec.telemetry = {.trace = true, .metrics = true};
    return spec;
}

TEST(TelemetryStressTest, EightThreadArtifactsBitIdenticalToSerial) {
    for (const std::size_t strata : {std::size_t{1}, std::size_t{4}}) {
        const scenario::ScenarioResult serial =
            scenario::run_scenario(stress_spec(1, strata));
        const scenario::ScenarioResult fanned =
            scenario::run_scenario(stress_spec(kStressThreads, strata));
        ASSERT_TRUE(serial.telemetry.has_value());
        ASSERT_TRUE(fanned.telemetry.has_value());
        EXPECT_EQ(serial.telemetry->trace_jsonl.str(), fanned.telemetry->trace_jsonl.str())
            << "strata=" << strata;
        ASSERT_TRUE(serial.telemetry->metrics && fanned.telemetry->metrics);
        EXPECT_EQ(serial.telemetry->metrics->to_csv(),
                  fanned.telemetry->metrics->to_csv())
            << "strata=" << strata;
        EXPECT_EQ(serial.telemetry->timeline_json.str(),
                  fanned.telemetry->timeline_json.str())
            << "strata=" << strata;
        // Telemetry on or off, fanned or serial: the simulation results
        // themselves stay bit-identical.
        test_support::expect_deployment_results_equal(fanned.deployment(),
                                                      serial.deployment());
    }
}

}  // namespace
}  // namespace nbmg
