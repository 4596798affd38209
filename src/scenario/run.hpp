// The single entry point of the scenario API: run_scenario(spec) validates
// the spec, runs it on multicell::run_deployment (a spec without a
// topology is the 1-cell deployment), and returns a ScenarioResult.
//
// Determinism: aggregates are bit-identical to calling run_deployment on
// scenario::to_deployment_setup(spec) directly, at any --threads, and the
// single-cell paper presets reproduce their pinned golden digests
// (tests/scenario/scenario_golden_test.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "scenario/spec.hpp"
#include "stats/table.hpp"

namespace nbmg::telemetry {
class Collector;
}  // namespace nbmg::telemetry

namespace nbmg::scenario {

/// A text artifact rendered on its first read, then kept.  Copies share the
/// one render, and concurrent reads are safe: str() renders under
/// std::call_once.  A default-constructed text reads "".
class DeferredText {
public:
    DeferredText() = default;
    /// `render` must own what it reads: the text may be read after the
    /// ScenarioResult that made it has been moved or destroyed.
    explicit DeferredText(std::function<std::string()> render);

    [[nodiscard]] const std::string& str() const;

    /// Exists only for one line of perfbench's traced pass, which binds the
    /// trace to a const std::string& through ?: against a std::string.
    operator const std::string&() const { return str(); }  // NOLINT(google-explicit-constructor)

private:
    struct State;
    std::shared_ptr<State> state_;
};

/// The telemetry artifacts of one scenario run (present on ScenarioResult
/// when the spec enabled telemetry).  Every artifact is a deterministic
/// function of (spec, seed): byte-identical at any --threads, and the
/// campaign aggregates are bit-identical to the telemetry-off run.
///
/// The trace and the timeline render only when read (the timeline also when
/// timeline_out writes it); trace_out streams the trace window by window
/// (telemetry::write_trace_jsonl) without holding it whole.  They render from
/// what the report owns, so a report copied or moved out of its
/// ScenarioResult stays readable after the result is gone.
struct TelemetryReport {
    /// The request that produced this report.
    TelemetrySpec config;
    /// The finished collector the artifacts render from.
    std::shared_ptr<const telemetry::Collector> collector;
    /// Typed trace as JSONL, one record per line in deterministic
    /// (run, cell, campaign, emission) order ("" when trace was off).
    DeferredText trace_jsonl;
    /// Counter registry + sim-time-bucketed series (absent when metrics
    /// collection was off); metrics_out writes its to_csv().
    std::optional<stats::Table> metrics;
    /// Chrome trace_event phase timeline — per-cell campaign spans,
    /// per-stratum sub-spans, backhaul feed busy intervals — loadable in
    /// chrome://tracing / Perfetto ("" when trace was off).
    DeferredText timeline_json;
};

/// The deployment engine's result plus the scenario-level reports.
struct ScenarioResult {
    ScenarioSpec spec;
    multicell::DeploymentResult outcome;
    /// Present when the spec engaged the wall-clock coordinator: the fleet
    /// time-axis aggregates (city-wide completion, peak concurrent cells,
    /// backhaul utilization).  The campaign aggregates in `outcome` are
    /// bit-identical to the coordinator-absent run.
    std::optional<multicell::CoordinationAggregates> coordination;
    /// Present when the spec enabled telemetry (TelemetrySpec::enabled).
    std::optional<TelemetryReport> telemetry;

    [[nodiscard]] bool is_coordinated() const noexcept {
        return coordination.has_value();
    }
    [[nodiscard]] const multicell::DeploymentResult& deployment() const noexcept {
        return outcome;
    }

    /// Fleet-wide per-run aggregate stats of the unicast reference.
    [[nodiscard]] const core::MechanismStats& unicast_stats() const noexcept {
        return outcome.unicast;
    }
    /// Fleet-wide aggregates of spec.mechanisms[index] (same order).
    [[nodiscard]] const core::MechanismStats& mechanism_stats(
        std::size_t index) const {
        return outcome.mechanisms.at(index);
    }
    [[nodiscard]] std::size_t mechanism_count() const noexcept {
        return outcome.mechanisms.size();
    }

    /// The paper's headline aggregates, one row per mechanism
    /// (core::mechanism_summary_table); summary_csv() is its CSV rendering.
    [[nodiscard]] stats::Table summary_table() const;
    [[nodiscard]] std::string summary_csv() const;

    /// Time-axis report of a coordinated scenario: one row per metric
    /// (city completion, start spread, peak concurrent cells, backhaul
    /// busy/utilization) with mean/min/max across runs.  Throws
    /// std::logic_error when no coordinator ran.
    [[nodiscard]] stats::Table coordination_table() const;
    [[nodiscard]] std::string coordination_csv() const;
};

/// Validates and runs `spec`.  Throws std::invalid_argument on an invalid
/// spec (see ScenarioSpec::validate) and ScenarioError (scenario/parser.hpp)
/// when a telemetry output file cannot be written.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Shell-friendly wrapper: run_scenario, but an invalid spec or an
/// unwritable telemetry output exits with a diagnostic and status 2 (the
/// CLI layer's usage-error status) instead of throwing.  Every bench and
/// example shell that accepts --trace-out/--metrics-out/--timeline-out
/// goes through this, and tests/scenario/ pins the death behaviour.
[[nodiscard]] ScenarioResult run_scenario_or_exit(const ScenarioSpec& spec);

}  // namespace nbmg::scenario
