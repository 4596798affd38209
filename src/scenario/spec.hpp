// Unified scenario API: one declarative spec for every experiment driver.
//
// A ScenarioSpec describes a complete workload — population, device count,
// payload, campaign configuration, runs/seed/threads, the mechanism list
// and (optionally) a multicell topology + assignment policy — and
// run_scenario (scenario/run.hpp) runs it on the deployment engine
// (multicell::run_deployment; no topology = one cell).  The spec is
// builder-style (chained with_* setters), validated, and serializable
// to/from the simple `key = value` scenario-file format (scenario/
// parser.hpp); named presets live in scenario::Registry.
//
// to_deployment_setup below is the one conversion from a spec to the
// engine's multicell::DeploymentSetup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "faults/spec.hpp"
#include "multicell/coordinator.hpp"
#include "multicell/deployment.hpp"

namespace nbmg::scenario {

/// Upper bound on a scenario's cell count (the `cells` key, --cells and
/// validate()).  Far above any grid the presets run (64 cells at most),
/// and low enough that a mistyped count is refused before the engine sizes
/// its per-cell state.
inline constexpr std::size_t kMaxCells = 4096;

/// Declarative multicell grid: how many cells and how load skews across
/// them.  `realize()` builds the multicell::CellTopology the deployment
/// engine consumes.
struct TopologySpec {
    enum class Kind : std::uint8_t { uniform, hotspot };

    std::size_t cells = 1;
    Kind kind = Kind::uniform;
    /// Zipf exponent of the hotspot gradient (CellTopology::hotspot).
    double hotspot_exponent = 1.0;

    [[nodiscard]] multicell::CellTopology realize() const;
};

[[nodiscard]] constexpr const char* to_string(TopologySpec::Kind kind) noexcept {
    switch (kind) {
        case TopologySpec::Kind::uniform: return "uniform";
        case TopologySpec::Kind::hotspot: return "hotspot";
    }
    return "?";
}

/// Declarative telemetry request: which sinks to collect (typed trace
/// records and/or the counter/metrics registry) and where run_scenario
/// writes the exported artifacts.  Telemetry is purely observational —
/// attaching it changes no aggregate and no RNG draw, and every artifact
/// is bit-identical for any --threads (tests/telemetry/ pins this).
struct TelemetrySpec {
    /// Collect typed trace records (enables the JSONL trace and the
    /// Chrome trace_event timeline exports).
    bool trace = false;
    /// Collect the counter registry + sim-time-bucketed series (enables
    /// the metrics CSV export).
    bool metrics = false;
    /// Bucket width of the sim-time series (ms, >= 1).
    std::int64_t bucket_ms = 60'000;
    /// Output paths ("" = do not write the artifact).  trace_out and
    /// timeline_out require `trace`; metrics_out requires `metrics`
    /// (validate() enforces the pairing; the with_*_out builders engage
    /// the mode automatically).
    std::string trace_out;
    std::string metrics_out;
    std::string timeline_out;

    [[nodiscard]] bool enabled() const noexcept { return trace || metrics; }
    bool operator==(const TelemetrySpec&) const = default;
};

/// Declarative checkpoint/resume request (snapshot/checkpoint.hpp).
/// Checkpointing works at (run, cell) task granularity: the snapshot
/// records the serialized outcome of every completed grid task, and a
/// resumed run restores those outcomes and re-executes only the rest —
/// bit-identical to the uninterrupted run at any --threads.  Attaching a
/// checkpoint changes no aggregate and no RNG draw.
struct CheckpointSpec {
    /// Snapshot path ("" = never write snapshots).
    std::string out;
    /// Simulated-time write throttle: rewrite the snapshot once at least
    /// this many simulated ms of tasks completed since the last write;
    /// 0 = rewrite after every completed task.  Requires `out`.
    std::int64_t every_ms = 0;
    /// Stop with exit status 3 after this many freshly computed tasks
    /// (restored tasks do not count); 0 = run to completion.  A
    /// deterministic, wall-clock-free stop for tests and time-sharded
    /// drivers.  Requires `out`.
    std::uint64_t stop_after = 0;
    /// Snapshot to resume from ("" = fresh run).  The snapshot must have
    /// been taken by the same scenario (results-affecting keys match;
    /// threads and output paths may differ) — anything else is rejected
    /// with a diagnostic.
    std::string resume;

    [[nodiscard]] bool enabled() const noexcept {
        return !out.empty() || !resume.empty();
    }
    bool operator==(const CheckpointSpec&) const = default;
};

/// The one declarative description every driver (bench shells, examples,
/// tests, CI smokes) builds its workload from.
struct ScenarioSpec {
    /// Display/preset name; purely informational.
    std::string name = "custom";
    std::string description;

    traffic::PopulationProfile profile;
    std::size_t device_count = 500;
    std::int64_t payload_bytes = 100 * 1024;
    core::CampaignConfig config{};
    std::size_t runs = 100;
    std::uint64_t base_seed = 42;
    /// Worker threads for the sweep fan-out; 0 = one per hardware thread.
    /// Results never depend on this value.
    std::size_t threads = 0;
    std::vector<core::MechanismKind> mechanisms{core::MechanismKind::dr_sc,
                                                core::MechanismKind::da_sc,
                                                core::MechanismKind::dr_si};
    /// Engaged => a multicell grid; absent => the paper's single cell (a
    /// 1-cell uniform deployment).
    std::optional<TopologySpec> topology;
    multicell::AssignmentPolicy assignment = multicell::AssignmentPolicy::uniform_hash;
    /// Engaged (requires a topology) => the deployment additionally runs
    /// through the city-wide wall-clock coordinator
    /// (multicell::run_coordinated): per-cell start offsets by the chosen
    /// policy plus fleet time-axis aggregates.  The campaign aggregates
    /// stay bit-identical to the coordinator-absent path for every policy.
    std::optional<multicell::CoordinatorSpec> coordinator;
    /// Engaged (requires a topology; cell < cells) => that cell goes dark
    /// at the given simulated time in every run; stranded devices are
    /// deterministically re-assigned to the surviving cells (see
    /// multicell::DeploymentSetup::cell_down).  Churn and backhaul loss
    /// live on `config.churn` and `coordinator->loss_prob` respectively.
    std::optional<faults::OutageSpec> cell_down;
    /// Optional precomputed per-run populations (see
    /// core::generate_comparison_populations); shared across sweep points
    /// by the shells.  Never serialized.
    core::SharedPopulations populations;
    /// Telemetry request (disabled by default; see TelemetrySpec).
    TelemetrySpec telemetry;
    /// Checkpoint/resume request (disabled by default; see CheckpointSpec).
    CheckpointSpec checkpoint;

    ScenarioSpec();

    // --- builder-style setters (each returns *this for chaining) ---
    ScenarioSpec& with_name(std::string value);
    ScenarioSpec& with_description(std::string value);
    ScenarioSpec& with_profile(traffic::PopulationProfile value);
    ScenarioSpec& with_devices(std::size_t value);
    ScenarioSpec& with_payload_bytes(std::int64_t value);
    ScenarioSpec& with_runs(std::size_t value);
    ScenarioSpec& with_seed(std::uint64_t value);
    ScenarioSpec& with_threads(std::size_t value);
    ScenarioSpec& with_mechanisms(std::vector<core::MechanismKind> value);
    ScenarioSpec& with_inactivity_timer_ms(std::int64_t value);
    /// Requested paging-frame stratum count (CampaignConfig::strata);
    /// non-powers-of-two round down at run time (core::resolve_strata).
    ScenarioSpec& with_strata(std::size_t value);
    /// Engages a uniform multicell grid of `cells` cells (any previous
    /// topology — kind, exponent — is replaced).
    ScenarioSpec& with_cells(std::size_t cells);
    /// Changes only the grid's cell count, preserving the topology kind and
    /// exponent.  Engages a uniform grid when the spec was single-cell.
    /// This is what the --cells override uses.
    ScenarioSpec& with_cell_count(std::size_t cells);
    /// Engages a Zipf-skewed hotspot multicell grid.
    ScenarioSpec& with_hotspot(std::size_t cells, double exponent);
    ScenarioSpec& with_assignment(multicell::AssignmentPolicy value);
    ScenarioSpec& with_populations(core::SharedPopulations value);
    /// Engages the wall-clock coordinator with an explicit spec.
    ScenarioSpec& with_coordinator(multicell::CoordinatorSpec value);
    /// Coordinator with fixed per-cell start stagger (policy fixed-stagger).
    ScenarioSpec& with_stagger_ms(std::int64_t value);
    /// Coordinator with a finite central-feed budget (policy backhaul).
    ScenarioSpec& with_backhaul_kbps(double value);
    /// Per-chunk packet-loss probability on the backhaul feed (in [0, 1)).
    /// Throws std::invalid_argument unless a backhaul coordinator is
    /// already engaged (call with_backhaul_kbps first).
    ScenarioSpec& with_backhaul_loss(double value);
    /// Clears the coordinator: back to uncoordinated run_deployment.
    ScenarioSpec& without_coordinator();
    /// Device churn: seeded leave/rejoin point processes per device
    /// (faults::ChurnSpec; leave_rate in departures per device-hour,
    /// rejoin_ms of off-air time).  leave_rate = 0 disables churn.
    ScenarioSpec& with_churn(double leave_rate, std::int64_t rejoin_ms);
    /// Mid-campaign cell outage (requires a multicell topology).
    ScenarioSpec& with_cell_down(faults::OutageSpec value);
    /// Enables trace and/or metrics collection without output files (the
    /// in-memory report alone).
    ScenarioSpec& with_telemetry_modes(bool trace, bool metrics);
    /// Requests the JSONL trace at `path` (implies trace collection).
    ScenarioSpec& with_trace_out(std::string path);
    /// Requests the metrics CSV at `path` (implies metrics collection).
    ScenarioSpec& with_metrics_out(std::string path);
    /// Requests the Chrome trace_event timeline at `path` (implies trace
    /// collection).
    ScenarioSpec& with_timeline_out(std::string path);
    /// Bucket width of the metrics sim-time series (ms, >= 1).
    ScenarioSpec& with_telemetry_bucket_ms(std::int64_t value);
    /// Requests snapshots at `path` (see CheckpointSpec::out).
    ScenarioSpec& with_checkpoint_out(std::string path);
    /// Simulated-ms snapshot write throttle (see CheckpointSpec::every_ms).
    ScenarioSpec& with_checkpoint_every_ms(std::int64_t value);
    /// Deterministic mid-flight stop budget (see CheckpointSpec::stop_after).
    ScenarioSpec& with_checkpoint_stop_after(std::uint64_t value);
    /// Resumes from the snapshot at `path` (see CheckpointSpec::resume).
    ScenarioSpec& with_resume(std::string path);
    /// Clears the topology (and any coordinator riding on it): back to the
    /// paper's single cell.
    ScenarioSpec& single_cell();

    [[nodiscard]] bool is_multicell() const noexcept { return topology.has_value(); }
    [[nodiscard]] bool is_coordinated() const noexcept { return coordinator.has_value(); }
    [[nodiscard]] std::size_t cell_count() const noexcept {
        return topology ? topology->cells : 1;
    }

    /// Throws std::invalid_argument (message names the offending field) when
    /// the spec cannot run.
    void validate() const;

    /// Serializes the declarative subset to the scenario-file format, one
    /// `key = value` per line in key-table order (scenario/keys.hpp;
    /// parse_scenario_text inverts it).  Throws std::invalid_argument for
    /// specs the format cannot express, e.g. a profile that is not a
    /// registered builtin or a name with a line break in it.
    [[nodiscard]] std::string to_file_text() const;
};

/// The engine setup of `spec`: its multicell topology, or a 1-cell uniform
/// deployment when the spec has none.
[[nodiscard]] multicell::DeploymentSetup to_deployment_setup(const ScenarioSpec& spec);

}  // namespace nbmg::scenario
