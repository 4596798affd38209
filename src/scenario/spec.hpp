// Unified scenario API: one declarative spec for every experiment driver.
//
// A ScenarioSpec describes a complete workload — population, device count,
// payload, campaign configuration, runs/seed/threads, the mechanism list
// and (optionally) a multicell topology + assignment policy — and
// run_scenario (scenario/run.hpp) runs it on the deployment engine
// (multicell::run_deployment; no topology = one cell).  The spec is plain
// data — an aggregate written with designated initializers, e.g.
// `ScenarioSpec{.device_count = 300, .runs = 50}` — validated, and
// serializable to/from the simple `key = value` scenario-file format
// (scenario/parser.hpp); named presets live in scenario::Registry.  Every
// member has a default member initializer, so an initializer may name any
// subset of them (in declaration order).
//
// to_deployment_setup below is the one conversion from a spec to the
// engine's multicell::DeploymentSetup.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "faults/spec.hpp"
#include "multicell/coordinator.hpp"
#include "multicell/deployment.hpp"

namespace nbmg::scenario {

/// Upper bound on a scenario's cell count (the `cells` row of the key
/// table, scenario/keys.hpp).  Far above any grid the presets run (64
/// cells at most), and low enough that a mistyped count is refused before
/// the engine sizes its per-cell state.
inline constexpr std::size_t kMaxCells = 4096;

/// Upper bound on a scenario's device count (the `devices` row, and the
/// examples' positional counts): ten times the largest preset (megacell).
/// A mistyped count is refused before the engine reserves per-device
/// state for it.
inline constexpr std::size_t kMaxDevices = 10'000'000;

/// Upper bound on a scenario's run count (the `runs` row), refused before
/// the engine reserves per-run state.
inline constexpr std::size_t kMaxRuns = 100'000;

/// Upper bound on a scenario's worker-thread count (the `threads` row).
/// The engine asks its worker pool for up to one thread per task, so an
/// unbounded count could spawn that many OS threads; a failed spawn would
/// abort instead of exiting with a usage error.
inline constexpr std::size_t kMaxThreads = 1024;

/// Upper bound on the millisecond durations of the `ti_ms`, `ra_guard_ms`,
/// `sc_ptm_mcch_period_ms` and `churn.rejoin_ms` rows: 10^9 ms, about 11.6
/// days, 48 times the longest planning horizon (2 x the 10,485.76 s eDRX
/// cycle).  The engine adds them to its horizons and instants, which a
/// larger value could overflow.
inline constexpr std::int64_t kMaxDurationMs = 1'000'000'000;

/// Upper bound on the payload (the `payload_bytes` and `payload_kb` rows):
/// 2^30 bytes, 1,024 times the firmware preset, so the radio model's bit
/// and airtime arithmetic stays far inside int64.
inline constexpr std::int64_t kMaxPayloadBytes = std::int64_t{1} << 30;

/// Upper bound on the `background_ra_per_second` row.  Background arrival
/// gaps are whole milliseconds, so no rate past 1,000/s can be realized,
/// and every arrival of the horizon is enrolled when a campaign starts: a
/// larger rate only costs time and memory.
inline constexpr double kMaxBackgroundRaPerSecond = 1000.0;

/// Upper bound on the `hotspot_exponent` row: the largest whole exponent
/// whose weight (rank)^-exponent at rank kMaxCells stays a normal double,
/// ln(DBL_MIN) / -ln(4096) = 85.17.  A larger one underflows the far cells'
/// weights, and the topology would be refused without a line.
inline constexpr double kMaxHotspotExponent = 85.0;

/// ScenarioSpec's default mechanism list.  (A range, not a braced list:
/// GCC 12 flags the implicit constructor's initializer_list copy as maybe
/// uninitialized once it is inlined.)
inline constexpr core::MechanismKind kPaperMechanisms[] = {
    core::MechanismKind::dr_sc, core::MechanismKind::da_sc, core::MechanismKind::dr_si};

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
    /// timeline_out require `trace`; metrics_out requires `metrics` (the
    /// output rows' checks hold the pairing; the output flags engage the
    /// mode, a file key requires it).
    std::string trace_out{};
    std::string metrics_out{};
    std::string timeline_out{};

    [[nodiscard]] bool enabled() const noexcept { return trace || metrics; }
    bool operator==(const TelemetrySpec&) const = default;
};

/// Declarative checkpoint/resume request (snapshot/checkpoint.hpp).
/// Checkpointing works at (run, cell) task granularity: the snapshot
/// journal records the serialized outcome of every completed grid task,
/// and a resumed run restores those outcomes and re-executes only the
/// rest — bit-identical to the uninterrupted run at any --threads.
/// Attaching a checkpoint changes no aggregate and no RNG draw.
struct CheckpointSpec {
    /// Snapshot path ("" = never write snapshots).
    std::string out{};
    /// Simulated-time flush throttle: append the completed tasks' records
    /// to the journal once at least this many simulated ms of tasks
    /// completed since the last flush; 0 = flush after every completed
    /// task.  Requires `out`.
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
    std::string resume{};

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
    std::string description{};

    traffic::PopulationProfile profile = traffic::massive_iot_city();
    std::size_t device_count = 500;
    std::int64_t payload_bytes = 100 * 1024;
    core::CampaignConfig config{};
    std::size_t runs = 100;
    std::uint64_t base_seed = 42;
    /// Worker threads for the sweep fan-out; 0 = one per hardware thread.
    /// Results never depend on this value.
    std::size_t threads = 0;
    /// The paper's three grouping mechanisms by default.
    std::vector<core::MechanismKind> mechanisms = std::vector(
        std::begin(kPaperMechanisms), std::end(kPaperMechanisms));
    /// Engaged => a multicell grid; absent => the paper's single cell (a
    /// 1-cell uniform deployment).
    std::optional<TopologySpec> topology{};
    multicell::AssignmentPolicy assignment = multicell::AssignmentPolicy::uniform_hash;
    /// Engaged (requires a topology) => the executed deployment is
    /// additionally scheduled on the city-wide wall-clock
    /// (multicell::coordinate_deployment): per-cell start offsets by the
    /// chosen policy plus fleet time-axis aggregates.  The campaign
    /// aggregates stay bit-identical to the coordinator-absent path for
    /// every policy.
    std::optional<multicell::CoordinatorSpec> coordinator{};
    /// Engaged (requires a topology; cell < cells) => that cell goes dark
    /// at the given simulated time in every run; stranded devices are
    /// deterministically re-assigned to the surviving cells (see
    /// multicell::DeploymentSetup::cell_down).  Churn and backhaul loss
    /// live on `config.churn` and `coordinator->loss_prob` respectively.
    std::optional<faults::OutageSpec> cell_down{};
    /// Telemetry request (disabled by default; see TelemetrySpec).
    TelemetrySpec telemetry{};
    /// Checkpoint/resume request (disabled by default; see CheckpointSpec).
    CheckpointSpec checkpoint{};

    [[nodiscard]] bool is_multicell() const noexcept { return topology.has_value(); }
    [[nodiscard]] bool is_coordinated() const noexcept { return coordinator.has_value(); }
    [[nodiscard]] std::size_t cell_count() const noexcept {
        return topology ? topology->cells : 1;
    }

    /// Throws std::invalid_argument when the spec cannot run: a key-table
    /// row's check refuses it (the message names the key;
    /// scenario/keys.hpp), or the profile, the campaign config or the
    /// grid's realization is invalid.
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
