// The campaign engine: shards one firmware campaign's fleet across N
// independent cells and fans the per-cell plan+campaign event loops over
// the sweep worker pool.  A single-cell scenario is the 1-cell deployment.
//
// Per run, the fleet population is generated once (core::run_population:
// stream("population", run) of the base seed) inside that run's shard
// task, assigned to cells by a deterministic policy, and
// every cell plans (DR-SC/DA-SC/DR-SI over its own camped devices) and
// executes its campaign as an independent event loop.  A cell's campaigns
// are numbered in slots, the numbering the telemetry collector and the
// checkpoint header share: slot 0 is the unicast reference every ratio is
// taken against, slot m + 1 is setup.mechanisms[m].  Per-cell results are
// merged in (run, cell, slot) order into fleet-wide and per-cell
// aggregates, so every number is bit-identical for any --threads.
//
// With one cell the cell's RNG root is the base seed itself and the whole
// fleet camps on cell 0 under every policy, so the single-cell paper
// presets keep the aggregates pinned by tests/scenario/
// scenario_golden_test.cpp and tests/core/experiment_regression_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "faults/spec.hpp"
#include "multicell/assignment.hpp"
#include "multicell/topology.hpp"
#include "stats/histogram.hpp"

namespace nbmg::telemetry {
class Collector;
}  // namespace nbmg::telemetry

namespace nbmg::snapshot {
class CheckpointContext;
}  // namespace nbmg::snapshot

namespace nbmg::multicell {

/// Engine-level setup of a deployment.  Callers describe workloads with
/// scenario::ScenarioSpec and call scenario::run_scenario, which converts
/// through scenario::to_deployment_setup; this is the struct the engine
/// itself consumes.
struct DeploymentSetup {
    traffic::PopulationProfile profile;
    /// Fleet-wide device count, before sharding.
    std::size_t device_count = 500;
    std::int64_t payload_bytes = 100 * 1024;
    core::CampaignConfig config{};
    std::size_t runs = 20;
    std::uint64_t base_seed = 42;
    /// Worker threads; 0 = one per hardware thread.  The runs x cells grid
    /// takes them first, and when it has fewer tasks than workers the
    /// spare ones execute each task's paging-frame strata.  Results do not
    /// depend on this value.
    std::size_t threads = 0;
    std::vector<core::MechanismKind> mechanisms{
        core::MechanismKind::dr_sc, core::MechanismKind::da_sc,
        core::MechanismKind::dr_si};
    CellTopology topology = CellTopology::uniform(1);
    AssignmentPolicy assignment = AssignmentPolicy::uniform_hash;
    /// Failure injection: this cell goes dark at the given simulated time
    /// in every run.  Its campaigns stop cold at that instant; devices
    /// still incomplete are stranded and — when surviving cells exist —
    /// deterministically re-assigned to them through the assignment
    /// machinery, each receiving an analytic serialized unicast
    /// re-delivery (counted in redelivery_bytes and the completion tail).
    std::optional<faults::OutageSpec> cell_down;
    /// Optional telemetry collector (telemetry/collector.hpp); not owned,
    /// null = telemetry disabled.  Must be sized for at least `runs` runs,
    /// topology.cell_count() cells and mechanisms.size() + 1 campaigns
    /// (slot 0 = unicast).  Every (run, cell, campaign) writes its own
    /// pre-allocated sink, so attaching a collector changes no aggregate
    /// and no RNG draw.
    telemetry::Collector* telemetry = nullptr;
    /// Optional checkpoint context (snapshot/checkpoint.hpp); not owned,
    /// null = checkpointing disabled.  Grid slots (run * cells + cell)
    /// listed as completed in the context restore from their snapshot
    /// blobs — including the telemetry sinks they filled — instead of
    /// re-executing; fresh slots are recorded back.  Attaching a context
    /// changes no aggregate and no RNG draw.
    snapshot::CheckpointContext* checkpoint = nullptr;
};

/// Per-cell aggregates across runs: one sample per run in which the cell
/// had devices, the ratios against this cell's own unicast reference.
struct CellAggregates {
    std::uint32_t cell = 0;
    /// Devices camped on this cell, one sample per run.
    stats::Summary devices;
    core::MechanismStats unicast;
    std::vector<core::MechanismStats> mechanisms;  // setup.mechanisms order
};

/// Timing footprint of one (run, cell) campaign on the city wall-clock:
/// how many devices camped there and how long the cell's event loop spans
/// in simulated time.  The multicell coordinator (multicell/coordinator.hpp)
/// schedules these spans onto a shared clock; run_deployment itself never
/// reads them back, so recording them cannot perturb the aggregates.
struct CellRunSpan {
    std::size_t devices = 0;
    /// Observation horizon of this cell's campaign in simulated ms (shared
    /// by every mechanism of the run, see recommended_horizon); 0 for an
    /// empty cell, which executes nothing.
    std::int64_t horizon_ms = 0;
};

struct DeploymentResult {
    /// Fleet-wide aggregates, one sample per run: per run, cell totals are
    /// summed in cell order before any ratio is formed, so bytes_ratio is
    /// the run's fleet bytes on air against the fleet's unicast bytes.
    core::MechanismStats unicast;
    std::vector<core::MechanismStats> mechanisms;  // setup.mechanisms order
    std::vector<CellAggregates> cells;             // topology order
    /// Devices per (run, cell): the realized load distribution.
    stats::Summary cell_load;
    /// RACH collision fraction of every (run, cell, campaign) with attempts,
    /// unicast first within a (run, cell) — the only per-(run, cell)
    /// collision record; quantile() gives the contention percentiles across
    /// cells.
    stats::Histogram rach_collision_across_cells{0.0, 1.0, 64};
    /// (run, cell) pairs that received no devices (skipped, no campaign).
    std::size_t empty_cell_runs = 0;
    /// Per-(run, cell) campaign spans, indexed run * cell_count + cell —
    /// the raw material of cross-cell wall-clock coordination.
    std::vector<CellRunSpan> spans;

    [[nodiscard]] std::size_t cell_count() const noexcept { return cells.size(); }
    [[nodiscard]] const CellRunSpan& span(std::size_t run, std::size_t cell) const {
        return spans.at(run * cells.size() + cell);
    }
};

/// Runs the deployment: `runs` campaigns of the full fleet, each sharded
/// over `setup.topology` by `setup.assignment`, all (run, cell) event loops
/// fanned across the worker pool.  Throws std::invalid_argument on an
/// empty/invalid setup.
[[nodiscard]] DeploymentResult run_deployment(const DeploymentSetup& setup);

/// The RNG root of one cell: the base seed itself for a 1-cell deployment
/// (see the file comment), an independent derived root per cell otherwise.
[[nodiscard]] std::uint64_t cell_seed_root(std::uint64_t base_seed,
                                           std::size_t cell_count,
                                           std::uint32_t cell) noexcept;

}  // namespace nbmg::multicell
