// City-wide rollout: one firmware campaign delivered to a fleet camped
// across a grid of cells, under the three assignment scenarios the
// deployment layer models — i.i.d. camping, a downtown hotspot gradient,
// and class-affinity clustering (fleets deployed building by building).
//
// Planning runs per cell (each eNB covers only its own camped devices), so
// besides the scaling win this surfaces genuinely multicell effects:
// skewed per-cell load, per-cell RACH contention, and what clustering does
// to DR-SC's grouping opportunities.
//
// With a wall-clock coordinator engaged (--coordinator / the coordinator.*
// scenario keys, e.g. the citywide-staggered and citywide-backhaul
// presets) every row also reports the city time axis: completion time and
// peak concurrently-active cells under that camping scenario.
//
//   $ ./citywide_rollout [devices] [cells] [seed]
//   $ ./citywide_rollout --preset citywide --cells 64
//   $ ./citywide_rollout --preset citywide-backhaul
//   $ ./citywide_rollout --scenario examples/scenarios/citywide_16cells.scenario
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    scenario::ScenarioSpec base = bench::spec_from_args(argc, argv, "citywide");
    base.with_devices(bench::positional_value(argc, argv, 0, base.device_count));
    base.with_cell_count(
        bench::positional_value(argc, argv, 1, base.cell_count(), 1, scenario::kMaxCells));
    base.with_seed(bench::positional_u64(argc, argv, 2, base.base_seed));
    const std::size_t devices = base.device_count;
    const std::size_t cells = base.cell_count();

    std::printf(
        "citywide rollout: %zu devices over %zu cells, %zu runs, seed %llu\n"
        "payload %.0fKB, mechanisms DR-SC / DA-SC / DR-SI vs per-cell unicast\n",
        devices, cells, base.runs,
        static_cast<unsigned long long>(base.base_seed),
        static_cast<double>(base.payload_bytes) / 1024.0);

    // The fleet is the same under every scenario: generate it once.
    base.with_populations(core::generate_comparison_populations(
        base.profile, base.device_count, base.runs, base.base_seed));

    // The DR-SC/DA-SC columns follow the scenario's mechanism list; a list
    // without one of them shows "-" instead of indexing out of bounds.
    const auto mechanism_index = [&](core::MechanismKind kind) -> std::ptrdiff_t {
        for (std::size_t m = 0; m < base.mechanisms.size(); ++m) {
            if (base.mechanisms[m] == kind) return static_cast<std::ptrdiff_t>(m);
        }
        return -1;
    };
    const std::ptrdiff_t dr_sc_index = mechanism_index(core::MechanismKind::dr_sc);
    const std::ptrdiff_t da_sc_index = mechanism_index(core::MechanismKind::da_sc);

    std::vector<std::string> columns{"assignment", "max/min cell load",
                                     "DR-SC tx (fleet)", "DR-SC connected incr",
                                     "DA-SC light-sleep incr",
                                     "RACH collision p95 across cells"};
    if (base.is_coordinated()) {
        columns.insert(columns.end(), {"city completion (s)", "peak cells"});
    }
    stats::Table table(columns);
    for (const multicell::AssignmentPolicy policy :
         {multicell::AssignmentPolicy::uniform_hash,
          multicell::AssignmentPolicy::hotspot,
          multicell::AssignmentPolicy::class_affinity}) {
        scenario::ScenarioSpec point = base;
        point.with_assignment(policy);
        if (policy == multicell::AssignmentPolicy::hotspot) {
            // Keep a scenario-provided Zipf exponent; default to the classic
            // downtown gradient otherwise.
            const double exponent =
                base.topology &&
                        base.topology->kind == scenario::TopologySpec::Kind::hotspot
                    ? base.topology->hotspot_exponent
                    : 1.0;
            point.with_hotspot(cells, exponent);
        } else {
            point.with_cells(cells);
        }

        const scenario::ScenarioResult scenario_result =
            scenario::run_scenario(point);
        const multicell::DeploymentResult& result = scenario_result.deployment();

        double min_load = static_cast<double>(devices);
        double max_load = 0.0;
        for (const multicell::CellAggregates& cell : result.cells) {
            min_load = std::min(min_load, cell.devices.mean());
            max_load = std::max(max_load, cell.devices.mean());
        }
        char load[64];
        std::snprintf(load, sizeof load, "%.0f / %.0f", max_load, min_load);

        const auto& mechanisms = result.mechanisms;
        std::vector<std::string> row{
            multicell::to_string(policy), load,
            dr_sc_index >= 0
                ? stats::Table::cell(
                      mechanisms[static_cast<std::size_t>(dr_sc_index)]
                          .transmissions.mean(),
                      1)
                : "-",
            dr_sc_index >= 0
                ? stats::Table::cell_percent(
                      mechanisms[static_cast<std::size_t>(dr_sc_index)]
                          .connected_increase.mean(),
                      1)
                : "-",
            da_sc_index >= 0
                ? stats::Table::cell_percent(
                      mechanisms[static_cast<std::size_t>(da_sc_index)]
                          .light_sleep_increase.mean(),
                      2)
                : "-",
            stats::Table::cell(result.rach_collision_across_cells.quantile(0.95),
                               4)};
        if (scenario_result.is_coordinated()) {
            const multicell::CoordinationAggregates& city =
                *scenario_result.coordination;
            row.insert(row.end(),
                       {stats::Table::cell(city.completion_ms.mean() / 1000.0, 1),
                        stats::Table::cell(city.peak_concurrent_cells.mean(), 1)});
        }
        table.add_row(std::move(row));
    }
    std::fputs(table.to_markdown().c_str(), stdout);

    std::printf(
        "\nReading the table: the hotspot scenario concentrates load (and RACH\n"
        "contention) on the downtown cells; class affinity packs devices with\n"
        "the same DRX behaviour onto shared cells, which is exactly where\n"
        "DR-SC's window grouping finds dense clusters.  All numbers are\n"
        "bit-identical for any thread count.\n");
    return 0;
}
