// Ablation A2: the inactivity timer TI (the grouping window) trades DR-SC
// bandwidth against everyone's connected-mode waiting time.  Commercial
// networks use 10-30 s (Sec. II-B).
//
// Scenario shell: the `ablation-ti` preset (or --scenario/--preset)
// provides the base point; the binary sweeps TI over the commercial range.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    // TI is the swept axis; an override would be overwritten point by point.
    bench::reject_flags(argc, argv, {"--ti-ms"},
                        "has no effect here: the ablation sweeps TI over "
                        "5/10/20/30 s");
    scenario::ScenarioSpec base = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "ablation-ti"), "ablation_ti_sweep");
    if (base.config.inactivity_timer != core::CampaignConfig{}.inactivity_timer) {
        std::fprintf(stderr,
                     "note: scenario ti_ms ignored — the ablation sweeps TI "
                     "over 5/10/20/30 s\n");
    }

    bench::print_header("Ablation A2", "inactivity timer (TI) sweep");
    bench::print_scenario_line(base);

    stats::Table table({"TI (s)", "DR-SC tx/device", "DR-SC connected vs unicast",
                        "DA-SC connected vs unicast", "DR-SI connected vs unicast",
                        "DA-SC light-sleep vs unicast"});
    // Every TI point replays the same per-run populations; generate them
    // once and share (bit-identical to regenerating at each point).
    base.with_populations(core::generate_comparison_populations(
        base.profile, base.device_count, base.runs, base.base_seed));
    for (const std::int64_t ti_ms : {5'000, 10'000, 20'000, 30'000}) {
        scenario::ScenarioSpec point = base;
        point.with_inactivity_timer_ms(ti_ms);

        const multicell::DeploymentResult outcome =
            scenario::run_scenario(point).outcome;
        double drsc_tx = 0.0;
        double drsc_conn = 0.0;
        double dasc_conn = 0.0;
        double drsi_conn = 0.0;
        double dasc_light = 0.0;
        for (const core::MechanismStats& s : outcome.mechanisms) {
            switch (s.kind) {
                case core::MechanismKind::dr_sc:
                    drsc_tx = s.transmissions_per_device.mean();
                    drsc_conn = s.connected_increase.mean();
                    break;
                case core::MechanismKind::da_sc:
                    dasc_conn = s.connected_increase.mean();
                    dasc_light = s.light_sleep_increase.mean();
                    break;
                case core::MechanismKind::dr_si:
                    drsi_conn = s.connected_increase.mean();
                    break;
                default:
                    break;
            }
        }
        table.add_row({stats::Table::cell(static_cast<double>(ti_ms) / 1000.0, 0),
                       stats::Table::cell(drsc_tx, 3),
                       stats::Table::cell_percent(drsc_conn, 1),
                       stats::Table::cell_percent(dasc_conn, 1),
                       stats::Table::cell_percent(drsi_conn, 1),
                       stats::Table::cell_percent(dasc_light, 1)});
    }
    bench::print_table(table);
    std::printf(
        "Expectation: larger TI -> fewer DR-SC transmissions but longer waits\n"
        "(connected-mode increase grows roughly with TI/2).\n");
    return 0;
}
