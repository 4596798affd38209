// Reproduces Fig. 6(b): relative uptime increase in connected mode
// (random access, RRC signaling, waiting for the multicast, receiving the
// data) versus the unicast reference, for multicast payloads of 100 KB,
// 1 MB and 10 MB.
//
// Scenario shell: the `fig6b` preset (or --scenario FILE / --preset NAME)
// provides the base point; the binary sweeps the paper's three payload
// sizes from it, with the classic flags as overrides.
//
// Paper's reported shape: DR-SC and DR-SI slightly above unicast (they wait
// for the transmission to start), DA-SC the longest (it also connects once
// more for the DRX reconfiguration), and all three relative increases
// shrink as the payload grows — practically negligible above 1 MB.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"
#include "traffic/firmware.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    // The payload axis IS the figure; an override would be overwritten by
    // the sweep, so refuse it rather than echo a value that never runs.
    bench::reject_flags(argc, argv, {"--payload-kb"},
                        "has no effect here: fig6b sweeps the paper's "
                        "100KB/1MB/10MB payloads");
    const scenario::ScenarioSpec base = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "fig6b"), "fig6b_connected_uptime");
    if (base.payload_bytes != traffic::firmware_100kb().bytes) {
        std::fprintf(stderr,
                     "note: scenario payload ignored — fig6b sweeps the "
                     "paper's 100KB/1MB/10MB payloads\n");
    }

    bench::print_header("Fig. 6(b)",
                        "relative connected-mode uptime increase vs unicast");
    bench::print_scenario_line(base);

    stats::Table table({"payload", "mechanism", "connected uptime (s/device)",
                        "increase vs unicast", "ci95", "paper shape"});
    for (const auto& payload : traffic::paper_payloads()) {
        scenario::ScenarioSpec point = base;
        point.payload_bytes = payload.bytes;

        const multicell::DeploymentResult outcome =
            scenario::run_scenario(point).outcome;
        table.add_row({payload.name, "Unicast",
                       stats::Table::cell(
                           outcome.unicast.mean_connected_seconds.mean(), 2),
                       "-", "-", "reference"});
        for (const core::MechanismStats& s : outcome.mechanisms) {
            const char* expected =
                s.kind == core::MechanismKind::da_sc
                    ? "longest"
                    : "slightly above unicast";
            table.add_row({payload.name, std::string{core::to_string(s.kind)},
                           stats::Table::cell(s.mean_connected_seconds.mean(), 2),
                           stats::Table::cell_percent(s.connected_increase.mean(), 2),
                           stats::Table::cell_percent(
                               s.connected_increase.ci95_half_width(), 2),
                           expected});
        }
    }
    std::printf("expectation: increases shrink with payload size\n");
    bench::print_table(table);
    return 0;
}
