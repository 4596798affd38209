// Mechanism recommendation: sweeps payload size and TI, scores the three
// grouping mechanisms on the paper's three axes (bandwidth, energy,
// standards compliance), and prints the recommendation logic of the
// paper's conclusions.
//
//   $ ./mechanism_tradeoffs [devices] [seed]
//   $ ./mechanism_tradeoffs --preset mechanism-tradeoffs --runs 10
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"
#include "stats/table.hpp"
#include "traffic/firmware.hpp"

namespace {

struct Scorecard {
    double bandwidth_tx_per_device = 0.0;
    double connected_increase = 0.0;
    double light_sleep_increase = 0.0;
    bool standards = true;
};

const char* recommend(const Scorecard& dr_sc, const Scorecard& da_sc,
                      const Scorecard& dr_si, bool allow_protocol_changes) {
    // The paper's conclusion: DR-SC wastes bandwidth; DR-SI is best but not
    // compliant; DA-SC is the best compliant trade-off.
    if (allow_protocol_changes &&
        dr_si.connected_increase <= da_sc.connected_increase &&
        dr_si.light_sleep_increase <= da_sc.light_sleep_increase) {
        return "DR-SI";
    }
    if (dr_sc.bandwidth_tx_per_device < 0.02) return "DR-SC";  // trivially groupable
    return "DA-SC";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace nbmg;

    // Payload and TI are the two swept axes of the recommendation table.
    bench::reject_flags(argc, argv, {"--payload-kb", "--ti-ms"},
                        "has no effect here: the trade-off table sweeps "
                        "payload x TI itself");
    scenario::ScenarioSpec base = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "mechanism-tradeoffs"),
        "mechanism_tradeoffs");
    base.device_count =
        bench::positional_value(argc, argv, 0, base.device_count, 1, scenario::kMaxDevices);
    base.base_seed = bench::positional_u64(argc, argv, 1, base.base_seed);

    std::printf("mechanism_tradeoffs: n=%zu, profile=%s\n", base.device_count,
                base.profile.name.c_str());

    stats::Table table({"payload", "TI (s)", "DR-SC tx/dev", "DR-SC conn",
                        "DA-SC conn", "DA-SC light", "DR-SI conn",
                        "pick (compliant)", "pick (any)"});
    for (const auto& payload : traffic::paper_payloads()) {
        for (const std::int64_t ti : {10'000, 30'000}) {
            scenario::ScenarioSpec point = base;
            point.payload_bytes = payload.bytes;
            point.config.inactivity_timer = nbiot::SimTime{ti};

            const multicell::DeploymentResult outcome =
                scenario::run_scenario(point).outcome;
            Scorecard dr_sc;
            Scorecard da_sc;
            Scorecard dr_si;
            for (const core::MechanismStats& s : outcome.mechanisms) {
                Scorecard card;
                card.bandwidth_tx_per_device = s.transmissions_per_device.mean();
                card.connected_increase = s.connected_increase.mean();
                card.light_sleep_increase = s.light_sleep_increase.mean();
                card.standards = core::standards_compliant(s.kind);
                if (s.kind == core::MechanismKind::dr_sc) dr_sc = card;
                if (s.kind == core::MechanismKind::da_sc) da_sc = card;
                if (s.kind == core::MechanismKind::dr_si) dr_si = card;
            }
            table.add_row({payload.name,
                           stats::Table::cell(static_cast<double>(ti) / 1000.0, 0),
                           stats::Table::cell(dr_sc.bandwidth_tx_per_device, 2),
                           stats::Table::cell_percent(dr_sc.connected_increase, 1),
                           stats::Table::cell_percent(da_sc.connected_increase, 1),
                           stats::Table::cell_percent(da_sc.light_sleep_increase, 0),
                           stats::Table::cell_percent(dr_si.connected_increase, 1),
                           recommend(dr_sc, da_sc, dr_si, false),
                           recommend(dr_sc, da_sc, dr_si, true)});
        }
    }
    std::fputs(table.to_markdown().c_str(), stdout);
    std::printf(
        "\nThe paper's conclusion in one table: with protocol changes on the\n"
        "table DR-SI wins (unicast-like energy, one transmission); within the\n"
        "standard, DA-SC offers the best trade-off — its overhead shrinks to\n"
        "noise once the image size passes 1 MB.\n");
    return 0;
}
