// Quickstart: plan and run one firmware campaign with each grouping
// mechanism on a small city population and compare the paper's metrics.
//
//   $ ./quickstart [devices] [seed]
//   $ ./quickstart --preset quickstart --devices 500
//   $ ./quickstart --scenario examples/scenarios/smoke.scenario
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/campaign.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    // One narrated campaign per mechanism, on the calling thread.
    bench::reject_flags(argc, argv, {"--runs", "--threads"},
                        "has no effect here: quickstart runs one campaign "
                        "per mechanism on the calling thread");
    scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "quickstart"), "quickstart");
    if (spec.runs != 1) {
        std::fprintf(stderr,
                     "note: scenario runs=%zu ignored — quickstart runs one "
                     "campaign per mechanism\n",
                     spec.runs);
        spec.runs = 1;
    }
    spec.device_count =
        bench::positional_value(argc, argv, 0, spec.device_count, 1, scenario::kMaxDevices);
    spec.base_seed = bench::positional_u64(argc, argv, 1, spec.base_seed);

    // 1. The device population from the scenario's profile (default: the
    //    calibrated "Massive IoT in the City" mix).
    sim::RandomStream pop_rng{sim::derive_seed(spec.base_seed, "population")};
    const auto population =
        traffic::generate_population(spec.profile, spec.device_count, pop_rng);
    const auto specs = traffic::to_specs(population);

    // 2. Campaign configuration and payload, also from the scenario.
    const core::CampaignConfig& config = spec.config;

    std::printf("nbmg quickstart: %zu devices, payload %.0f KB, TI=%.1fs, seed %llu\n",
                spec.device_count,
                static_cast<double>(spec.payload_bytes) / 1024.0,
                static_cast<double>(config.inactivity_timer.count()) / 1000.0,
                static_cast<unsigned long long>(spec.base_seed));

    // 3. Run the unicast reference, then each grouping mechanism.
    const core::UnicastBaseline unicast;
    const core::CampaignResult reference = core::plan_and_run(
        unicast, specs, config, spec.payload_bytes, spec.base_seed);

    stats::Table table({"mechanism", "standards", "DRX", "transmissions",
                        "light-sleep uptime vs unicast", "connected uptime vs unicast",
                        "all received"});
    table.add_row({"Unicast", "yes", "respected",
                   stats::Table::cell(static_cast<std::int64_t>(
                       reference.total_transmissions())),
                   "-", "-", reference.all_received() ? "yes" : "NO"});

    for (const core::MechanismKind kind : spec.mechanisms) {
        const auto mechanism = core::make_mechanism(kind);
        const core::CampaignResult result = core::plan_and_run(
            *mechanism, specs, config, spec.payload_bytes, spec.base_seed);
        const core::RelativeUptime rel = core::relative_uptime(result, reference);
        table.add_row(
            {std::string{core::to_string(kind)},
             core::standards_compliant(kind) ? "yes" : "no",
             core::respects_drx(kind) ? "respected" : "adjusted",
             stats::Table::cell(static_cast<std::int64_t>(result.total_transmissions())),
             stats::Table::cell_percent(rel.light_sleep_increase, 2),
             stats::Table::cell_percent(rel.connected_increase, 2),
             result.all_received() ? "yes" : "NO"});
    }
    std::fputs(table.to_markdown().c_str(), stdout);

    std::printf(
        "\nReading the table: DA-SC and DR-SI need a single transmission; DR-SC\n"
        "needs many.  DR-SC costs no extra light-sleep energy, DR-SI almost none,\n"
        "DA-SC a little (shortened DRX cycles).  All three pay roughly TI/2 of\n"
        "connected waiting compared to unicast (Sec. IV-B of the paper).\n");
    return 0;
}
