// City-scale firmware campaign: plan a DA-SC update for a large metering
// fleet, inspect the plan (who is adjusted, to what cycle, when), execute
// it, and report per-class energy impact and delivery statistics.
//
//   $ ./firmware_campaign [devices] [payload_kb] [seed]
//   $ ./firmware_campaign --preset firmware-campaign --payload-kb 512
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/campaign.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    // One narrated DA-SC rollout (plan inspection + execution), on the
    // calling thread.
    bench::reject_flags(argc, argv, {"--runs", "--threads"},
                        "has no effect here: firmware_campaign narrates a "
                        "single campaign on the calling thread");
    scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "firmware-campaign"),
        "firmware_campaign");
    if (spec.runs != 1) {
        std::fprintf(stderr,
                     "note: scenario runs=%zu ignored — firmware_campaign "
                     "narrates a single campaign\n",
                     spec.runs);
        spec.runs = 1;
    }
    if (spec.mechanisms !=
        std::vector<core::MechanismKind>{core::MechanismKind::da_sc}) {
        std::fprintf(stderr,
                     "note: scenario mechanisms ignored — firmware_campaign "
                     "narrates the DA-SC rollout (its plan-inspection "
                     "sections are DA-SC specific)\n");
    }
    spec.device_count =
        bench::positional_value(argc, argv, 0, spec.device_count, 1, scenario::kMaxDevices);
    // Only an actually-given positional converts KB -> bytes; the fallback
    // keeps the spec's payload untouched (it need not be KiB-aligned).
    if (const char* payload_kb = bench::positional_text(argc, argv, 1);
        payload_kb != nullptr) {
        spec.payload_bytes = scenario::payload_kb_to_bytes(
            bench::positional_value(argc, argv, 1, 1), "positional #2", payload_kb);
    }
    spec.base_seed = bench::positional_u64(argc, argv, 2, spec.base_seed);
    const std::size_t n = spec.device_count;

    sim::RandomStream pop_rng{sim::derive_seed(spec.base_seed, "population")};
    const auto population =
        traffic::generate_population(spec.profile, n, pop_rng);
    const auto specs = traffic::to_specs(population);

    const core::CampaignConfig& config = spec.config;
    std::printf("firmware_campaign: %zu devices, %.0f KB image, DA-SC grouping\n\n",
                n, static_cast<double>(spec.payload_bytes) / 1024.0);

    // --- plan ---
    const core::DaScMechanism mechanism;
    sim::RandomStream plan_rng{sim::derive_seed(spec.base_seed, "planner")};
    const core::MulticastPlan plan = mechanism.plan(specs, config, plan_rng);
    core::validate_plan(plan, specs);

    std::size_t adjusted = 0;
    std::map<int, std::size_t> adapted_hist;  // ladder index -> count
    for (const auto& s : plan.schedules) {
        if (s.adjustment) {
            ++adjusted;
            ++adapted_hist[s.adjustment->adapted_cycle.index()];
        }
    }
    std::printf("plan: multicast at t=%.1fs (2 x maxDRX + guard), %zu/%zu devices "
                "need a DRX adjustment\n",
                static_cast<double>(plan.transmissions.front().start.count()) / 1000.0,
                adjusted, n);
    std::printf("adapted-cycle histogram:\n");
    for (const auto& [index, count] : adapted_hist) {
        std::printf("  %-18s %6zu devices\n",
                    nbiot::DrxCycle::from_index(index).to_string().c_str(), count);
    }

    // --- execute ---
    const core::CampaignRunner runner(config);
    const nbiot::SimTime horizon =
        core::recommended_horizon(specs, config, spec.payload_bytes);
    const core::CampaignResult result =
        runner.run(plan, specs, spec.payload_bytes, horizon, spec.base_seed);
    const core::MulticastPlan unicast_plan =
        core::UnicastBaseline{}.plan(specs, config, plan_rng);
    const core::CampaignResult reference =
        runner.run(unicast_plan, specs, spec.payload_bytes, horizon, spec.base_seed);

    std::printf("\nexecution: %zu/%zu delivered, %zu transmissions (%zu recovery), "
                "%.2f MB on air vs %.2f MB unicast\n",
                result.received_count(), n, result.total_transmissions(),
                result.recovery_transmissions,
                static_cast<double>(result.bytes_on_air) / 1e6,
                static_cast<double>(reference.bytes_on_air) / 1e6);

    // --- per-class impact ---
    stats::Table table({"device class", "devices", "connected s/device",
                        "light-sleep s/device", "light-sleep vs unicast"});
    for (std::size_t c = 0; c < spec.profile.classes.size(); ++c) {
        stats::Summary connected;
        stats::Summary light;
        stats::Summary base_light;
        for (std::size_t i = 0; i < population.size(); ++i) {
            if (population[i].class_index != c) continue;
            connected.add(static_cast<double>(
                              result.devices[i].energy.connected_uptime().count()) /
                          1000.0);
            light.add(static_cast<double>(
                          result.devices[i].energy.light_sleep_uptime().count()) /
                      1000.0);
            base_light.add(static_cast<double>(
                               reference.devices[i].energy.light_sleep_uptime().count()) /
                           1000.0);
        }
        if (connected.count() == 0) continue;
        table.add_row({spec.profile.classes[c].name,
                       stats::Table::cell(static_cast<std::int64_t>(connected.count())),
                       stats::Table::cell(connected.mean(), 1),
                       stats::Table::cell(light.mean(), 2),
                       stats::Table::cell_percent(
                           base_light.mean() > 0
                               ? light.mean() / base_light.mean() - 1.0
                               : 0.0,
                           1)});
    }
    std::fputs(table.to_markdown().c_str(), stdout);
    std::printf("\nNote how the sleepiest classes pay the largest *relative*\n"
                "light-sleep increase (their baseline is a handful of POs), while\n"
                "in absolute terms the cost stays a few seconds per device.\n");
    return result.all_received() ? 0 : 1;
}
