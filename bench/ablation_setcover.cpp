// Ablation A1: set-cover solver comparison on the DR-SC window instances.
//
// The paper justifies the greedy heuristic by NP-hardness (Sec. III-A,
// Fig. 3).  This bench quantifies what the heuristic costs: on small
// instances we compare greedy (the paper's choice), first-fit and random
// baselines against the exact branch-and-bound optimum.
//
// Scenario shell: the `ablation-setcover` preset (or --scenario/--preset)
// provides profile, campaign config, instance size (devices), instance
// count (runs), seed and threads.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/planners.hpp"
#include "core/sweep.hpp"
#include "scenario/spec.hpp"
#include "setcover/solvers.hpp"
#include "setcover/window_cover.hpp"
#include "stats/summary.hpp"
#include "traffic/population.hpp"

namespace {

/// One instance's cover sizes; exact < 0 means the node budget ran out.
struct InstanceResult {
    double greedy = 0.0;
    double first_fit = 0.0;
    double random = 0.0;
    double exact = -1.0;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace nbmg;

    // Pure cover-instance solving: no payload is ever transmitted.
    bench::reject_flags(argc, argv, {"--payload-kb"},
                        "has no effect here: the solver comparison plans "
                        "window covers, no payload is delivered");
    const scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "ablation-setcover"),
        "ablation_setcover");
    const std::size_t devices = spec.device_count;

    bench::print_header("Ablation A1",
                        "set-cover solvers on DR-SC window instances");
    bench::print_scenario_line(spec);
    std::printf("n=%zu devices per instance, %zu instances\n", devices, spec.runs);

    const core::CampaignConfig& config = spec.config;

    const auto solve_instance = [&](std::size_t run) {
        const nbiot::PagingSchedule paging(config.paging);
        sim::RandomStream pop_rng{sim::derive_seed(spec.base_seed, "pop", run)};
        const auto population =
            traffic::generate_population(spec.profile, devices, pop_rng);
        const auto specs = traffic::to_specs(population);
        const nbiot::SimTime max_drx{core::population_max_cycle(specs).period_ms()};

        InstanceResult out;
        // The generic solvers get the flat events of the 2 * maxDRX horizon;
        // the window greedy gets DR-SC's own call: one maxDRX period of POs
        // and its two copies.
        const setcover::SetCoverInstance instance = setcover::to_set_cover_instance(
            core::dr_sc_po_events(specs, paging, 2 * max_drx), config.inactivity_timer,
            static_cast<std::uint32_t>(devices));
        sim::RandomStream tie_rng{sim::derive_seed(spec.base_seed, "tie", run)};
        const auto fast = setcover::greedy_window_cover(
            core::dr_sc_po_events(specs, paging, max_drx), max_drx, 2,
            config.inactivity_timer, static_cast<std::uint32_t>(devices), tie_rng);
        out.greedy = static_cast<double>(fast.windows.size());
        out.first_fit =
            static_cast<double>(setcover::first_fit_cover(instance).chosen.size());
        sim::RandomStream rnd_rng{sim::derive_seed(spec.base_seed, "rnd", run)};
        out.random =
            static_cast<double>(setcover::random_cover(instance, rnd_rng).chosen.size());

        if (const auto exact = setcover::exact_cover(instance, 2'000'000)) {
            out.exact = static_cast<double>(exact->chosen.size());
        }
        return out;
    };
    const std::vector<InstanceResult> instances =
        core::sweep_indexed(spec.runs, spec.threads, solve_instance);

    stats::Summary greedy_size;
    stats::Summary first_fit_size;
    stats::Summary random_size;
    stats::Summary exact_size;
    stats::Summary greedy_ratio;
    std::size_t exact_solved = 0;
    for (const InstanceResult& r : instances) {
        greedy_size.add(r.greedy);
        first_fit_size.add(r.first_fit);
        random_size.add(r.random);
        if (r.exact >= 0.0) {
            ++exact_solved;
            exact_size.add(r.exact);
            greedy_ratio.add(r.greedy / r.exact);
        }
    }

    stats::Table table({"solver", "mean cover size", "vs exact"});
    table.add_row({"exact (branch&bound)", stats::Table::cell(exact_size.mean(), 2),
                   "1.000"});
    table.add_row({"greedy (paper)", stats::Table::cell(greedy_size.mean(), 2),
                   stats::Table::cell(greedy_ratio.mean(), 3)});
    table.add_row({"first-fit", stats::Table::cell(first_fit_size.mean(), 2),
                   stats::Table::cell(first_fit_size.mean() / exact_size.mean(), 3)});
    table.add_row({"random", stats::Table::cell(random_size.mean(), 2),
                   stats::Table::cell(random_size.mean() / exact_size.mean(), 3)});
    bench::print_table(table);
    std::printf("exact solved %zu/%zu instances within node budget\n", exact_solved,
                spec.runs);
    return 0;
}
