// M1: google-benchmark microbenchmarks of the computational kernels —
// paging-occasion arithmetic, the DR-SC window-cover greedy, the event
// queue, and a full small campaign.
//
// Scenario shell: --scenario FILE / --preset NAME (with the classic flag
// overrides) swap the population profile and campaign config the
// campaign-shaped cases (BM_DrScPlan, BM_DrScPoEvents, BM_MulticellCampaign,
// BM_FullCampaign) run on; without them the defaults are byte-identical to
// the pre-scenario binary, so BENCH_pr*.json baselines stay comparable.
// The scenario flags are stripped before google-benchmark parses argv.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "core/campaign.hpp"
#include "core/planners.hpp"
#include "multicell/deployment.hpp"
#include "nbiot/paging.hpp"
#include "scenario/cli.hpp"
#include "setcover/solvers.hpp"
#include "setcover/window_cover.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/sink.hpp"
#include "traffic/population.hpp"

namespace {

using namespace nbmg;

/// Base workload of the campaign-shaped cases; main() overwrites it from
/// --scenario/--preset before any benchmark runs.
scenario::ScenarioSpec& bench_base_spec() {
    static scenario::ScenarioSpec spec;
    return spec;
}

void BM_PagingPhaseFirstAtOrAfter(benchmark::State& state) {
    const nbiot::PagingSchedule paging;
    const nbiot::DrxCycle cycle =
        nbiot::DrxCycle::from_index(static_cast<int>(state.range(0)));
    std::uint64_t imsi = 100'000'000'000'000ULL;
    nbiot::SimTime t{0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(paging.phase(nbiot::Imsi{imsi}, cycle).first_at_or_after(t));
        ++imsi;
        t += nbiot::SimTime{997};
    }
}
BENCHMARK(BM_PagingPhaseFirstAtOrAfter)->Arg(3)->Arg(9)->Arg(15);

void BM_EventQueueScheduleRun(benchmark::State& state) {
    for (auto _ : state) {
        sim::EventQueue queue;
        const auto n = state.range(0);
        for (std::int64_t i = 0; i < n; ++i) {
            queue.schedule_at(sim::SimTime{(i * 7919) % 100'000}, [] {});
        }
        queue.run_all();
        benchmark::DoNotOptimize(queue.executed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(1'000'000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
    // Cancellation-path cost: schedule n events, cancel every other one up
    // front, then drain — the popped heap is half stale entries.
    for (auto _ : state) {
        sim::EventQueue queue;
        const auto n = state.range(0);
        std::vector<sim::EventId> ids;
        ids.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            ids.push_back(
                queue.schedule_at(sim::SimTime{(i * 7919) % 100'000}, [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) queue.cancel(ids[i]);
        queue.run_all();
        benchmark::DoNotOptimize(queue.executed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10'000)->Arg(1'000'000);

void BM_WindowCoverGreedy(benchmark::State& state) {
    const auto devices = static_cast<std::uint32_t>(state.range(0));
    sim::RandomStream gen{42};
    std::vector<setcover::PoEvent> events;
    for (std::uint32_t d = 0; d < devices; ++d) {
        const int pos = static_cast<int>(gen.uniform_int(2, 64));
        for (int k = 0; k < pos; ++k) {
            events.push_back({sim::SimTime{gen.uniform_int(0, 20'000'000)}, d});
        }
    }
    for (auto _ : state) {
        sim::RandomStream rng{7};
        auto copy = events;
        // One copy of a period longer than the events' span.
        benchmark::DoNotOptimize(setcover::greedy_window_cover(
            std::move(copy), sim::SimTime{20'000'001}, 1, sim::SimTime{10'000}, devices,
            rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_WindowCoverGreedy)->Arg(100)->Arg(500)->Arg(5'000);

void BM_WindowCoverGreedySparse(benchmark::State& state) {
    // A sparse fleet: one or two POs per device, about 67 s apart on
    // average against a 10 s window, so most rounds cover a single device
    // (the greedy's single-device tail).
    const auto devices = static_cast<std::uint32_t>(state.range(0));
    const std::int64_t span = std::int64_t{100'000} * devices;
    sim::RandomStream gen{42};
    std::vector<setcover::PoEvent> events;
    for (std::uint32_t d = 0; d < devices; ++d) {
        const std::int64_t pos = gen.uniform_int(1, 2);
        for (std::int64_t k = 0; k < pos; ++k) {
            events.push_back({sim::SimTime{gen.uniform_int(0, span - 1)}, d});
        }
    }
    for (auto _ : state) {
        sim::RandomStream rng{7};
        auto copy = events;
        benchmark::DoNotOptimize(setcover::greedy_window_cover(
            std::move(copy), sim::SimTime{span}, 1, sim::SimTime{10'000}, devices, rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_WindowCoverGreedySparse)->Arg(1'000)->Arg(10'000);

/// Random coverable instance shaped like the DR-SC window instances:
/// `sets` candidate windows over a universe of `universe` devices.
setcover::SetCoverInstance make_cover_instance(std::size_t sets,
                                               std::size_t universe) {
    sim::RandomStream gen{123};
    std::vector<std::vector<setcover::Element>> raw(sets);
    for (auto& s : raw) {
        const auto size = static_cast<std::size_t>(gen.uniform_int(16, 128));
        s.reserve(size);
        for (std::size_t k = 0; k < size; ++k) {
            s.push_back(static_cast<setcover::Element>(
                gen.uniform_int(0, static_cast<std::int64_t>(universe) - 1)));
        }
    }
    for (std::size_t e = 0; e < universe; ++e) {
        raw[e % sets].push_back(static_cast<setcover::Element>(e));
    }
    return setcover::SetCoverInstance{universe, std::move(raw)};
}

void BM_GreedyCover(benchmark::State& state) {
    const setcover::SetCoverInstance instance =
        make_cover_instance(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        sim::RandomStream rng{7};
        benchmark::DoNotOptimize(setcover::greedy_cover(instance, &rng));
    }
    state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_GreedyCover)
    ->Args({1'000, 10'000})
    ->Args({10'000, 100'000})
    ->Unit(benchmark::kMillisecond);

void BM_DrScPlan(benchmark::State& state) {
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, static_cast<std::size_t>(state.range(0)),
        pop_rng));
    const core::CampaignConfig config = bench_base_spec().config;
    const core::DrScMechanism mechanism;
    for (auto _ : state) {
        sim::RandomStream rng{7};
        benchmark::DoNotOptimize(mechanism.plan(specs, config, rng));
    }
}
BENCHMARK(BM_DrScPlan)->Arg(200)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_DrScPoEvents(benchmark::State& state) {
    // DR-SC's cover input on one fleet: every PO over maxDRX, generated
    // in (time, device) order.
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, static_cast<std::size_t>(state.range(0)),
        pop_rng));
    const nbiot::PagingSchedule paging(bench_base_spec().config.paging);
    const nbiot::SimTime max_drx{core::population_max_cycle(specs).period_ms()};
    std::int64_t events = 0;
    for (auto _ : state) {
        const std::vector<setcover::PoEvent> po = core::dr_sc_po_events(specs, paging, max_drx);
        events += static_cast<std::int64_t>(po.size());
        benchmark::DoNotOptimize(po.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_DrScPoEvents)->Arg(300)->Arg(10'000);

void BM_MulticellCampaign(benchmark::State& state) {
    // One fleet-wide comparison run (unicast reference + DR-SC) sharded
    // across `cells` cells with 8 workers: the deployment-layer scaling
    // case.  The engine generates the fleet inside the timed region: about
    // 25 ms for 10^5 devices (~244 ns per device), against a case measured
    // in seconds.
    multicell::DeploymentSetup setup;
    setup.profile = bench_base_spec().profile;
    setup.config = bench_base_spec().config;
    setup.payload_bytes = bench_base_spec().payload_bytes;
    setup.device_count = static_cast<std::size_t>(state.range(0));
    setup.runs = 1;
    setup.base_seed = 42;
    setup.threads = 8;
    setup.mechanisms = {core::MechanismKind::dr_sc};
    setup.topology = multicell::CellTopology::uniform(
        static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(multicell::run_deployment(setup));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MulticellCampaign)
    ->Args({100'000, 1})
    ->Args({100'000, 16})
    ->Args({100'000, 64})
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

void BM_FullCampaign(benchmark::State& state) {
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, static_cast<std::size_t>(state.range(0)),
        pop_rng));
    const core::CampaignConfig config = bench_base_spec().config;
    const core::DrSiMechanism mechanism;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::plan_and_run(
            mechanism, specs, config, bench_base_spec().payload_bytes, 7));
    }
}
BENCHMARK(BM_FullCampaign)
    ->Arg(100)
    ->Arg(400)
    ->Arg(10'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_FullCampaign_TelemetryOff(benchmark::State& state) {
    // Pins the zero-cost-when-disabled claim: the campaign layers carry
    // NBMG_TELEMETRY_EMIT on every hot path, and with the default null
    // sink this case must track BM_FullCampaign — one pointer test per
    // would-be record, arguments never evaluated.
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, static_cast<std::size_t>(state.range(0)),
        pop_rng));
    core::CampaignConfig config = bench_base_spec().config;
    config.telemetry = nullptr;
    const core::DrSiMechanism mechanism;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::plan_and_run(
            mechanism, specs, config, bench_base_spec().payload_bytes, 7));
    }
}
BENCHMARK(BM_FullCampaign_TelemetryOff)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_FullCampaign_TelemetryFull(benchmark::State& state) {
    // The priced alternative: trace + metrics recording on the same
    // campaign, fresh sink per iteration so the record buffer cannot grow
    // across iterations.
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, static_cast<std::size_t>(state.range(0)),
        pop_rng));
    const core::CampaignConfig base_config = bench_base_spec().config;
    const core::DrSiMechanism mechanism;
    for (auto _ : state) {
        telemetry::CampaignSink sink{
            telemetry::TelemetryConfig{.trace = true, .metrics = true}};
        core::CampaignConfig config = base_config;
        config.telemetry = &sink;
        benchmark::DoNotOptimize(core::plan_and_run(
            mechanism, specs, config, bench_base_spec().payload_bytes, 7));
        benchmark::DoNotOptimize(sink.records().size());
    }
}
BENCHMARK(BM_FullCampaign_TelemetryFull)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedCampaign(benchmark::State& state) {
    // Intra-cell parallelism: one DR-SI campaign over a fixed 10^5-device
    // fleet, split into range(0) paging-frame strata and fanned over 8
    // workers.  strata = 1 is the classic serial execution; larger counts
    // measure the stratified model (smaller per-stratum event sets) plus
    // whatever fan-out the host's cores provide — on the single-core CI
    // box the recorded delta is the algorithmic part alone.
    constexpr std::size_t kDevices = 100'000;
    sim::RandomStream pop_rng{1};
    const auto specs = traffic::to_specs(traffic::generate_population(
        bench_base_spec().profile, kDevices, pop_rng));
    core::CampaignConfig config = bench_base_spec().config;
    config.strata = static_cast<std::size_t>(state.range(0));
    const core::DrSiMechanism mechanism;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::plan_and_run(
            mechanism, specs, config, bench_base_spec().payload_bytes, 7, 8));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kDevices));
}
BENCHMARK(BM_StratifiedCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    using namespace nbmg;

    // The kernel cases fix their own sizes and seeds (Arg() grids, pinned
    // RNG streams) so the BENCH_pr*.json trajectory stays comparable; only
    // profile/config/payload from the scenario take effect.  Reject the
    // overrides that would be silently ignored.
    scenario::reject_flags(
        argc, argv,
        {"--runs", "--devices", "--seed", "--threads", "--cells",
         "--assignment"},
        "has no effect on the kernel microbenchmarks (cases fix their own "
        "sizes and seeds); use --scenario/--preset/--payload-kb/--ti-ms or "
        "the --benchmark_* flags");
    // Resolve the scenario flags first, then hide them from
    // google-benchmark's own strict argv parsing.
    scenario::ShellFlags shell;
    shell.prefixes = {"--benchmark_"};
    // google-benchmark's own discovery flags pass through to Initialize.
    shell.bare_flags = {"--help", "--version"};
    bench_base_spec() = scenario::require_single_cell(
        scenario::spec_from_args(
            argc, argv, scenario::ScenarioSpec{.name = "microbench"},
            shell),
        "microbench_kernels");
    std::vector<char*> remaining;
    remaining.reserve(static_cast<std::size_t>(argc));
    remaining.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (scenario::is_scenario_flag(argv[i])) {
            ++i;  // the flag's value
            continue;
        }
        remaining.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(remaining.size());
    benchmark::Initialize(&bench_argc, remaining.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, remaining.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
