// Substrate explorer: prints the TS 36.304 paging geometry for a device —
// its PO offset for every ladder cycle, the nesting property, and what a
// DA-SC adjustment window would look like.  Useful for understanding why
// the grouping mechanisms behave the way they do.
//
//   $ ./paging_explorer [imsi] [ti_ms]
//   $ ./paging_explorer --scenario examples/scenarios/smoke.scenario
// A scenario (--scenario/--preset) supplies the campaign config whose
// inactivity timer (TI) frames the DA-SC window; the positionals override.
#include <cstdio>
#include <limits>

#include "bench/bench_util.hpp"
#include "nbiot/drx.hpp"
#include "nbiot/frames.hpp"
#include "nbiot/paging.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;
    using nbiot::SimTime;

    // Pure paging geometry: only the scenario's paging config and TI are
    // consulted — reject the overrides that could not matter.
    bench::reject_flags(
        argc, argv,
        {"--runs", "--devices", "--seed", "--threads", "--payload-kb"},
        "has no effect here: paging_explorer only reads the scenario's "
        "paging config and TI");
    const scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(
            argc, argv, scenario::ScenarioSpec{.name = "paging-explorer"}),
        "paging_explorer");
    const std::uint64_t imsi_value =
        bench::positional_u64(argc, argv, 0, 262'042'000'012'345ULL);
    const std::uint64_t ti_raw = bench::positional_u64(
        argc, argv, 1,
        static_cast<std::uint64_t>(spec.config.inactivity_timer.count()));
    // Same no-silent-wrap rule as the --ti-ms flag path.
    if (ti_raw > static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())) {
        bench::flag_error("positional #2", bench::positional_text(argc, argv, 1),
                          "value out of range");
    }
    const std::int64_t ti_ms = static_cast<std::int64_t>(ti_raw);

    const nbiot::PagingSchedule paging(spec.config.paging);
    const nbiot::Imsi imsi{imsi_value};

    std::printf("paging_explorer: IMSI=%llu  UE_ID=%llu (mod 2^20)  TI=%.1fs\n\n",
                static_cast<unsigned long long>(imsi_value),
                static_cast<unsigned long long>(imsi_value % (1ULL << 20)),
                static_cast<double>(ti_ms) / 1000.0);

    stats::Table table({"cycle", "kind", "PO offset (s)", "PF (frame)", "subframe",
                        "POs per hour"});
    for (const nbiot::DrxCycle cycle : nbiot::drx_ladder()) {
        const SimTime offset = paging.po_offset(imsi, cycle);
        const auto rt = nbiot::to_radio_time(offset);
        table.add_row({cycle.to_string(),
                       cycle.is_nbiot_edrx() ? "NB-IoT eDRX"
                                             : (cycle.is_edrx() ? "eDRX" : "DRX"),
                       stats::Table::cell(
                           static_cast<double>(offset.count()) / 1000.0, 2),
                       stats::Table::cell(rt.frame), stats::Table::cell(rt.subframe),
                       stats::Table::cell(3600.0 / cycle.period_seconds(), 2)});
    }
    std::fputs(table.to_markdown().c_str(), stdout);

    // Demonstrate the nesting property the DA-SC mechanism exploits.
    std::printf("\nLadder nesting: every PO of a cycle is also a PO of every\n"
                "shorter cycle (same UE).  Check for the 20.48s PO:\n");
    const nbiot::DrxCycle long_cycle = nbiot::drx::seconds_20_48();
    const SimTime po = paging.phase(imsi, long_cycle).first_at_or_after(SimTime{0});
    for (int idx = long_cycle.index(); idx >= long_cycle.index() - 3; --idx) {
        const nbiot::DrxCycle cycle = nbiot::DrxCycle::from_index(idx);
        std::printf("  PO %.2fs on the %s grid: %s\n",
                    static_cast<double>(po.count()) / 1000.0,
                    cycle.to_string().c_str(),
                    paging.phase(imsi, cycle).is_po(po) ? "yes" : "NO (bug!)");
    }

    // What DA-SC would do for this device at t = 2 * cycle.
    const nbiot::DrxCycle original = nbiot::drx::seconds_2621_44();
    const SimTime t{2 * original.period_ms()};
    const SimTime window_start = t - SimTime{ti_ms};
    std::printf("\nDA-SC view for original cycle %s, t=%.1fs, window=[%.1fs, %.1fs):\n",
                original.to_string().c_str(),
                static_cast<double>(t.count()) / 1000.0,
                static_cast<double>(window_start.count()) / 1000.0,
                static_cast<double>(t.count()) / 1000.0);
    const nbiot::PoPhase phase = paging.phase(imsi, original);
    std::printf("  natural PO in window: %s\n",
                phase.has_in_range(window_start, t) ? "yes (no adjustment)" : "no");
    const auto p_adj = phase.last_before(window_start);
    if (p_adj) {
        std::printf("  adjustment PO (last before window): %.1fs\n",
                    static_cast<double>(p_adj->count()) / 1000.0);
    }
    for (int idx = original.index() - 1; idx >= 0; --idx) {
        const nbiot::DrxCycle candidate = nbiot::DrxCycle::from_index(idx);
        const nbiot::PoPhase candidate_phase = paging.phase(imsi, candidate);
        if (candidate_phase.has_in_range(window_start, t)) {
            const SimTime hit = candidate_phase.first_at_or_after(window_start);
            std::printf("  longest adapted cycle with a PO in the window: %s "
                        "(PO at %.1fs)\n",
                        candidate.to_string().c_str(),
                        static_cast<double>(hit.count()) / 1000.0);
            break;
        }
    }
    return 0;
}
