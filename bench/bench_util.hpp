// Shared helpers for the benchmark harness binaries.
//
// The flag parsing and the --scenario/--preset resolution now live in the
// scenario layer (src/scenario/cli.hpp) so every driver — bench shells,
// examples, tests — shares one strict parser; this header re-exports them
// under nbmg::bench and keeps the printing helpers.
#pragma once

#include <cstdio>

#include "scenario/cli.hpp"
#include "stats/table.hpp"

namespace nbmg::bench {

using scenario::apply_spec_overrides;
using scenario::flag_error;
using scenario::flag_text;
using scenario::flag_u64;
using scenario::flag_value;
using scenario::positional_text;
using scenario::positional_u64;
using scenario::positional_value;
using scenario::reject_flags;
using scenario::require_single_cell;
using scenario::spec_from_args;

inline void print_header(const char* experiment_id, const char* title) {
    std::printf("\n=== %s — %s ===\n", experiment_id, title);
}

inline void print_table(const stats::Table& table) {
    std::fputs(table.to_markdown().c_str(), stdout);
}

/// Banner line for scenario-driven shells: which spec is running and the
/// knobs every scenario shares.
inline void print_scenario_line(const scenario::ScenarioSpec& spec) {
    std::printf("scenario=%s profile=%s n=%zu payload=%.0fKB runs=%zu seed=%llu",
                spec.name.c_str(), spec.profile.name.c_str(), spec.device_count,
                static_cast<double>(spec.payload_bytes) / 1024.0, spec.runs,
                static_cast<unsigned long long>(spec.base_seed));
    if (spec.is_multicell()) {
        std::printf(" cells=%zu assignment=%s", spec.cell_count(),
                    multicell::to_string(spec.assignment));
    }
    if (spec.coordinator) {
        std::printf(" coordinator=%s", multicell::to_string(spec.coordinator->policy));
        if (spec.coordinator->policy == multicell::StartPolicy::fixed_stagger) {
            std::printf(" stagger=%lldms",
                        static_cast<long long>(spec.coordinator->stagger_ms));
        }
        if (spec.coordinator->policy == multicell::StartPolicy::backhaul_budgeted) {
            std::printf(" backhaul=%.3gKB/s", spec.coordinator->backhaul_kbps);
        }
    }
    std::printf("\n");
}

}  // namespace nbmg::bench
