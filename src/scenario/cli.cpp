#include "scenario/cli.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "faults/spec.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace nbmg::scenario {
namespace {

/// Strict numeric parse of a positional token (same rules as flag_u64,
/// shared mechanics in parse_util.hpp).
std::uint64_t parse_positional(const char* text, std::size_t index,
                               std::uint64_t min_value) {
    char flag_name[32];
    std::snprintf(flag_name, sizeof flag_name, "positional #%zu", index + 1);
    std::uint64_t parsed = 0;
    switch (parse_strict_u64(text, parsed)) {
        case U64ParseError::none: break;
        case U64ParseError::empty: flag_error(flag_name, text, "empty value");
        case U64ParseError::negative:
            flag_error(flag_name, text, "value must be non-negative");
        case U64ParseError::not_decimal:
            flag_error(flag_name, text, "not a decimal integer");
        case U64ParseError::out_of_range:
            flag_error(flag_name, text, "value out of range");
    }
    if (parsed < min_value) {
        char reason[64];
        std::snprintf(reason, sizeof reason, "value must be >= %" PRIu64,
                      min_value);
        flag_error(flag_name, text, reason);
    }
    return parsed;
}

}  // namespace

std::size_t positional_value(int argc, char** argv, std::size_t index,
                             std::size_t fallback, std::size_t min_value) {
    const char* text = positional_text(argc, argv, index);
    if (text == nullptr) return fallback;
    return static_cast<std::size_t>(parse_positional(text, index, min_value));
}

std::uint64_t positional_u64(int argc, char** argv, std::size_t index,
                             std::uint64_t fallback) {
    const char* text = positional_text(argc, argv, index);
    if (text == nullptr) return fallback;
    return parse_positional(text, index, 0);
}

void reject_unknown_flags(int argc, char** argv, const ShellFlags& shell) {
    const auto matches = [](const std::vector<const char*>& names,
                            const char* token) {
        for (const char* name : names) {
            if (std::strcmp(token, name) == 0) return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const char* token = argv[i];
        if (std::strncmp(token, "--", 2) != 0) continue;  // positional
        if (is_scenario_flag(token) || matches(shell.value_flags, token)) {
            ++i;  // the flag's value
            continue;
        }
        if (matches(shell.bare_flags, token)) continue;
        bool delegated = false;
        for (const char* prefix : shell.prefixes) {
            if (std::strncmp(token, prefix, std::strlen(prefix)) == 0) {
                delegated = true;
                break;
            }
        }
        if (delegated) continue;
        unknown_flag_error(token);
    }
}

ScenarioSpec spec_from_args(int argc, char** argv, const char* default_preset,
                            const ShellFlags& shell) {
    return spec_from_args(argc, argv,
                          Registry::instance().preset(default_preset), shell);
}

ScenarioSpec spec_from_args(int argc, char** argv, ScenarioSpec fallback,
                            const ShellFlags& shell) {
    reject_unknown_flags(argc, argv, shell);
    const char* scenario_path = flag_text(argc, argv, "--scenario");
    const char* preset_name = flag_text(argc, argv, "--preset");
    if (scenario_path != nullptr && preset_name != nullptr) {
        flag_error("--scenario", scenario_path,
                   "--scenario and --preset are mutually exclusive",
                   "FILE (without --preset)");
    }

    ScenarioSpec spec = std::move(fallback);
    if (scenario_path != nullptr) {
        try {
            spec = load_scenario_file(scenario_path);
        } catch (const ScenarioError& error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            std::exit(2);
        }
    } else if (preset_name != nullptr) {
        if (!Registry::instance().has_preset(preset_name)) {
            std::string names;
            for (const std::string& name : Registry::instance().preset_names()) {
                if (!names.empty()) names += " | ";
                names += name;
            }
            flag_error("--preset", preset_name, "unknown preset", names.c_str());
        }
        spec = Registry::instance().preset(preset_name);
    }

    apply_spec_overrides(spec, argc, argv);
    // Validate here so every shell — including the ones that drive the
    // library directly instead of through run_scenario — fails with a
    // usage error rather than deep in the library.
    try {
        spec.validate();
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
    return spec;
}

void apply_spec_overrides(ScenarioSpec& spec, int argc, char** argv) {
    spec.runs = flag_value(argc, argv, "--runs", spec.runs);
    spec.device_count = flag_value(argc, argv, "--devices", spec.device_count);
    spec.base_seed = flag_u64(argc, argv, "--seed", spec.base_seed);
    spec.threads =
        static_cast<std::size_t>(flag_u64(argc, argv, "--threads", spec.threads));
    if (const char* payload = flag_text(argc, argv, "--payload-kb");
        payload != nullptr) {
        spec.payload_bytes = payload_kb_to_bytes(
            flag_u64(argc, argv, "--payload-kb", 0, 1), "--payload-kb", payload);
    }
    if (const char* ti = flag_text(argc, argv, "--ti-ms"); ti != nullptr) {
        const std::uint64_t ti_ms = flag_u64(argc, argv, "--ti-ms", 0, 1);
        if (ti_ms > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
            flag_error("--ti-ms", ti, "value out of range");
        }
        spec.config.inactivity_timer =
            nbiot::SimTime{static_cast<std::int64_t>(ti_ms)};
    }
    if (const char* strata = flag_text(argc, argv, "--strata"); strata != nullptr) {
        const std::uint64_t parsed = flag_u64(argc, argv, "--strata", 1, 1);
        if (parsed > core::kMaxStrata) {
            flag_error("--strata", strata, "value out of range",
                       "N where N is in [1, 32]");
        }
        spec.config.strata = static_cast<std::size_t>(parsed);
    }
    if (const char* cells = flag_text(argc, argv, "--cells"); cells != nullptr) {
        // Override the count only: a hotspot scenario stays a hotspot.
        spec.with_cell_count(flag_cells(argc, argv, spec.cell_count()));
    }
    if (const char* assignment = flag_text(argc, argv, "--assignment");
        assignment != nullptr) {
        // Mirror the file parser: assignment without a multicell grid is a
        // dead knob, not a silent no-op.
        if (!spec.is_multicell()) {
            flag_error("--assignment", assignment,
                       "requires a multicell scenario (--cells or a 'cells' "
                       "key)");
        }
        spec.assignment = flag_assignment(argc, argv, spec.assignment);
    }
    // Set when --coordinator switches to a policy the base spec did not
    // carry: the fresh policy's knobs start empty and the policy-scoped
    // flags below (checked at the end) must fill them — mirroring the file
    // parser's "fixed-stagger requires coordinator.stagger_ms" rule.
    bool fresh_coordinator_policy = false;
    if (const char* coordinator = flag_text(argc, argv, "--coordinator");
        coordinator != nullptr) {
        if (std::strcmp(coordinator, "none") == 0) {
            spec.without_coordinator();
        } else {
            if (!spec.is_multicell()) {
                flag_error("--coordinator", coordinator,
                           "requires a multicell scenario (--cells or a "
                           "'cells' key)");
            }
            const auto policy = multicell::parse_start_policy(coordinator);
            if (!policy.has_value()) {
                flag_error("--coordinator", coordinator, "unknown start policy",
                           "simultaneous | fixed-stagger | backhaul | none");
            }
            if (!spec.coordinator || spec.coordinator->policy != *policy) {
                // A policy switch resets the policy-scoped knobs; the flags
                // below refill them (and must — see the final checks).
                multicell::CoordinatorSpec fresh;
                fresh.policy = *policy;
                spec.coordinator = fresh;
                fresh_coordinator_policy = true;
            }
        }
    }
    if (const char* stagger = flag_text(argc, argv, "--stagger-ms");
        stagger != nullptr) {
        if (!spec.coordinator ||
            spec.coordinator->policy != multicell::StartPolicy::fixed_stagger) {
            flag_error("--stagger-ms", stagger,
                       "requires the fixed-stagger policy (--coordinator "
                       "fixed-stagger or a fixed-stagger scenario)");
        }
        const std::uint64_t stagger_ms = flag_u64(argc, argv, "--stagger-ms", 0);
        if (stagger_ms > static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::max())) {
            flag_error("--stagger-ms", stagger, "value out of range");
        }
        spec.coordinator->stagger_ms = static_cast<std::int64_t>(stagger_ms);
    }
    if (const char* backhaul = flag_text(argc, argv, "--backhaul-kbps");
        backhaul != nullptr) {
        if (!spec.coordinator ||
            spec.coordinator->policy !=
                multicell::StartPolicy::backhaul_budgeted) {
            flag_error("--backhaul-kbps", backhaul,
                       "requires the backhaul policy (--coordinator backhaul "
                       "or a backhaul scenario)",
                       "X where X is a finite number > 0");
        }
        double kbps = 0.0;
        switch (parse_strict_double(backhaul, kbps)) {
            case DoubleParseError::none: break;
            case DoubleParseError::empty:
                flag_error("--backhaul-kbps", backhaul, "empty value",
                           "X where X is a finite number > 0");
            case DoubleParseError::not_number:
                flag_error("--backhaul-kbps", backhaul, "not a number",
                           "X where X is a finite number > 0");
            case DoubleParseError::not_finite:
                flag_error("--backhaul-kbps", backhaul, "not a finite number",
                           "X where X is a finite number > 0");
        }
        if (kbps <= 0.0) {
            flag_error("--backhaul-kbps", backhaul, "value must be > 0",
                       "X where X is a finite number > 0");
        }
        spec.coordinator->backhaul_kbps = kbps;
    }
    if (spec.coordinator &&
        spec.coordinator->policy == multicell::StartPolicy::backhaul_budgeted &&
        spec.coordinator->backhaul_kbps <= 0.0) {
        flag_error("--coordinator", "backhaul",
                   "the backhaul policy needs a feed budget",
                   "backhaul --backhaul-kbps X");
    }
    if (fresh_coordinator_policy && spec.coordinator &&
        spec.coordinator->policy == multicell::StartPolicy::fixed_stagger &&
        flag_text(argc, argv, "--stagger-ms") == nullptr) {
        // Without this, a forgotten --stagger-ms would silently run a
        // 0-stagger (simultaneous) schedule.
        flag_error("--coordinator", "fixed-stagger",
                   "the fixed-stagger policy needs a stagger",
                   "fixed-stagger --stagger-ms N");
    }
    if (const char* telemetry = flag_text(argc, argv, "--telemetry");
        telemetry != nullptr) {
        if (std::strcmp(telemetry, "off") == 0) {
            spec.telemetry = TelemetrySpec{};  // clears modes and paths
        } else if (std::strcmp(telemetry, "trace") == 0) {
            spec.with_telemetry_modes(true, spec.telemetry.metrics);
        } else if (std::strcmp(telemetry, "metrics") == 0) {
            spec.with_telemetry_modes(spec.telemetry.trace, true);
        } else if (std::strcmp(telemetry, "full") == 0) {
            spec.with_telemetry_modes(true, true);
        } else {
            flag_error("--telemetry", telemetry, "unknown telemetry mode",
                       "off | trace | metrics | full");
        }
    }
    // The output flags engage their collection mode, mirroring the
    // with_*_out builders and the file parser's key pairing.
    if (const char* path = flag_text(argc, argv, "--trace-out");
        path != nullptr) {
        if (path[0] == '\0') flag_error("--trace-out", path, "empty path", "FILE");
        spec.with_trace_out(path);
    }
    if (const char* path = flag_text(argc, argv, "--metrics-out");
        path != nullptr) {
        if (path[0] == '\0') {
            flag_error("--metrics-out", path, "empty path", "FILE");
        }
        spec.with_metrics_out(path);
    }
    if (const char* path = flag_text(argc, argv, "--timeline-out");
        path != nullptr) {
        if (path[0] == '\0') {
            flag_error("--timeline-out", path, "empty path", "FILE");
        }
        spec.with_timeline_out(path);
    }
    if (const char* path = flag_text(argc, argv, "--checkpoint-out");
        path != nullptr) {
        if (path[0] == '\0') {
            flag_error("--checkpoint-out", path, "empty path", "FILE");
        }
        spec.with_checkpoint_out(path);
    }
    if (const char* every = flag_text(argc, argv, "--checkpoint-every-ms");
        every != nullptr) {
        // Mirror the file parser: an explicit throttle must be >= 1 ms of
        // simulated time (0, the write-every-task default, is expressed by
        // omitting the flag).
        const std::uint64_t every_ms =
            flag_u64(argc, argv, "--checkpoint-every-ms", 0, 1);
        if (every_ms > static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max())) {
            flag_error("--checkpoint-every-ms", every, "value out of range");
        }
        spec.with_checkpoint_every_ms(static_cast<std::int64_t>(every_ms));
    }
    if (flag_text(argc, argv, "--checkpoint-stop-after") != nullptr) {
        spec.with_checkpoint_stop_after(
            flag_u64(argc, argv, "--checkpoint-stop-after", 0, 1));
    }
    if (const char* path = flag_text(argc, argv, "--resume"); path != nullptr) {
        if (path[0] == '\0') flag_error("--resume", path, "empty path", "FILE");
        spec.with_resume(path);
    }
    // Checked after all overrides so --checkpoint-every-ms may ride on a
    // scenario file that already sets checkpoint.out.
    if (spec.checkpoint.out.empty()) {
        if (const char* every = flag_text(argc, argv, "--checkpoint-every-ms");
            every != nullptr) {
            flag_error("--checkpoint-every-ms", every,
                       "requires a snapshot path (--checkpoint-out or a "
                       "'checkpoint.out' key)");
        }
        if (const char* stop = flag_text(argc, argv, "--checkpoint-stop-after");
            stop != nullptr) {
            flag_error("--checkpoint-stop-after", stop,
                       "requires a snapshot path (--checkpoint-out or a "
                       "'checkpoint.out' key)");
        }
    }
    if (const char* rate = flag_text(argc, argv, "--churn-leave-rate");
        rate != nullptr) {
        double parsed = 0.0;
        switch (parse_strict_double(rate, parsed)) {
            case DoubleParseError::none: break;
            case DoubleParseError::empty:
                flag_error("--churn-leave-rate", rate, "empty value",
                           "X where X is a finite number >= 0");
            case DoubleParseError::not_number:
                flag_error("--churn-leave-rate", rate, "not a number",
                           "X where X is a finite number >= 0");
            case DoubleParseError::not_finite:
                flag_error("--churn-leave-rate", rate, "not a finite number",
                           "X where X is a finite number >= 0");
        }
        if (parsed < 0.0) {
            flag_error("--churn-leave-rate", rate, "value must be >= 0",
                       "X where X is a finite number >= 0");
        }
        spec.config.churn.leave_rate = parsed;
    }
    if (const char* rejoin = flag_text(argc, argv, "--churn-rejoin-ms");
        rejoin != nullptr) {
        // Mirror the file parser: a rejoin time without churn is a dead
        // knob, not a silent no-op.
        if (!spec.config.churn.enabled()) {
            flag_error("--churn-rejoin-ms", rejoin,
                       "requires churn (--churn-leave-rate or a "
                       "'churn.leave_rate' key)");
        }
        const std::uint64_t rejoin_ms =
            flag_u64(argc, argv, "--churn-rejoin-ms", 0, 1);
        if (rejoin_ms > static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max())) {
            flag_error("--churn-rejoin-ms", rejoin, "value out of range");
        }
        spec.config.churn.rejoin_ms = static_cast<std::int64_t>(rejoin_ms);
    }
    if (const char* down = flag_text(argc, argv, "--cell-down");
        down != nullptr) {
        if (!spec.is_multicell()) {
            flag_error("--cell-down", down,
                       "requires a multicell scenario (--cells or a 'cells' "
                       "key)",
                       "CELL@T_MS (e.g. 3@600000)");
        }
        const auto parsed = faults::parse_cell_down(down);
        if (!parsed) {
            flag_error("--cell-down", down, "malformed outage spec",
                       "CELL@T_MS (e.g. 3@600000, T >= 1)");
        }
        spec.cell_down = *parsed;
    }
    if (const char* loss = flag_text(argc, argv, "--backhaul-loss");
        loss != nullptr) {
        if (!spec.coordinator ||
            spec.coordinator->policy !=
                multicell::StartPolicy::backhaul_budgeted) {
            flag_error("--backhaul-loss", loss,
                       "requires the backhaul policy (--coordinator backhaul "
                       "or a backhaul scenario)",
                       "X where X is in [0, 1)");
        }
        double parsed = 0.0;
        switch (parse_strict_double(loss, parsed)) {
            case DoubleParseError::none: break;
            case DoubleParseError::empty:
                flag_error("--backhaul-loss", loss, "empty value",
                           "X where X is in [0, 1)");
            case DoubleParseError::not_number:
                flag_error("--backhaul-loss", loss, "not a number",
                           "X where X is in [0, 1)");
            case DoubleParseError::not_finite:
                flag_error("--backhaul-loss", loss, "not a finite number",
                           "X where X is in [0, 1)");
        }
        if (parsed < 0.0 || parsed >= 1.0) {
            flag_error("--backhaul-loss", loss, "value must be in [0, 1)",
                       "X where X is in [0, 1)");
        }
        spec.coordinator->loss_prob = parsed;
    }
}

}  // namespace nbmg::scenario
