// Command-line surface of the scenario API, shared by every bench and
// example shell: the strict flag parsers (formerly bench/bench_util.hpp)
// plus the resolution of --scenario FILE / --preset NAME into a
// ScenarioSpec with the key table's flags (scenario/keys.hpp) applied on
// top as overrides.
//
// Parsing stays strict: malformed values, unknown presets, and scenario
// files that fail to parse all exit with a usage message and status 2
// instead of silently running with defaults (tests/bench/bench_util_test.cpp
// pins the death behaviour; the parser's throw behaviour is pinned in
// tests/scenario/parser_test.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "scenario/parse_util.hpp"
#include "scenario/spec.hpp"

namespace nbmg::scenario {

/// Prints a usage message for a malformed flag and exits with status 2.
/// `expected` describes the value shape in the usage line.
[[noreturn]] inline void flag_error(const char* flag, const char* value,
                                    const char* reason,
                                    const char* expected =
                                        "N where N is a non-negative decimal "
                                        "integer") {
    if (value != nullptr) {
        std::fprintf(stderr, "error: bad value '%s' for %s: %s\n", value, flag,
                     reason);
    } else {
        std::fprintf(stderr, "error: %s: %s\n", flag, reason);
    }
    std::fprintf(stderr, "usage: flags take the form '%s %s'\n", flag, expected);
    std::exit(2);
}

/// Locates `flag` and returns its value string, or nullptr when the flag is
/// absent.  A flag with no following value is a usage error.
[[nodiscard]] inline const char* flag_text(int argc, char** argv, const char* flag) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            if (i + 1 >= argc) flag_error(flag, nullptr, "missing value");
            return argv[i + 1];
        }
    }
    return nullptr;
}

/// Parses "--seed N" style overrides strictly: the whole value must be a
/// non-negative decimal integer >= min_value (0 is valid — seeds may be 0).
/// Returns fallback only when the flag is absent; malformed input exits
/// with a usage message instead of silently falling back.
[[nodiscard]] inline std::uint64_t flag_u64(int argc, char** argv, const char* flag,
                                            std::uint64_t fallback,
                                            std::uint64_t min_value = 0) {
    const char* text = flag_text(argc, argv, flag);
    if (text == nullptr) return fallback;
    std::uint64_t v = 0;
    const std::string reason = parse_u64_in_range(
        text, v, min_value, std::numeric_limits<std::uint64_t>::max());
    if (!reason.empty()) flag_error(flag, text, reason.c_str());
    return v;
}

/// Parses "--runs N" / "--devices N" style overrides (strictly, as
/// flag_u64); by default the value must be at least 1.
[[nodiscard]] inline std::size_t flag_value(int argc, char** argv, const char* flag,
                                            std::size_t fallback,
                                            std::size_t min_value = 1) {
    return static_cast<std::size_t>(
        flag_u64(argc, argv, flag, fallback, min_value));
}

/// True for --scenario, --preset and every key-table row's flag
/// (scenario/keys.hpp).  Shared by the positional scanner below and by
/// shells (microbench_kernels) that strip these flags before handing argv
/// to another parser.
[[nodiscard]] bool is_scenario_flag(const char* token);

/// Usage error for a `--token` no parser owns (typo or wrong shell); the
/// usage line lists every scenario flag with its value shape.
[[noreturn]] void unknown_flag_error(const char* token);

/// The k-th positional (non-flag) argument, or nullptr.  Every known flag
/// consumes the following token as its value, so mixing positionals with
/// --scenario/--preset stays unambiguous; an *unknown* "--flag" is a usage
/// error (it would otherwise silently swallow a positional and shift the
/// rest).
inline const char* positional_text(int argc, char** argv, std::size_t index) {
    std::size_t seen = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0) {
            if (!is_scenario_flag(argv[i])) unknown_flag_error(argv[i]);
            ++i;  // skip the flag's value
            continue;
        }
        if (seen == index) return argv[i];
        ++seen;
    }
    return nullptr;
}

/// Strict positional counterpart of flag_value, for the examples' classic
/// `binary [devices] [seed]` spellings; a value outside [min_value,
/// max_value] is a usage error.
[[nodiscard]] std::size_t positional_value(
    int argc, char** argv, std::size_t index, std::size_t fallback,
    std::size_t min_value = 1,
    std::size_t max_value = std::numeric_limits<std::size_t>::max());
[[nodiscard]] std::uint64_t positional_u64(int argc, char** argv,
                                           std::size_t index,
                                           std::uint64_t fallback);

/// Strict KB -> bytes conversion for the examples' positional payload
/// spellings (the payload_kb row bounds --payload-kb the same way): the
/// multiply must not wrap the int64 payload.  `flag`/`text` label the
/// usage error.
[[nodiscard]] inline std::int64_t payload_kb_to_bytes(std::uint64_t kb,
                                                      const char* flag,
                                                      const char* text) {
    if (kb > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max() / 1024)) {
        flag_error(flag, text, "value out of range");
    }
    return static_cast<std::int64_t>(kb) * 1024;
}

/// Rejects flags a particular shell accepts nowhere: silently parsing and
/// ignoring an override would let the user believe they changed the
/// experiment.  `why` names what the shell does instead.  (Not flag_error:
/// its "flags take the form '<flag> N'" footer would tell the user to
/// re-send the very flag being rejected.)
inline void reject_flags(int argc, char** argv,
                         std::initializer_list<const char*> flags,
                         const char* why) {
    for (const char* flag : flags) {
        if (flag_text(argc, argv, flag) != nullptr) {
            std::fprintf(stderr, "error: %s: %s\n", flag, why);
            std::exit(2);
        }
    }
}


/// Guard for shells that report one cell (figure shells, the plan-level
/// examples): a multicell scenario would be printed as if it were the
/// paper's single cell or be silently ignored, so reject it up front with
/// a usage error naming the binary.
inline const ScenarioSpec& require_single_cell(const ScenarioSpec& spec,
                                               const char* binary) {
    if (spec.is_multicell()) {
        std::fprintf(stderr,
                     "error: %s drives the single-cell engine, but scenario "
                     "'%s' declares %zu cells\n"
                     "usage: drop the multicell keys (cells/topology/"
                     "assignment), or use a multicell shell "
                     "(fig_multicell_scaling, citywide_rollout)\n",
                     binary, spec.name.c_str(), spec.cell_count());
        std::exit(2);
    }
    return spec;
}

/// Flags a shell accepts beyond the scenario set, so the unknown-flag scan
/// can tell a shell-local flag from a typo.
struct ShellFlags {
    /// Additional flags that consume the following token as their value
    /// (e.g. ablation_battery_life's --updates-per-year).
    std::vector<const char*> value_flags;
    /// Additional value-less flags (e.g. run_scenario's --csv/--list).
    std::vector<const char*> bare_flags;
    /// Prefixes of flags owned by a delegated parser
    /// (e.g. microbench_kernels' --benchmark_*).
    std::vector<const char*> prefixes;
};

/// Exits with a usage error on any `--token` that is neither a scenario
/// flag nor declared in `shell` — a misspelled override must not silently
/// run a different experiment.  Called by spec_from_args.
void reject_unknown_flags(int argc, char** argv, const ShellFlags& shell);

/// Resolves the base spec: `--scenario FILE` (parsed, strict) beats
/// `--preset NAME` (registry lookup) beats the `default_preset`; giving
/// both flags is a usage error.  Then applies the flag overrides
/// (apply_spec_overrides) and validates the result.  Unknown `--` tokens
/// (outside `shell`) and every other failure exit with status 2 and a
/// diagnostic.
[[nodiscard]] ScenarioSpec spec_from_args(int argc, char** argv,
                                          const char* default_preset,
                                          const ShellFlags& shell = {});
/// Same, but with an explicit fallback spec instead of a preset name.
[[nodiscard]] ScenarioSpec spec_from_args(int argc, char** argv,
                                          ScenarioSpec fallback,
                                          const ShellFlags& shell = {});

/// Applies every key-table row whose flag is given (scenario/keys.hpp) as
/// an override onto `spec`, with the row's rules: e.g. --assignment
/// requires a multicell grid, --stagger-ms the fixed-stagger policy.  An
/// output flag (--trace-out, ...) turns its collection mode on, --cells
/// keeps the topology kind, --telemetry adds to the base spec's modes, and
/// --coordinator none clears the coordinator.  A failure exits with status
/// 2 and a usage message.
void apply_spec_overrides(ScenarioSpec& spec, int argc, char** argv);

}  // namespace nbmg::scenario
