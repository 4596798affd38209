// The scenario key table: one row per knob of the `key = value` file
// format (scenario/parser.hpp) and of its command-line overrides
// (scenario/cli.hpp).  The file parser, apply_spec_overrides,
// ScenarioSpec::to_file_text, the known-flag list and the checkpoint
// fingerprint are all loops over these rows, so a knob is spelled once.
// The rows are also the validation rules: each row's `check` is the rule
// its knob's value must meet on a finished spec, and
// ScenarioSpec::validate, the parser and the overrides all walk them
// (refused_row), so a new knob or a changed cap is written in one place.
//
// Rows are in to_file_text order, which is also the order both parsers
// apply them in: every row a `when` rule reads comes earlier.  The rows
// themselves (kRows in keys.cpp) are the reference for the keys, their
// value domains and rules; a shell given an unknown flag prints every
// row's flag with its value shape.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "scenario/spec.hpp"

namespace nbmg::scenario {

/// One value handed to a row, and the entry point it came from.
struct KeyInput {
    std::string value;
    /// True for a command-line override (`--flag VALUE`), false for a
    /// scenario-file line (`key = value`).
    bool flag = false;
};

/// One knob: its file key, its override flag, and how it reads and
/// writes a ScenarioSpec.
struct KeyRow {
    const char* key = nullptr;
    /// The override flag; nullptr for file-only keys.
    const char* flag = nullptr;
    /// The value shape usage lines print after the flag ("N", "FILE", ...).
    const char* shape = "N";
    /// Parses the value into the spec; returns why it cannot, or "".  It
    /// refuses only what its conversion cannot hold (a value past the
    /// field type, or a malformed spelling); the value's bounds are
    /// `check`'s.
    std::string (*set)(ScenarioSpec&, const KeyInput&) = nullptr;
    /// The rule the knob's value must meet on a finished spec: returns why
    /// it does not, or "" (nullptr: no rule).  Runs whether or not the key
    /// was given, so a knob left at a value its row refuses is refused
    /// too.
    std::string (*check)(const ScenarioSpec&) = nullptr;
    /// The value to_file_text writes, or nullopt to omit the key.
    std::optional<std::string> (*get)(const ScenarioSpec&) = nullptr;
    /// What must already hold before `set` runs (nullptr: nothing): the
    /// parse-time gate, which also keeps `set` from reaching an absent
    /// topology or coordinator.  Both diagnostics print "'<key>' requires
    /// <needs>" when it does not.
    bool (*when)(const ScenarioSpec&, const KeyInput&) = nullptr;
    const char* needs = nullptr;
    /// Key of an earlier row that sets the same field; one file may give
    /// only one of the two.
    const char* same_as = nullptr;
    /// Results-affecting: the row's line is part of the checkpoint
    /// fingerprint.
    bool results = true;
};

/// Every row, in to_file_text order.
[[nodiscard]] std::span<const KeyRow> scenario_keys();

/// A row whose check refuses a spec, and why (row == nullptr: none does).
struct Refusal {
    const KeyRow* row = nullptr;
    std::string reason;
    explicit operator bool() const noexcept { return row != nullptr; }
};

/// The walk every entry point runs over a finished spec: the checks of the
/// rows `given(i)` picks, from the last row back, and the first refusal.
/// Backwards, so a knob's own rule speaks before the rule of the row it
/// hangs on: `coordinator.backhaul_kbps = 0` is refused as its own value,
/// not as the backhaul policy's missing budget.
template <class Given>
[[nodiscard]] Refusal refused_row(const ScenarioSpec& spec, Given given) {
    const std::span<const KeyRow> rows = scenario_keys();
    for (std::size_t i = rows.size(); i-- > 0;) {
        if (rows[i].check == nullptr || !given(i)) continue;
        if (std::string reason = rows[i].check(spec); !reason.empty()) {
            return {&rows[i], std::move(reason)};
        }
    }
    return {};
}

/// The `key = value` lines of `spec` in table order (only the results
/// rows when `results_only`).  Throws std::invalid_argument for a spec the
/// format cannot carry: an unregistered or edited profile, an engine
/// outage instant, a coordinator without a grid, deep campaign config, or
/// a value with a line break or surrounding whitespace.
[[nodiscard]] std::string key_lines(const ScenarioSpec& spec, bool results_only);

/// Results identity of a spec: FNV-1a64 over key_lines(spec, true).  The
/// name, description, threads, output paths and checkpoint keys are not
/// results rows, so a snapshot resumes across them; any other change is
/// refused at load time.  Throws ScenarioError when the spec has no file
/// form.
[[nodiscard]] std::uint64_t spec_fingerprint(const ScenarioSpec& spec);

}  // namespace nbmg::scenario
