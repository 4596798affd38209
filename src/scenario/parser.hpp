// Scenario-file parser: the `key = value` format ScenarioSpec serializes
// to.  Parsing is strict — an unknown key, a duplicate key, or a value of
// the wrong type all throw a ScenarioError naming the offending
// source:line, so a typo in a checked-in scenario file fails loudly
// instead of silently running a different experiment.
//
// Grammar, one statement per line:
//   key = value        # trailing comments are not supported; a '#' in
//   # full-line comment  column one (after whitespace) skips the line
// The keys, their value domains and their dependency rules (e.g.
// `topology` requires `cells`, `trace_out` requires telemetry = trace or
// full) are the rows of the key table (scenario/keys.hpp); the parser
// applies the given rows in table order, so keys may appear in any order,
// and reports a value a row's check refuses at the line that gave it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/spec.hpp"

namespace nbmg::scenario {

/// Parse/IO failure; what() carries "source:line: reason".
class ScenarioError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parses scenario-file text.  `source_name` labels error messages (use the
/// file path).  Throws ScenarioError on malformed input and validates the
/// resulting spec.
[[nodiscard]] ScenarioSpec parse_scenario_text(std::string_view text,
                                               std::string_view source_name =
                                                   "<scenario>");

/// Reads and parses `path`.  Throws ScenarioError when the file cannot be
/// read or does not parse.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace nbmg::scenario
