#include "scenario/cli.hpp"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/keys.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace nbmg::scenario {
namespace {

/// Strict numeric parse of a positional token (same rules as flag_u64,
/// shared mechanics in parse_util.hpp).
std::uint64_t parse_positional(const char* text, std::size_t index,
                               std::uint64_t min_value,
                               std::uint64_t max_value =
                                   std::numeric_limits<std::uint64_t>::max()) {
    char flag_name[32];
    std::snprintf(flag_name, sizeof flag_name, "positional #%zu", index + 1);
    std::uint64_t parsed = 0;
    const std::string reason = parse_u64_in_range(text, parsed, min_value, max_value);
    if (!reason.empty()) flag_error(flag_name, text, reason.c_str());
    return parsed;
}

}  // namespace

std::size_t positional_value(int argc, char** argv, std::size_t index,
                             std::size_t fallback, std::size_t min_value,
                             std::size_t max_value) {
    const char* text = positional_text(argc, argv, index);
    if (text == nullptr) return fallback;
    return static_cast<std::size_t>(
        parse_positional(text, index, min_value, max_value));
}

std::uint64_t positional_u64(int argc, char** argv, std::size_t index,
                             std::uint64_t fallback) {
    const char* text = positional_text(argc, argv, index);
    if (text == nullptr) return fallback;
    return parse_positional(text, index, 0);
}

bool is_scenario_flag(const char* token) {
    if (std::strcmp(token, "--scenario") == 0 || std::strcmp(token, "--preset") == 0) {
        return true;
    }
    for (const KeyRow& row : scenario_keys()) {
        if (row.flag != nullptr && std::strcmp(token, row.flag) == 0) return true;
    }
    return false;
}

void unknown_flag_error(const char* token) {
    std::string known = "--scenario FILE, --preset NAME";
    for (const KeyRow& row : scenario_keys()) {
        if (row.flag == nullptr) continue;
        known += std::string(", ") + row.flag + " " + row.shape;
    }
    std::fprintf(stderr, "error: %s: unknown flag\n", token);
    std::fprintf(stderr, "usage: known flags are %s\n", known.c_str());
    std::exit(2);
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
    // Table order, so every row a `when` reads is applied before it.
    const std::span<const KeyRow> rows = scenario_keys();
    std::vector<const char*> given(rows.size(), nullptr);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const KeyRow& row = rows[i];
        if (row.flag == nullptr) continue;
        const char* value = flag_text(argc, argv, row.flag);
        if (value == nullptr) continue;
        const KeyInput input{value, true};
        if (row.when != nullptr && !row.when(spec, input)) {
            flag_error(row.flag, value, (std::string("requires ") + row.needs).c_str(),
                       row.shape);
        }
        if (const std::string reason = row.set(spec, input); !reason.empty()) {
            flag_error(row.flag, value, reason.c_str(), row.shape);
        }
        given[i] = value;
    }
    // The given rows' checks on the finished spec, each at its own flag.
    if (const Refusal refusal =
            refused_row(spec, [&](std::size_t i) { return given[i] != nullptr; })) {
        const KeyRow& row = *refusal.row;
        flag_error(row.flag, given[static_cast<std::size_t>(&row - rows.data())],
                   refusal.reason.c_str(), row.shape);
    }
}

}  // namespace nbmg::scenario
