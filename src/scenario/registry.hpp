// String-keyed registry for the scenario layer: mechanism spellings,
// population profiles, and named preset scenarios.
//
// Drivers (bench shells, examples, the scenario-file parser) resolve names
// through the registry instead of switch-casing.  The three tables (the
// paper's mechanisms, the traffic profiles, and one preset per shipped
// bench/example workload) are const tables in registry.cpp: the registry
// is built once, on first use, and never changes afterwards, so lookups
// need no lock.  Unknown-name lookups throw with the list of available
// names so a typo on the command line is self-diagnosing.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace nbmg::scenario {

class Registry {
public:
    struct PresetEntry {
        std::string name;  // also the spec's name
        std::string description;
        ScenarioSpec spec;
    };

    /// The process-wide registry.
    [[nodiscard]] static const Registry& instance();

    // --- mechanisms ---
    /// Throws std::invalid_argument listing the known spellings.
    [[nodiscard]] core::MechanismKind mechanism(std::string_view name) const;
    [[nodiscard]] std::optional<core::MechanismKind> find_mechanism(
        std::string_view name) const noexcept;
    /// Canonical spelling of a kind (first table entry for it).
    [[nodiscard]] std::string mechanism_name(core::MechanismKind kind) const;
    [[nodiscard]] std::vector<std::string> mechanism_names() const;

    // --- population profiles ---
    /// Throws std::invalid_argument listing the known names.
    [[nodiscard]] traffic::PopulationProfile profile(std::string_view name) const;
    [[nodiscard]] bool has_profile(std::string_view name) const noexcept;
    [[nodiscard]] std::vector<std::string> profile_names() const;

    // --- preset scenarios ---
    /// Throws std::invalid_argument listing the known names.
    [[nodiscard]] ScenarioSpec preset(std::string_view name) const;
    [[nodiscard]] bool has_preset(std::string_view name) const noexcept;
    [[nodiscard]] std::vector<std::string> preset_names() const;
    [[nodiscard]] const std::vector<PresetEntry>& presets() const noexcept {
        return presets_;
    }

private:
    Registry();

    std::vector<PresetEntry> presets_;
};

}  // namespace nbmg::scenario
