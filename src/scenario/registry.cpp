#include "scenario/registry.hpp"

#include <stdexcept>

#include "traffic/firmware.hpp"

namespace nbmg::scenario {
namespace {

[[noreturn]] void throw_unknown(const char* what, std::string_view name,
                                const std::vector<std::string>& available) {
    std::string message = std::string("unknown ") + what + " '" +
                          std::string(name) + "'; available: ";
    for (std::size_t i = 0; i < available.size(); ++i) {
        if (i != 0) message += ", ";
        message += available[i];
    }
    throw std::invalid_argument(message);
}

using core::MechanismKind;

struct MechanismEntry {
    const char* name;  // command-line / scenario-file spelling
    MechanismKind kind;
};

constexpr MechanismEntry kMechanisms[] = {
    {"dr-sc", MechanismKind::dr_sc},  // DRX respecting, standards compliant
    {"da-sc", MechanismKind::da_sc},  // DRX adjusting, standards compliant
    {"dr-si", MechanismKind::dr_si},  // DRX respecting, standards incompliant
    {"unicast", MechanismKind::unicast},  // the paper's energy reference
    {"sc-ptm", MechanismKind::sc_ptm},    // SC-PTM periodic monitoring baseline
};

/// One preset per shipped bench/example workload, frozen at the defaults
/// the pre-redesign binaries hand-assembled (the golden equivalence tests
/// in tests/scenario/ compare against exactly these, and registry_test
/// pins every entry's fingerprint).  Each entry's name fills its spec's.
std::vector<Registry::PresetEntry> builtin_presets() {
    using multicell::StartPolicy;
    const std::int64_t firmware = traffic::firmware_1mb().bytes;
    const std::vector<MechanismKind> four{MechanismKind::dr_sc, MechanismKind::da_sc,
                                          MechanismKind::dr_si, MechanismKind::sc_ptm};
    std::vector<Registry::PresetEntry> presets{
        {"fig6a", "Fig. 6(a): relative light-sleep uptime increase vs unicast",
         {.device_count = 300, .runs = 50}},
        {"fig6b", "Fig. 6(b): relative connected-mode uptime increase (payload sweep base)",
         {.device_count = 300, .runs = 30}},
        {"fig7", "Fig. 7: DR-SC multicast transmissions vs device count",
         {.device_count = 1'000, .runs = 100, .mechanisms = {MechanismKind::dr_sc}}},
        {"ablation-setcover", "A1: greedy vs first-fit/random/exact on DR-SC window instances",
         {.device_count = 24, .runs = 40, .mechanisms = {MechanismKind::dr_sc}}},
        {"ablation-ti", "A2: inactivity-timer (TI) sweep base point",
         {.device_count = 300, .runs = 20}},
        {"ablation-drx-mix", "A3: DRX-mix sensitivity of DR-SC transmissions",
         {.device_count = 500, .runs = 30, .mechanisms = {MechanismKind::dr_sc}}},
        {"ablation-contention", "A4: paging capacity, RACH load and page-loss stress (DR-SI)",
         {.device_count = 400, .runs = 10, .mechanisms = {MechanismKind::dr_si}}},
        {"ablation-scptm", "A5: SC-PTM standing-cost baseline vs on-demand",
         {.device_count = 200, .runs = 15, .mechanisms = four}},
        {"ablation-battery", "A6: battery-life projection per mechanism",
         {.device_count = 150, .payload_bytes = firmware, .runs = 1, .mechanisms = four}},
        {"smoke", "40-device CI smoke of all three mechanisms",
         {.device_count = 40, .runs = 2}},
        {"quickstart", "one small campaign per mechanism, narrated",
         {.device_count = 200, .runs = 1, .base_seed = 1}},
        {"firmware-campaign", "DA-SC firmware rollout for a metering fleet",
         {.device_count = 2'000,
          .payload_bytes = firmware,
          .runs = 1,
          .base_seed = 7,
          .mechanisms = {MechanismKind::da_sc}}},
        {"mechanism-tradeoffs", "payload x TI recommendation sweep base point",
         {.device_count = 200, .runs = 5}},
        {"citywide", "one fleet campaign sharded over a 16-cell city grid",
         {.device_count = 6'000, .runs = 2, .topology = TopologySpec{.cells = 16}}},
        {"citywide-staggered", "citywide fleet with 30 s staggered per-cell campaign starts",
         {.device_count = 6'000,
          .runs = 2,
          .topology = TopologySpec{.cells = 16},
          .coordinator = multicell::CoordinatorSpec{.policy = StartPolicy::fixed_stagger,
                                                    .stagger_ms = 30'000}}},
        {"citywide-backhaul", "citywide 1 MB rollout gated by a 512 KB/s central eNB feed",
         {.device_count = 6'000,
          .payload_bytes = firmware,
          .runs = 2,
          .topology = TopologySpec{.cells = 16},
          .coordinator = multicell::CoordinatorSpec{.policy = StartPolicy::backhaul_budgeted,
                                                    .backhaul_kbps = 512.0}}},
        {"megacell", "one 10^6-device cell split into 8 paging-frame strata (DR-SI)",
         {.device_count = 1'000'000,
          .config = {.strata = 8},
          .runs = 1,
          .mechanisms = {MechanismKind::dr_si}}},
        {"churn", "single-cell campaign under device churn (leave/rejoin point processes)",
         {.device_count = 300,
          .config = {.churn = {.leave_rate = 2.0, .rejoin_ms = 120'000}},
          .runs = 5}},
        {"outage",
         "4-cell rollout with cell 1 dying mid-campaign; stranded devices self-heal onto "
         "the survivors",
         {.device_count = 2'000,
          .runs = 3,
          .topology = TopologySpec{.cells = 4},
          .cell_down = faults::OutageSpec{.cell = 1, .at_ms = 60'000}}},
        {"multicell-scaling", "fixed fleet sharded over up to 64 cells (scaling sweep base)",
         {.device_count = 20'000,
          .runs = 2,
          .mechanisms = {MechanismKind::dr_sc},
          .topology = TopologySpec{.cells = 64}}},
    };
    for (Registry::PresetEntry& entry : presets) entry.spec.name = entry.name;
    return presets;
}

}  // namespace

Registry::Registry() : presets_(builtin_presets()) {}

const Registry& Registry::instance() {
    static const Registry registry;
    return registry;
}

core::MechanismKind Registry::mechanism(std::string_view name) const {
    if (const auto kind = find_mechanism(name)) return *kind;
    throw_unknown("mechanism", name, mechanism_names());
}

std::optional<core::MechanismKind> Registry::find_mechanism(
    std::string_view name) const noexcept {
    for (const MechanismEntry& entry : kMechanisms) {
        if (entry.name == name) return entry.kind;
    }
    return std::nullopt;
}

std::string Registry::mechanism_name(core::MechanismKind kind) const {
    for (const MechanismEntry& entry : kMechanisms) {
        if (entry.kind == kind) return entry.name;
    }
    return core::to_string(kind);
}

std::vector<std::string> Registry::mechanism_names() const {
    std::vector<std::string> names;
    for (const MechanismEntry& entry : kMechanisms) names.emplace_back(entry.name);
    return names;
}

traffic::PopulationProfile Registry::profile(std::string_view name) const {
    for (const traffic::PopulationProfile& entry : traffic::builtin_profiles()) {
        if (entry.name == name) return entry;
    }
    throw_unknown("profile", name, profile_names());
}

bool Registry::has_profile(std::string_view name) const noexcept {
    for (const traffic::PopulationProfile& entry : traffic::builtin_profiles()) {
        if (entry.name == name) return true;
    }
    return false;
}

std::vector<std::string> Registry::profile_names() const {
    std::vector<std::string> names;
    for (const traffic::PopulationProfile& entry : traffic::builtin_profiles()) {
        names.push_back(entry.name);
    }
    return names;
}

ScenarioSpec Registry::preset(std::string_view name) const {
    for (const PresetEntry& entry : presets_) {
        if (entry.name == name) return entry.spec;
    }
    throw_unknown("preset", name, preset_names());
}

bool Registry::has_preset(std::string_view name) const noexcept {
    for (const PresetEntry& entry : presets_) {
        if (entry.name == name) return true;
    }
    return false;
}

std::vector<std::string> Registry::preset_names() const {
    std::vector<std::string> names;
    for (const PresetEntry& entry : presets_) names.push_back(entry.name);
    return names;
}

}  // namespace nbmg::scenario
