// Device population generation.
//
// The paper evaluates "realistic NB-IoT traffic patterns" based on the
// Ericsson "Massive IoT in the City" mix: many device categories (alarms,
// trackers, meters, environmental sensors, infrastructure) with DRX/eDRX
// cycles spanning the whole ladder.  The raw Ericsson data is not public;
// what the experiments actually need is the induced heterogeneous cycle
// distribution, which this module generates from named, parameterized
// profiles (see DESIGN.md, substitution table).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nbiot/cell.hpp"
#include "nbiot/drx.hpp"
#include "sim/random.hpp"

namespace nbmg::traffic {

/// One device category of a profile.
struct DeviceClassSpec {
    std::string name;
    double share = 0.0;  // fraction of the population (normalized across classes)
    /// DRX cycle choices with relative weights.
    std::vector<std::pair<nbiot::DrxCycle, double>> cycle_weights;
    /// CE-level mix (CE0, CE1, CE2); defaults to normal coverage only.
    std::array<double, 3> ce_weights{1.0, 0.0, 0.0};

    friend bool operator==(const DeviceClassSpec&, const DeviceClassSpec&) = default;
};

struct PopulationProfile {
    std::string name;
    std::vector<DeviceClassSpec> classes;
    /// Mean deployment-batch size (>= 1).  Operators provision device
    /// fleets in blocks of consecutive IMSIs; devices of one batch share a
    /// class and DRX cycle, so their paging occasions fall within a few
    /// frames of each other.  Batch sizes are 1 + Geometric.  1.0 disables
    /// batching (fully i.i.d. IMSIs).
    double batch_mean = 1.0;

    [[nodiscard]] bool valid() const noexcept;

    friend bool operator==(const PopulationProfile&, const PopulationProfile&) = default;
};

/// A generated device: its network-visible spec plus the class it came from.
struct GeneratedDevice {
    nbiot::UeSpec spec;
    std::size_t class_index = 0;
};

/// Draws `count` devices from `profile`.  IMSIs are unique, uniformly
/// random 15-digit values, which is what spreads paging occasions across
/// each cycle.  Device ids are dense 0..count-1.
[[nodiscard]] std::vector<GeneratedDevice> generate_population(
    const PopulationProfile& profile, std::size_t count, sim::RandomStream& rng);

/// Converts to the plain UeSpec list used by planners and the cell.
[[nodiscard]] std::vector<nbiot::UeSpec> to_specs(
    const std::vector<GeneratedDevice>& devices);

/// --- built-in profiles ---

/// The default evaluation mix (calibrated so the DR-SC transmission curve
/// reproduces the paper's Fig. 7 shape; see EXPERIMENTS.md).
[[nodiscard]] PopulationProfile massive_iot_city();

/// Sensitivity-analysis profiles (ablation A3).
[[nodiscard]] PopulationProfile alarm_heavy();   // short cycles dominate
[[nodiscard]] PopulationProfile meter_heavy();   // long eDRX dominates
[[nodiscard]] PopulationProfile uniform_edrx();  // uniform over NB-IoT eDRX ladder

/// Profile with a CE-level mix (for the coverage ablation).
[[nodiscard]] PopulationProfile mixed_coverage_city();

[[nodiscard]] const std::vector<PopulationProfile>& builtin_profiles();

}  // namespace nbmg::traffic
