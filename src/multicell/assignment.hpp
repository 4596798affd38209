// Device-to-cell assignment policies.
//
// Assignment is a pure function of (topology, devices, policy, seed): every
// device's cell is derived by hashing its IMSI (and, for class affinity,
// its profile class) through sim::derive_seed, so the map is bit-identical
// across thread counts, platforms and repeated runs, and a device keeps its
// cell when the topology and seed are unchanged.  With a 1-cell topology
// every policy degenerates to "everything camps on cell 0".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "multicell/topology.hpp"
#include "nbiot/cell.hpp"

namespace nbmg::multicell {

enum class AssignmentPolicy : std::uint8_t {
    /// IMSI hash, cells equally likely: the i.i.d. camping baseline.
    uniform_hash,
    /// IMSI hash weighted by CellSite::weight: skewed geographic load
    /// (downtown cells attract more devices than suburban ones).
    hotspot,
    /// Devices of one profile class cluster on a per-class home cell
    /// (fleets are deployed building by building, so a class concentrates
    /// geographically); a fixed spill fraction rejoins the uniform hash.
    class_affinity,
};

[[nodiscard]] constexpr const char* to_string(AssignmentPolicy policy) noexcept {
    switch (policy) {
        case AssignmentPolicy::uniform_hash: return "uniform";
        case AssignmentPolicy::hotspot: return "hotspot";
        case AssignmentPolicy::class_affinity: return "class-affinity";
    }
    return "?";
}

/// Parses the --assignment flag spelling (the to_string names above).
/// Returns nullopt for anything else.
[[nodiscard]] std::optional<AssignmentPolicy> parse_assignment_policy(
    std::string_view text) noexcept;

/// Fraction of class-affinity devices that ignore their home cell and fall
/// back to the uniform hash (portable units, re-deployments).
inline constexpr double kClassAffinitySpill = 0.2;

struct DeviceAssignment {
    /// cell_of_device[d] = topology cell index of fleet device d.
    std::vector<std::uint32_t> cell_of_device;
    /// Devices camped per cell (sums to the fleet size).
    std::vector<std::size_t> cell_sizes;
};

/// Assigns every device to a cell.  `class_indices` must parallel `devices`
/// for class_affinity (each device's traffic::GeneratedDevice::class_index)
/// and may be empty for the other policies.  Throws std::invalid_argument
/// on an invalid topology or a missing/mismatched class span.
[[nodiscard]] DeviceAssignment assign_devices(
    const CellTopology& topology, std::span<const nbiot::UeSpec> devices,
    std::span<const std::uint32_t> class_indices, AssignmentPolicy policy,
    std::uint64_t seed);

}  // namespace nbmg::multicell
