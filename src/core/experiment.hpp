// Multi-run experiment building blocks shared by every driver: the
// per-run device populations, the per-mechanism aggregate bundle, and the
// Fig. 7 DR-SC planning sweep.  The campaign engine itself is
// multicell::run_deployment (a single-cell scenario is its 1-cell
// deployment); scenario::run_scenario is the front door.
//
// Runs fan out over the sweep engine (core/sweep.hpp): every run derives
// its RNG streams from the base seed and its run index alone, and the
// per-run partial statistics are merged in run order, so the aggregates
// are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "stats/summary.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {

/// Per-run device populations generated once and shared across every
/// mechanism and every sweep point that uses the same (profile,
/// device_count, base_seed).  The generating parameters travel with the
/// specs so the engine can reject a set generated for a different setup
/// instead of silently producing non-reproducible aggregates.
struct ComparisonPopulations {
    std::string profile_name;
    std::size_t device_count = 0;
    std::uint64_t base_seed = 0;
    std::vector<std::vector<nbiot::UeSpec>> runs;  // index: runs[run]
    /// Per-device profile class (parallel to `runs`): class_indices[run][d]
    /// is the index into PopulationProfile::classes that generated device d;
    /// the deployment engine feeds it to class-affinity assignment policies.
    std::vector<std::vector<std::uint32_t>> class_indices;
};
using SharedPopulations = std::shared_ptr<const ComparisonPopulations>;

/// Generates the populations of runs 0..runs-1, each from
/// stream("population", run) of base_seed — aggregates computed from a
/// shared set are bit-identical to regenerating per call.
[[nodiscard]] SharedPopulations generate_comparison_populations(
    const traffic::PopulationProfile& profile, std::size_t device_count,
    std::size_t runs, std::uint64_t base_seed);

/// Aggregated results of one mechanism across runs.
struct MechanismStats {
    MechanismKind kind = MechanismKind::unicast;
    stats::Summary light_sleep_increase;       // aggregate ratio - 1 per run
    stats::Summary connected_increase;         // aggregate ratio - 1 per run
    stats::Summary transmissions;              // total transmissions per run
    stats::Summary transmissions_per_device;   // ratio per run
    stats::Summary bytes_ratio;                // bytes on air vs unicast
    stats::Summary recovery_transmissions;     // robustness metric
    stats::Summary unreceived_devices;         // devices left without payload
    stats::Summary mean_connected_seconds;     // absolute per-device mean
    stats::Summary mean_light_sleep_seconds;   // absolute per-device mean
    stats::Summary completion_p99_ms;          // fleet completion tail per run
    stats::Summary redelivery_bytes;           // fault re-delivery overhead
    stats::Summary stranded_devices;           // incomplete at cell outage
};

/// Fig. 7 fast path: DR-SC is planned (not executed) because the figure
/// only needs the transmission count.  Returns per-run transmission totals.
struct TransmissionSweepPoint {
    std::size_t device_count = 0;
    stats::Summary transmissions;
    stats::Summary transmissions_per_device;
};

/// Sweeps DR-SC planning over `device_counts x runs`, fanning the whole
/// grid across `threads` workers.  One result per device count, in order.
[[nodiscard]] std::vector<TransmissionSweepPoint> drsc_transmission_sweep(
    const traffic::PopulationProfile& profile,
    std::span<const std::size_t> device_counts, const CampaignConfig& config,
    std::size_t runs, std::uint64_t base_seed, std::size_t threads = 0);

[[nodiscard]] TransmissionSweepPoint drsc_transmission_point(
    const traffic::PopulationProfile& profile, std::size_t device_count,
    const CampaignConfig& config, std::size_t runs, std::uint64_t base_seed,
    std::size_t threads = 0);

}  // namespace nbmg::core
