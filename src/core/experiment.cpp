#include "core/experiment.hpp"

#include <stdexcept>

#include "core/planners.hpp"
#include "core/sweep.hpp"

namespace nbmg::core {

std::vector<traffic::GeneratedDevice> run_population(
    const traffic::PopulationProfile& profile, std::size_t device_count,
    std::uint64_t base_seed, std::size_t run) {
    sim::RandomStream rng = sim::RngFactory(base_seed).stream("population", run);
    return traffic::generate_population(profile, device_count, rng);
}

std::vector<TransmissionSweepPoint> drsc_transmission_sweep(
    const traffic::PopulationProfile& profile,
    std::span<const std::size_t> device_counts, const CampaignConfig& config,
    std::size_t runs, std::uint64_t base_seed, std::size_t threads) {
    if (runs == 0 || device_counts.empty()) {
        throw std::invalid_argument("drsc_transmission_sweep: empty setup");
    }
    for (const std::size_t n : device_counts) {
        if (n == 0) {
            throw std::invalid_argument("drsc_transmission_sweep: empty setup");
        }
    }

    // A cell plans one run at one device count; the RNG streams depend only
    // on (base_seed, run), exactly as the serial loop derived them.
    const auto plan_cell = [&](std::size_t point, std::size_t run) -> double {
        const std::size_t device_count = device_counts[point];
        const DrScMechanism dr_sc;
        const auto specs =
            traffic::to_specs(run_population(profile, device_count, base_seed, run));
        sim::RandomStream plan_rng = sim::RngFactory(base_seed).stream("plan-drsc", run);
        const MulticastPlan plan = dr_sc.plan(specs, config, plan_rng);
        return static_cast<double>(plan.transmissions.size());
    };
    const auto reduce_point = [&](std::size_t point,
                                  std::span<const double> transmissions) {
        TransmissionSweepPoint out;
        out.device_count = device_counts[point];
        for (const double tx : transmissions) {
            out.transmissions.add(tx);
            out.transmissions_per_device.add(tx /
                                             static_cast<double>(out.device_count));
        }
        return out;
    };
    return sweep_points(device_counts.size(), runs, threads, plan_cell, reduce_point);
}

TransmissionSweepPoint drsc_transmission_point(const traffic::PopulationProfile& profile,
                                               std::size_t device_count,
                                               const CampaignConfig& config,
                                               std::size_t runs,
                                               std::uint64_t base_seed,
                                               std::size_t threads) {
    const std::size_t counts[] = {device_count};
    if (device_count == 0) {
        throw std::invalid_argument("drsc_transmission_point: empty setup");
    }
    return drsc_transmission_sweep(profile, counts, config, runs, base_seed,
                                   threads)
        .front();
}

}  // namespace nbmg::core
