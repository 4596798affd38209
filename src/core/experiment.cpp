#include "core/experiment.hpp"

#include <stdexcept>

#include "core/planners.hpp"
#include "core/sweep.hpp"

namespace nbmg::core {

SharedPopulations generate_comparison_populations(
    const traffic::PopulationProfile& profile, std::size_t device_count,
    std::size_t runs, std::uint64_t base_seed) {
    const sim::RngFactory rng_factory(base_seed);
    auto populations = std::make_shared<ComparisonPopulations>();
    populations->profile_name = profile.name;
    populations->device_count = device_count;
    populations->base_seed = base_seed;
    populations->runs.reserve(runs);
    populations->class_indices.reserve(runs);
    for (std::size_t run = 0; run < runs; ++run) {
        sim::RandomStream pop_rng = rng_factory.stream("population", run);
        const auto generated =
            traffic::generate_population(profile, device_count, pop_rng);
        populations->runs.push_back(traffic::to_specs(generated));
        std::vector<std::uint32_t> classes;
        classes.reserve(generated.size());
        for (const auto& d : generated) {
            classes.push_back(static_cast<std::uint32_t>(d.class_index));
        }
        populations->class_indices.push_back(std::move(classes));
    }
    return populations;
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
        const sim::RngFactory rng_factory(base_seed);
        const DrScMechanism dr_sc;
        sim::RandomStream pop_rng = rng_factory.stream("population", run);
        const auto population =
            traffic::generate_population(profile, device_count, pop_rng);
        const auto specs = traffic::to_specs(population);
        sim::RandomStream plan_rng = rng_factory.stream("plan-drsc", run);
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
