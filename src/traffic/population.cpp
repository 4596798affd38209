#include "traffic/population.hpp"

#include <algorithm>
#include <memory_resource>
#include <stdexcept>
// nbmg-lint: allow(unordered-iter) uniqueness filter only; audited below
#include <unordered_set>

namespace nbmg::traffic {

using nbiot::DrxCycle;

bool PopulationProfile::valid() const noexcept {
    if (classes.empty() || batch_mean < 1.0) return false;
    double total_share = 0.0;
    for (const auto& c : classes) {
        if (c.share <= 0.0 || c.cycle_weights.empty()) return false;
        double total_cycle = 0.0;
        for (const auto& [cycle, w] : c.cycle_weights) {
            if (w < 0.0) return false;
            total_cycle += w;
        }
        if (total_cycle <= 0.0) return false;
        const double total_ce = c.ce_weights[0] + c.ce_weights[1] + c.ce_weights[2];
        if (total_ce <= 0.0) return false;
        total_share += c.share;
    }
    return total_share > 0.0;
}

std::vector<GeneratedDevice> generate_population(const PopulationProfile& profile,
                                                 std::size_t count,
                                                 sim::RandomStream& rng) {
    if (!profile.valid()) {
        throw std::invalid_argument("generate_population: invalid profile");
    }

    std::vector<double> shares;
    shares.reserve(profile.classes.size());
    for (const auto& c : profile.classes) shares.push_back(c.share);
    std::vector<std::vector<double>> cycle_weights(profile.classes.size());
    for (std::size_t i = 0; i < profile.classes.size(); ++i) {
        for (const auto& [cycle, w] : profile.classes[i].cycle_weights) {
            cycle_weights[i].push_back(w);
        }
    }

    // Audited 2026-08 (PR 6): `used_imsis` is a pure uniqueness filter —
    // the only operations below are contains() and insert(); it is never
    // iterated, so its (implementation-defined) order cannot reach device
    // order, RNG draw order, or any output.  Device order is the
    // deterministic `devices.push_back` sequence driven solely by the
    // RandomStream.  Keep it hashed: the IMSI key space is 15-digit
    // sparse, an ordered set would cost log n per probe for nothing.  The
    // set only grows, so its nodes and buckets come from one bump arena,
    // not one allocation per IMSI: per IMSI a node (next pointer, IMSI)
    // and two bucket pointers, plus a word of room for the bucket count's
    // rounding up to a prime.
    std::pmr::monotonic_buffer_resource arena(count * 5 * sizeof(void*) + 1024);
    // nbmg-lint: allow(unordered-iter) contains/insert only, never iterated
    std::pmr::unordered_set<std::uint64_t> used_imsis(&arena);
    used_imsis.reserve(count * 2);

    std::vector<GeneratedDevice> devices;
    devices.reserve(count);
    while (devices.size() < count) {
        // One deployment batch: a block of consecutive IMSIs sharing class,
        // cycle and coverage (fleet provisioning; see PopulationProfile).
        const std::size_t class_index = rng.weighted_index(shares);
        const DeviceClassSpec& cls = profile.classes[class_index];

        const DrxCycle cycle =
            cls.cycle_weights[rng.weighted_index(cycle_weights[class_index])].first;

        const auto ce = static_cast<nbiot::CeLevel>(rng.weighted_index(
            std::span<const double>{cls.ce_weights.data(), cls.ce_weights.size()}));

        std::size_t batch = 1;
        if (profile.batch_mean > 1.0) {
            batch += static_cast<std::size_t>(rng.geometric(1.0 / profile.batch_mean));
        }
        batch = std::min(batch, count - devices.size());

        // Base of a block of `batch` consecutive unused 15-digit IMSIs.
        std::uint64_t base = 0;
        bool free_block = false;
        while (!free_block) {
            base = static_cast<std::uint64_t>(
                rng.uniform_int(100'000'000'000'000, 999'999'999'999'000));
            free_block = true;
            for (std::size_t k = 0; k < batch; ++k) {
                if (used_imsis.contains(base + k)) {
                    free_block = false;
                    break;
                }
            }
        }

        for (std::size_t k = 0; k < batch; ++k) {
            used_imsis.insert(base + k);
            GeneratedDevice d;
            d.spec = nbiot::UeSpec{
                nbiot::DeviceId{static_cast<std::uint32_t>(devices.size())},
                nbiot::Imsi{base + k}, cycle, ce};
            d.class_index = class_index;
            devices.push_back(d);
        }
    }
    return devices;
}

std::vector<nbiot::UeSpec> to_specs(const std::vector<GeneratedDevice>& devices) {
    std::vector<nbiot::UeSpec> specs;
    specs.reserve(devices.size());
    for (const auto& d : devices) specs.push_back(d.spec);
    return specs;
}

namespace {

DeviceClassSpec make_class(std::string name, double share,
                           std::vector<std::pair<DrxCycle, double>> cycles) {
    DeviceClassSpec cls;
    cls.name = std::move(name);
    cls.share = share;
    cls.cycle_weights = std::move(cycles);
    return cls;
}

}  // namespace

PopulationProfile massive_iot_city() {
    using namespace nbiot::drx;
    PopulationProfile p;
    p.name = "massive_iot_city";
    // Ericsson "Massive IoT in the City" narrative: a tiny population of
    // latency-sensitive alarms on short DRX, trackers and wearables on
    // shorter eDRX, and a dominating mass of meters and environmental /
    // infrastructure sensors on the longest eDRX cycles (10-year battery
    // targets).  Deployment-batch mean and shares calibrated so DR-SC's
    // transmissions/devices ratio reproduces Fig. 7's shape (~0.5 at
    // n = 100 falling to ~0.4 around n = 700-1000 with TI = 10 s); see
    // EXPERIMENTS.md for the calibration analysis.
    p.batch_mean = 1.6;
    p.classes = {
        make_class("alarm_panic", 0.01, {{seconds_2_56(), 1.0}}),
        make_class("asset_tracking", 0.04,
                   {{seconds_20_48(), 0.5}, {seconds_81_92(), 0.5}}),
        make_class("wearables", 0.05,
                   {{seconds_163_84(), 0.5}, {seconds_327_68(), 0.5}}),
        make_class("smart_metering", 0.30,
                   {{seconds_5242_88(), 0.3}, {seconds_10485_76(), 0.7}}),
        make_class("environmental", 0.25, {{seconds_10485_76(), 1.0}}),
        make_class("infrastructure", 0.35,
                   {{seconds_5242_88(), 0.2}, {seconds_10485_76(), 0.8}}),
    };
    return p;
}

PopulationProfile alarm_heavy() {
    using namespace nbiot::drx;
    PopulationProfile p;
    p.name = "alarm_heavy";
    p.classes = {
        make_class("alarm_panic", 0.50, {{seconds_1_28(), 0.3}, {seconds_2_56(), 0.7}}),
        make_class("asset_tracking", 0.30, {{seconds_20_48(), 0.5}, {seconds_40_96(), 0.5}}),
        make_class("smart_metering", 0.20,
                   {{seconds_327_68(), 0.5}, {seconds_655_36(), 0.5}}),
    };
    return p;
}

PopulationProfile meter_heavy() {
    using namespace nbiot::drx;
    PopulationProfile p;
    p.name = "meter_heavy";
    p.classes = {
        make_class("smart_metering", 0.60,
                   {{seconds_655_36(), 0.3},
                    {seconds_1310_72(), 0.4},
                    {seconds_2621_44(), 0.3}}),
        make_class("environmental", 0.40,
                   {{seconds_2621_44(), 0.4},
                    {seconds_5242_88(), 0.4},
                    {seconds_10485_76(), 0.2}}),
    };
    return p;
}

PopulationProfile uniform_edrx() {
    using namespace nbiot::drx;
    PopulationProfile p;
    p.name = "uniform_edrx";
    DeviceClassSpec cls;
    cls.name = "uniform";
    cls.share = 1.0;
    for (const DrxCycle cycle : nbiot::drx_ladder()) {
        if (cycle.is_nbiot_edrx()) cls.cycle_weights.emplace_back(cycle, 1.0);
    }
    p.classes = {cls};
    return p;
}

PopulationProfile mixed_coverage_city() {
    PopulationProfile p = massive_iot_city();
    p.name = "mixed_coverage_city";
    for (auto& cls : p.classes) {
        cls.ce_weights = {0.85, 0.12, 0.03};  // typical basement/deep-indoor tail
    }
    return p;
}

const std::vector<PopulationProfile>& builtin_profiles() {
    static const std::vector<PopulationProfile> profiles = {
        massive_iot_city(), alarm_heavy(), meter_heavy(), uniform_edrx(),
        mixed_coverage_city()};
    return profiles;
}

}  // namespace nbmg::traffic
