#include "core/report.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace nbmg::core {
namespace {

double ms(nbiot::SimTime t) { return static_cast<double>(t.count()); }

}  // namespace

double total_light_sleep_ms(const CampaignResult& result) noexcept {
    double total = 0.0;
    for (const auto& d : result.devices) total += ms(d.energy.light_sleep_uptime());
    return total;
}

double total_connected_ms(const CampaignResult& result) noexcept {
    double total = 0.0;
    for (const auto& d : result.devices) total += ms(d.energy.connected_uptime());
    return total;
}

double mean_light_sleep_ms(const CampaignResult& result) noexcept {
    if (result.devices.empty()) return 0.0;
    return total_light_sleep_ms(result) / static_cast<double>(result.devices.size());
}

double mean_connected_ms(const CampaignResult& result) noexcept {
    if (result.devices.empty()) return 0.0;
    return total_connected_ms(result) / static_cast<double>(result.devices.size());
}

double completion_p99_ms(const CampaignResult& result) {
    std::vector<std::int64_t> completion;
    completion.reserve(result.devices.size());
    for (const auto& d : result.devices) {
        const bool complete = d.received && d.released_at.has_value();
        completion.push_back(complete ? d.released_at->count()
                                      : result.observation_horizon.count());
    }
    return nearest_rank_p99(completion);
}

double nearest_rank_p99(std::vector<std::int64_t>& completion) {
    if (completion.empty()) return 0.0;
    const std::size_t rank =
        (completion.size() * 99 + 99) / 100;  // ceil(0.99 n), 1-based
    const std::size_t index = std::min(rank, completion.size()) - 1;
    std::nth_element(completion.begin(),
                     completion.begin() + static_cast<std::ptrdiff_t>(index),
                     completion.end());
    return static_cast<double>(completion[index]);
}

RelativeUptime relative_uptime(const CampaignResult& mechanism,
                               const CampaignResult& unicast_reference) {
    if (mechanism.devices.size() != unicast_reference.devices.size()) {
        throw std::invalid_argument("relative_uptime: population mismatch");
    }
    if (mechanism.observation_horizon != unicast_reference.observation_horizon) {
        throw std::invalid_argument(
            "relative_uptime: observation horizons differ; light-sleep uptime "
            "would not be comparable");
    }

    RelativeUptime out;
    const double base_light = total_light_sleep_ms(unicast_reference);
    const double base_conn = total_connected_ms(unicast_reference);
    if (base_light > 0.0) {
        out.light_sleep_increase = total_light_sleep_ms(mechanism) / base_light - 1.0;
    }
    if (base_conn > 0.0) {
        out.connected_increase = total_connected_ms(mechanism) / base_conn - 1.0;
    }

    for (std::size_t i = 0; i < mechanism.devices.size(); ++i) {
        if (mechanism.devices[i].spec.imsi != unicast_reference.devices[i].spec.imsi) {
            throw std::invalid_argument("relative_uptime: device pairing mismatch");
        }
    }
    return out;
}

BandwidthComparison bandwidth_comparison(const CampaignResult& mechanism,
                                         const CampaignResult& unicast_reference) {
    BandwidthComparison out;
    out.transmissions = mechanism.total_transmissions();
    const auto n = static_cast<double>(mechanism.devices.size());
    if (n > 0.0) {
        out.transmissions_per_device = static_cast<double>(out.transmissions) / n;
        out.savings_vs_unicast = 1.0 - out.transmissions_per_device;
    }
    if (unicast_reference.bytes_on_air > 0) {
        out.bytes_on_air_ratio = static_cast<double>(mechanism.bytes_on_air) /
                                 static_cast<double>(unicast_reference.bytes_on_air);
    }
    return out;
}

stats::Table mechanism_summary_table(const MechanismStats& reference,
                                     std::span<const MechanismStats> mechanisms) {
    stats::Table table({"mechanism", "transmissions", "tx/device",
                        "light-sleep vs unicast", "connected vs unicast",
                        "bytes vs unicast", "recovery tx", "unreceived",
                        "p99 completion (s)", "redelivered (KB)", "stranded"});
    const auto add_row = [&table](const MechanismStats& s, bool is_reference) {
        table.add_row(
            {std::string{to_string(s.kind)},
             stats::Table::cell(s.transmissions.mean(), 1),
             stats::Table::cell(s.transmissions_per_device.mean(), 3),
             is_reference ? "-"
                          : stats::Table::cell_percent(s.light_sleep_increase.mean(), 2),
             is_reference ? "-"
                          : stats::Table::cell_percent(s.connected_increase.mean(), 2),
             is_reference ? "-" : stats::Table::cell(s.bytes_ratio.mean(), 3),
             stats::Table::cell(s.recovery_transmissions.mean(), 1),
             stats::Table::cell(s.unreceived_devices.mean(), 1),
             stats::Table::cell(s.completion_p99_ms.mean() / 1000.0, 1),
             stats::Table::cell(s.redelivery_bytes.mean() / 1024.0, 1),
             stats::Table::cell(s.stranded_devices.mean(), 1)});
    };
    add_row(reference, true);
    for (const MechanismStats& s : mechanisms) add_row(s, false);
    return table;
}

}  // namespace nbmg::core
