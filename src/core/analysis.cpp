#include "core/analysis.hpp"

#include <cmath>

#include "nbiot/paging.hpp"
#include "nbiot/radio.hpp"

namespace nbmg::core::analysis {

double expected_connect_latency_ms(const CampaignConfig& config) {
    const double decode = static_cast<double>(config.timing.paging_decode.count());
    const double gap = static_cast<double>(config.timing.page_to_rach.count());
    const double window_wait =
        static_cast<double>(config.rach.window_period.count()) / 2.0;
    const double exchange = static_cast<double>(config.rach.attempt_active_time().count());
    const double setup = static_cast<double>(config.timing.rrc_setup.count());
    return decode + gap + window_wait + exchange + setup;
}

double expected_unicast_connected_ms(const CampaignConfig& config,
                                     std::int64_t payload_bytes,
                                     nbiot::CeLevel level) {
    const nbiot::RadioModel radio(config.radio);
    const double exchange = static_cast<double>(config.rach.attempt_active_time().count());
    const double setup = static_cast<double>(config.timing.rrc_setup.count());
    const double airtime =
        static_cast<double>(radio.downlink_airtime(payload_bytes, level).count());
    const double release = static_cast<double>(config.timing.rrc_release.count());
    const double tail = config.include_inactivity_tail
                            ? static_cast<double>(config.inactivity_timer.count())
                            : 0.0;
    return exchange + setup + airtime + release + tail;
}

double expected_window_wait_ms(const CampaignConfig& config) {
    const double half_window =
        static_cast<double>(config.inactivity_timer.count()) / 2.0;
    const double guard = static_cast<double>(config.ra_guard.count());
    // Time spent getting connected is not waiting.
    const double connecting = expected_connect_latency_ms(config) -
                              static_cast<double>(config.timing.paging_decode.count()) -
                              static_cast<double>(config.timing.rrc_setup.count());
    return half_window + guard - connecting -
           static_cast<double>(config.timing.rrc_setup.count());
}

double exact_light_sleep_ms(const CampaignConfig& config, const nbiot::UeSpec& device,
                            nbiot::SimTime horizon, int paging_decodes,
                            int mltc_decodes) {
    const nbiot::PagingSchedule paging(config.paging);
    // The UE monitoring loop fires on POs strictly after t = 0 and strictly
    // before the horizon.
    const std::int64_t pos =
        paging.phase(device.imsi, device.cycle).count_in_range(nbiot::SimTime{1}, horizon);
    double ms = static_cast<double>(pos) *
                static_cast<double>(config.timing.po_monitor.count());
    ms += static_cast<double>(paging_decodes) *
          static_cast<double>(config.timing.paging_decode.count());
    ms += static_cast<double>(mltc_decodes) *
          static_cast<double>((config.timing.paging_decode +
                               config.timing.mltc_extension_extra)
                                  .count());
    return ms;
}

double slot_model_transmission_ratio(const traffic::PopulationProfile& profile,
                                     std::size_t device_count,
                                     const CampaignConfig& config) {
    const double ti = static_cast<double>(config.inactivity_timer.count());
    double total_share = 0.0;
    for (const auto& cls : profile.classes) total_share += cls.share;

    double expected_windows = 0.0;
    for (const auto& cls : profile.classes) {
        double cycle_weight_total = 0.0;
        for (const auto& [cycle, w] : cls.cycle_weights) cycle_weight_total += w;
        for (const auto& [cycle, w] : cls.cycle_weights) {
            const double devices = static_cast<double>(device_count) *
                                   (cls.share / total_share) *
                                   (w / cycle_weight_total);
            // Deployment batches share a slot.
            const double batches = devices / profile.batch_mean;
            const double slots =
                std::max(1.0, static_cast<double>(cycle.period_ms()) / ti);
            expected_windows +=
                slots * (1.0 - std::pow(1.0 - 1.0 / slots, batches));
        }
    }
    return expected_windows / static_cast<double>(device_count);
}

}  // namespace nbmg::core::analysis
