// DA-SC planner (Sec. III-B).
//
// t = 2 * maxDRX guarantees every device one PO before t.  Devices with a
// natural PO inside [t - TI, t) are simply paged there.  Every other device
// is paged at its last original-cycle PO before t - TI (so the extra POs
// of the shortened cycle run for the least possible time), reconfigured to
// the *longest* ladder cycle that creates a PO inside the window, paged
// again at that adapted PO, and restored right after the reception.
#include <algorithm>

#include "core/planner_detail.hpp"
#include "core/planners.hpp"
#include "nbiot/paging_scheduler.hpp"

namespace nbmg::core {
namespace {

struct AdjustmentChoice {
    nbiot::SimTime adjust_page_at{0};
    nbiot::DrxCycle adapted_cycle = nbiot::DrxCycle::from_index(0);
    nbiot::PoPhase adapted_phase;  // the device's POs under adapted_cycle
    nbiot::SimTime window_po{0};
};

/// Finds the adjustment for one device: the page time for the
/// reconfiguration and the longest adapted cycle producing a usable PO in
/// [window_start, t).  The page rides a uniformly chosen adapted occasion
/// inside the window, which spreads the RACH load over the whole window
/// (the same way DR-SI's random T322 expiry does).  Returns nullopt when
/// even the shortest cycle cannot help (can only happen under extreme
/// paging-capacity pressure upstream).
std::optional<AdjustmentChoice> choose_adjustment(const nbiot::PagingSchedule& paging,
                                                  const nbiot::UeSpec& dev,
                                                  nbiot::SimTime p_adj,
                                                  nbiot::SimTime window_start,
                                                  nbiot::SimTime t,
                                                  nbiot::SimTime adapt_lead,
                                                  sim::RandomStream& rng) {
    // The reconfiguration connection must complete before the adapted PO.
    const nbiot::SimTime ready = p_adj + adapt_lead;
    const nbiot::SimTime earliest = std::max(window_start, ready);

    for (int idx = dev.cycle.index() - 1; idx >= 0; --idx) {
        const nbiot::DrxCycle candidate = nbiot::DrxCycle::from_index(idx);
        const nbiot::PoPhase phase = paging.phase(dev.imsi, candidate);
        const nbiot::SimTime first = phase.first_at_or_after(earliest);
        if (first >= t) continue;
        const std::int64_t count = 1 + (t - first - nbiot::SimTime{1}).count() / phase.period;
        const std::int64_t pick = rng.uniform_int(0, count - 1);
        const nbiot::SimTime po = first + nbiot::SimTime{pick * phase.period};
        return AdjustmentChoice{p_adj, candidate, phase, po};
    }
    return std::nullopt;
}

}  // namespace

MulticastPlan DaScMechanism::plan(std::span<const nbiot::UeSpec> devices,
                                  const CampaignConfig& config,
                                  sim::RandomStream& rng) const {
    if (devices.empty()) throw std::invalid_argument("DaSc: empty population");
    if (!config.valid()) throw std::invalid_argument("DaSc: invalid config");

    const nbiot::PagingSchedule paging(config.paging);
    nbiot::PagingScheduler scheduler(config.paging.max_page_records, devices.size());
    scheduler.set_telemetry(config.telemetry);

    const nbiot::SimTime t = detail::reference_time(devices);
    const nbiot::SimTime window_start = t - config.inactivity_timer;
    const nbiot::SimTime adapt_lead =
        detail::nominal_connect_duration(config) + config.timing.rrc_reconfiguration +
        config.timing.rrc_release;

    MulticastPlan plan;
    plan.kind = MechanismKind::da_sc;
    plan.planning_reference = t;
    plan.schedules.resize(devices.size());

    PlannedTransmission tx;
    tx.start = t + config.ra_guard;

    for (std::size_t i = 0; i < devices.size(); ++i) {
        const nbiot::UeSpec& dev = devices[i];
        DeviceSchedule& schedule = plan.schedules[i];

        const nbiot::PoPhase phase = paging.phase(dev.imsi, dev.cycle);
        if (phase.has_in_range(window_start, t)) {
            // Natural PO inside the window: no adjustment needed.
            const auto slot = scheduler.enqueue_record(dev.device, phase, window_start, t);
            if (slot) {
                schedule.page_at = *slot;
                schedule.transmission = 0;
                tx.devices.push_back(dev.device);
                continue;
            }
            // All natural POs in the window are full; fall through to the
            // adjustment path, which creates additional occasions.
        }

        // Choose an adjustment PO (the last original-cycle PO before the
        // window, stepping back over full occasions) and place both pages.
        std::optional<AdjustmentChoice> placed_choice;
        std::optional<nbiot::SimTime> p_adj = phase.last_before(window_start);
        for (int attempt = 0; attempt < 8 && p_adj; ++attempt) {
            const auto choice = choose_adjustment(paging, dev, *p_adj, window_start, t,
                                                  adapt_lead, rng);
            if (choice && scheduler.try_enqueue_record_at(dev.device, phase, *p_adj)) {
                placed_choice = choice;
                break;
            }
            p_adj = phase.last_before(*p_adj);
        }
        if (!placed_choice) continue;

        // Page for the multicast at the adapted-cycle PO (full occasions
        // defer to later adapted POs, still before t).
        const auto slot = scheduler.enqueue_record(dev.device, placed_choice->adapted_phase,
                                                   placed_choice->window_po, t);
        if (!slot) continue;

        schedule.adjustment =
            DrxAdjustment{placed_choice->adjust_page_at, placed_choice->adapted_cycle};
        schedule.page_at = *slot;
        schedule.transmission = 0;
        tx.devices.push_back(dev.device);
    }

    plan.transmissions.push_back(std::move(tx));
    return plan;
}

}  // namespace nbmg::core
