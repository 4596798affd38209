// DR-SC planner (Sec. III-A).
//
// The planning horizon is 2 * maxDRX (per the paper): two repetitions of
// the PO pattern, since every ladder cycle divides maxDRX.  Enumerate every
// device's paging occasions over one repetition, [0, maxDRX), run the
// greedy window cover over its two copies (window = TI, random tie-break;
// the second copy is read in place, never built), transmit at each
// window's end plus the RA guard, and page each covered device at its
// first PO inside its window.
// Devices that cannot be paged inside their window (paging-channel
// capacity) fall back to later rounds and, ultimately, to a dedicated
// transmission — so the plan always covers everyone the channel can reach.
#include <algorithm>

#include "core/planner_detail.hpp"
#include "core/planners.hpp"
#include "nbiot/paging_scheduler.hpp"
#include "setcover/window_cover.hpp"

namespace nbmg::core {

std::vector<setcover::PoEvent> dr_sc_po_events(std::span<const nbiot::UeSpec> devices,
                                               const nbiot::PagingSchedule& paging,
                                               nbiot::SimTime horizon) {
    std::vector<nbiot::PoPhase> phases;
    phases.reserve(devices.size());
    std::size_t total = 0;
    for (const nbiot::UeSpec& dev : devices) {
        phases.push_back(paging.phase(dev.imsi, dev.cycle));
        total += static_cast<std::size_t>(
            phases.back().count_in_range(nbiot::SimTime{0}, horizon));
    }
    std::vector<setcover::PoEvent> events;
    events.reserve(total);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const nbiot::SimTime period{phases[i].period};
        for (nbiot::SimTime po{phases[i].offset}; po < horizon; po += period) {
            events.push_back(setcover::PoEvent{po, devices[i].device.value});
        }
    }
    return events;
}

MulticastPlan DrScMechanism::plan(std::span<const nbiot::UeSpec> devices,
                                  const CampaignConfig& config,
                                  sim::RandomStream& rng) const {
    if (devices.empty()) throw std::invalid_argument("DrSc: empty population");
    if (!config.valid()) throw std::invalid_argument("DrSc: invalid config");

    const nbiot::PagingSchedule paging(config.paging);
    nbiot::PagingScheduler scheduler(config.paging.max_page_records, devices.size());
    scheduler.set_telemetry(config.telemetry);
    const nbiot::SimTime horizon = detail::reference_time(devices);
    const nbiot::SimTime window = config.inactivity_timer;

    MulticastPlan plan;
    plan.kind = MechanismKind::dr_sc;
    plan.planning_reference = horizon;
    plan.schedules.resize(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
        plan.schedules[i].device = devices[i].device;
    }

    // Every PO of every device over the horizon: one repetition, twice.
    // maxDRX is whole frames, so the horizon is exactly 2 * maxDRX.
    const nbiot::SimTime max_drx{population_max_cycle(devices).period_ms()};
    const setcover::WindowCoverResult cover = setcover::greedy_window_cover(
        dr_sc_po_events(devices, paging, max_drx), max_drx, 2, window,
        static_cast<std::uint32_t>(devices.size()), rng);
    // Every device has >= 1 PO in [0, maxDRX), so nothing is uncoverable.
    if (!cover.uncoverable.empty()) {
        throw std::logic_error("DrSc: device without paging occasions in horizon");
    }

    std::vector<nbiot::DeviceId> leftovers;
    for (const setcover::CoverWindow& w : cover.windows) {
        PlannedTransmission tx;
        nbiot::SimTime last_page = w.start;
        for (const std::uint32_t d : w.devices) {
            const nbiot::UeSpec& spec = devices[d];
            // Page at the device's first free PO inside [window start, end].
            const auto slot =
                scheduler.enqueue_record(spec.device, paging.phase(spec.imsi, spec.cycle),
                                         w.start, w.end + nbiot::SimTime{1});
            if (!slot) {
                leftovers.push_back(spec.device);
                continue;
            }
            plan.schedules[d].page_at = *slot;
            plan.schedules[d].transmission = plan.transmissions.size();
            tx.devices.push_back(spec.device);
            last_page = std::max(last_page, *slot);
        }
        // Transmit as soon as the last paged device can have connected; the
        // window only defines membership (the eNB has no reason to wait for
        // the full TI once everyone it paged is connected).
        tx.start = last_page + detail::nominal_connect_duration(config) + config.ra_guard;
        if (!tx.devices.empty()) plan.transmissions.push_back(std::move(tx));
    }

    // Fallback: devices squeezed out by paging capacity each get a
    // dedicated transmission at their next reachable PO.
    for (const nbiot::DeviceId dev : leftovers) {
        const nbiot::UeSpec& spec = devices[dev.value];
        const auto slot =
            scheduler.enqueue_record(spec.device, paging.phase(spec.imsi, spec.cycle),
                                     horizon, detail::open_deadline(devices));
        if (!slot) {
            plan.unserved.push_back(dev);
            continue;
        }
        plan.schedules[dev.value].page_at = *slot;
        plan.schedules[dev.value].transmission = plan.transmissions.size();
        PlannedTransmission tx;
        tx.start = *slot + detail::nominal_connect_duration(config) + config.ra_guard;
        tx.devices.push_back(dev);
        plan.transmissions.push_back(std::move(tx));
    }

    plan.paging_entries = scheduler.total_entries();
    return plan;
}

}  // namespace nbmg::core
