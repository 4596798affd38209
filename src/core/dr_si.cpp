// DR-SI planner (Sec. III-C).
//
// Devices with a natural PO inside [t - TI, t) are paged normally there.
// Every other device receives the extended paging message (mltc extension:
// identity + time to multicast) at its first PO, keeps sleeping on its own
// cycle, and wakes at a uniformly random T322 expiry inside the window to
// connect with cause multicastReception.  Exactly one transmission.
#include "core/planner_detail.hpp"
#include "core/planners.hpp"
#include "nbiot/paging_scheduler.hpp"

namespace nbmg::core {

MulticastPlan DrSiMechanism::plan(std::span<const nbiot::UeSpec> devices,
                                  const CampaignConfig& config,
                                  sim::RandomStream& rng) const {
    if (devices.empty()) throw std::invalid_argument("DrSi: empty population");
    if (!config.valid()) throw std::invalid_argument("DrSi: invalid config");

    const nbiot::PagingSchedule paging(config.paging);
    nbiot::PagingScheduler scheduler(config.paging.max_page_records, devices.size());
    scheduler.set_telemetry(config.telemetry);

    const nbiot::SimTime t = detail::reference_time(devices);
    const nbiot::SimTime window_start = t - config.inactivity_timer;

    MulticastPlan plan;
    plan.kind = MechanismKind::dr_si;
    plan.planning_reference = t;
    plan.schedules.resize(devices.size());

    PlannedTransmission tx;
    tx.start = t + config.ra_guard;

    for (std::size_t i = 0; i < devices.size(); ++i) {
        const nbiot::UeSpec& dev = devices[i];
        DeviceSchedule& schedule = plan.schedules[i];
        schedule.device = dev.device;

        const nbiot::PoPhase phase = paging.phase(dev.imsi, dev.cycle);
        if (phase.has_in_range(window_start, t)) {
            const auto slot = scheduler.enqueue_record(dev.device, phase, window_start, t);
            if (slot) {
                schedule.page_at = *slot;
                schedule.transmission = 0;
                tx.devices.push_back(dev.device);
                continue;
            }
            // Window occasions full: fall through to the extension path,
            // which can notify at any earlier PO.
        }

        const nbiot::SimTime wake_at{rng.uniform_int(window_start.count(), t.count() - 1)};
        const auto slot =
            scheduler.enqueue_mltc(dev.device, phase, nbiot::SimTime{0}, window_start);
        if (!slot) {
            plan.unserved.push_back(dev.device);
            continue;
        }
        schedule.mltc = MltcNotification{*slot, wake_at};
        schedule.transmission = 0;
        tx.devices.push_back(dev.device);
    }

    plan.transmissions.push_back(std::move(tx));
    return plan;
}

}  // namespace nbmg::core
