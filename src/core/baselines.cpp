// Unicast reference (Sec. IV-A) and the SC-PTM extension baseline.
#include "core/planner_detail.hpp"
#include "core/planners.hpp"
#include "nbiot/paging_scheduler.hpp"

namespace nbmg::core {

MulticastPlan UnicastBaseline::plan(std::span<const nbiot::UeSpec> devices,
                                    const CampaignConfig& config,
                                    sim::RandomStream& rng) const {
    (void)rng;  // deterministic
    if (devices.empty()) throw std::invalid_argument("Unicast: empty population");
    if (!config.valid()) throw std::invalid_argument("Unicast: invalid config");

    const nbiot::PagingSchedule paging(config.paging);
    nbiot::PagingScheduler scheduler(config.paging.max_page_records, devices.size());
    scheduler.set_telemetry(config.telemetry);
    const nbiot::SimTime deadline = detail::open_deadline(devices);

    MulticastPlan plan;
    plan.kind = MechanismKind::unicast;
    plan.planning_reference = detail::reference_time(devices);
    plan.schedules.resize(devices.size());

    for (std::size_t i = 0; i < devices.size(); ++i) {
        const nbiot::UeSpec& dev = devices[i];
        // "Each device receiving the multicast data based on its own DRX
        // and without waiting for other devices": page at the next PO,
        // send the device its own copy as soon as it connects.
        const auto slot = scheduler.enqueue_record(
            dev.device, paging.phase(dev.imsi, dev.cycle), nbiot::SimTime{0}, deadline);
        if (!slot) continue;
        plan.schedules[i].page_at = *slot;
        plan.schedules[i].transmission = DeviceSchedule::kPrivate;
    }

    return plan;
}

MulticastPlan ScPtmBaseline::plan(std::span<const nbiot::UeSpec> devices,
                                  const CampaignConfig& config,
                                  sim::RandomStream& rng) const {
    (void)rng;  // deterministic
    if (devices.empty()) throw std::invalid_argument("ScPtm: empty population");
    if (!config.valid()) throw std::invalid_argument("ScPtm: invalid config");

    MulticastPlan plan;
    plan.kind = MechanismKind::sc_ptm;
    plan.schedules.resize(devices.size());

    // The SC-MCCH announcement repeats every modification period; after one
    // full period every device has read the schedule.  The transmission is
    // broadcast (no connections, no paging records).
    PlannedTransmission tx;
    tx.start = config.sc_ptm_mcch_period + config.ra_guard;
    plan.planning_reference = tx.start;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        plan.schedules[i].transmission = 0;
        tx.devices.push_back(devices[i].device);
    }
    plan.transmissions.push_back(std::move(tx));
    return plan;
}

}  // namespace nbmg::core
