#include "nbiot/paging_scheduler.hpp"

#include <stdexcept>

#include "telemetry/sink.hpp"

namespace nbmg::nbiot {

PagingScheduler::PagingScheduler(int max_page_records, std::size_t devices)
    : max_records_(max_page_records) {
    if (max_page_records <= 0) {
        throw std::invalid_argument("PagingScheduler: max_page_records must be positive");
    }
    occupancy_.reserve(devices);
}

std::optional<SimTime> PagingScheduler::find_slot(const PoPhase& phase,
                                                  SimTime not_before,
                                                  SimTime deadline) const {
    const auto capacity = static_cast<std::uint32_t>(max_records_);
    for (SimTime po = phase.first_at_or_after(not_before); po < deadline;
         po += SimTime{phase.period}) {
        const auto it = occupancy_.find(po.count());
        if (it == occupancy_.end() || it->second < capacity) return po;
    }
    return std::nullopt;
}

void PagingScheduler::place(DeviceId device, SimTime po, std::uint32_t& occupancy,
                            int kind) {
    ++occupancy;
    NBMG_TELEMETRY_EMIT(telemetry_, telemetry::EventKind::page_scheduled, po.count(),
                        device.value, static_cast<std::int64_t>(occupancy), kind);
}

std::optional<SimTime> PagingScheduler::enqueue_record(DeviceId device,
                                                       const PoPhase& phase,
                                                       SimTime not_before,
                                                       SimTime deadline) {
    const auto slot = find_slot(phase, not_before, deadline);
    if (slot) place(device, *slot, occupancy_[slot->count()], 0);
    return slot;
}

std::optional<SimTime> PagingScheduler::enqueue_mltc(DeviceId device,
                                                     const PoPhase& phase,
                                                     SimTime not_before,
                                                     SimTime deadline) {
    const auto slot = find_slot(phase, not_before, deadline);
    if (slot) place(device, *slot, occupancy_[slot->count()], 1);
    return slot;
}

bool PagingScheduler::try_enqueue_record_at(DeviceId device, const PoPhase& phase,
                                            SimTime po) {
    if (!phase.is_po(po)) {
        throw std::logic_error("PagingScheduler: not a paging occasion of the device");
    }
    return force_enqueue_record_at(device, po);
}

bool PagingScheduler::force_enqueue_record_at(DeviceId device, SimTime po) {
    std::uint32_t& occupancy = occupancy_[po.count()];
    if (occupancy >= static_cast<std::uint32_t>(max_records_)) return false;
    place(device, po, occupancy, 0);
    return true;
}

}  // namespace nbmg::nbiot
