#include "nbiot/cell.hpp"

#include <memory>
#include <new>
#include <stdexcept>

namespace nbmg::nbiot {

Cell::Cell(std::uint64_t seed, PagingConfig paging_config, RachConfig rach_config,
           TimingModel timing)
    : sim_(seed),
      paging_(paging_config),
      timing_(timing),
      rach_(sim_, rach_config, sim_.stream("rach")) {
    if (!timing_.valid()) throw std::invalid_argument("Cell: invalid timing model");
}

Cell::~Cell() {
    for (std::size_t id = 0; id < ue_count_; ++id) std::destroy_at(slot(id));
}

Ue& Cell::add_ue(const UeSpec& spec) {
    if (spec.device.value != ue_count_) {
        throw std::invalid_argument("Cell::add_ue: device ids must be dense and in order");
    }
    if (ue_count_ == ue_blocks_.size() * kUesPerBlock) {
        ue_blocks_.push_back(std::make_unique_for_overwrite<UeBlock>());
    }
    accounting_.energy.emplace_back();
    accounting_.po_count.push_back(0);
    Ue* ue = ::new (static_cast<void*>(slot(ue_count_)))
        Ue(sim_, spec.device, spec.imsi, spec.cycle, spec.ce_level, paging_, timing_,
           rach_, accounting_, fleet_hooks_);
    ++ue_count_;
    return *ue;
}

void Cell::reserve_ues(std::size_t count) {
    accounting_.energy.reserve(count);
    accounting_.po_count.reserve(count);
    ue_blocks_.reserve((count + kUesPerBlock - 1) / kUesPerBlock);
}

Ue& Cell::ue(DeviceId device) {
    if (device.value >= ue_count_) throw std::out_of_range("Cell::ue: unknown device");
    return *slot(device.value);
}

const Ue& Cell::ue(DeviceId device) const {
    if (device.value >= ue_count_) throw std::out_of_range("Cell::ue: unknown device");
    return *slot(device.value);
}

}  // namespace nbmg::nbiot
