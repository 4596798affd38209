#include "core/mechanism.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/planners.hpp"

namespace nbmg::core {

std::unique_ptr<GroupingMechanism> make_mechanism(MechanismKind kind) {
    switch (kind) {
        case MechanismKind::dr_sc: return std::make_unique<DrScMechanism>();
        case MechanismKind::da_sc: return std::make_unique<DaScMechanism>();
        case MechanismKind::dr_si: return std::make_unique<DrSiMechanism>();
        case MechanismKind::unicast: return std::make_unique<UnicastBaseline>();
        case MechanismKind::sc_ptm: return std::make_unique<ScPtmBaseline>();
    }
    throw std::invalid_argument("make_mechanism: unknown kind");
}

nbiot::DrxCycle population_max_cycle(std::span<const nbiot::UeSpec> devices) {
    if (devices.empty()) {
        throw std::invalid_argument("population_max_cycle: empty population");
    }
    nbiot::DrxCycle best = devices.front().cycle;
    for (const auto& d : devices) best = std::max(best, d.cycle);
    return best;
}

void validate_plan(const MulticastPlan& plan, std::span<const nbiot::UeSpec> devices) {
    if (plan.schedules.size() != devices.size()) {
        throw std::logic_error("plan: schedule count != device count");
    }
    // owner[i]: the transmission carrying device i, or kUnserved.
    std::vector<std::size_t> owner(devices.size(), DeviceSchedule::kUnserved);
    for (std::size_t t = 0; t < plan.transmissions.size(); ++t) {
        for (const auto dev : plan.transmissions[t].devices) {
            if (dev.value >= devices.size()) throw std::logic_error("plan: bad device id");
            if (owner[dev.value] != DeviceSchedule::kUnserved) {
                throw std::logic_error("plan: device in two transmissions");
            }
            owner[dev.value] = t;
        }
    }
    const bool unicast = plan.kind == MechanismKind::unicast;
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        if (owner[i] != (s.shared() ? s.transmission : DeviceSchedule::kUnserved)) {
            throw std::logic_error("plan: device " + std::to_string(i) +
                                   " is not in exactly its schedule's transmission");
        }
        if (s.served() && s.shared() == unicast) {
            throw std::logic_error("plan: private copies are unicast's, and unicast's only");
        }
        if (s.adjustment && s.mltc) {
            throw std::logic_error("plan: device both adjusted and mltc-notified");
        }
        if (s.mltc && s.page_at) {
            throw std::logic_error("plan: mltc device must not also be paged normally");
        }
    }
    const bool single_tx_kind =
        plan.kind == MechanismKind::da_sc || plan.kind == MechanismKind::dr_si ||
        plan.kind == MechanismKind::sc_ptm;
    if (single_tx_kind && plan.transmissions.size() != 1) {
        throw std::logic_error(std::string{to_string(plan.kind)} +
                               ": must plan exactly one transmission");
    }
    if (unicast && !plan.transmissions.empty()) {
        throw std::logic_error("unicast: a plan of private copies holds no shared transmission");
    }
}

}  // namespace nbmg::core
