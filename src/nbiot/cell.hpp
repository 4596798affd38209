// A single NB-IoT cell: one eNB's paging/RACH resources plus the attached
// UE population, wired to one discrete-event simulation.
//
// The cell owns the protocol substrates; grouping logic (who to page when,
// when to transmit) lives in nbmg::core, which drives the cell through the
// Ue interface.  This mirrors the paper's setting: "a single eNB scenario
// serving a large number of NB-IoT devices".
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "nbiot/paging.hpp"
#include "nbiot/rach.hpp"
#include "nbiot/rrc.hpp"
#include "nbiot/ue.hpp"
#include "sim/simulation.hpp"

namespace nbmg::nbiot {

/// Static description of one device, as known to the network.
struct UeSpec {
    DeviceId device;
    Imsi imsi;
    DrxCycle cycle = DrxCycle::from_index(0);
    CeLevel ce_level = CeLevel::ce0;
};

class Cell {
public:
    Cell(std::uint64_t seed, PagingConfig paging_config, RachConfig rach_config,
         TimingModel timing);

    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    /// Adds a UE.  Device ids must be dense: 0, 1, 2, ... in order.
    Ue& add_ue(const UeSpec& spec);

    /// Pre-sizes the fleet accounting arrays for `count` devices.
    void reserve_ues(std::size_t count);

    /// Installs the cell-shared hook set every UE dispatches through — one
    /// std::function triple per cell instead of three per device.  May be
    /// called before or after add_ue; affects all UEs of this cell.
    void set_ue_hooks(Ue::Hooks hooks) { fleet_hooks_ = std::move(hooks); }

    [[nodiscard]] Ue& ue(DeviceId device);
    [[nodiscard]] const Ue& ue(DeviceId device) const;
    [[nodiscard]] std::size_t ue_count() const noexcept { return ues_.size(); }

    /// Struct-of-arrays per-device counters, indexed by dense DeviceId.
    [[nodiscard]] const FleetAccounting& accounting() const noexcept {
        return accounting_;
    }

    [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
    [[nodiscard]] const sim::Simulation& simulation() const noexcept { return sim_; }
    [[nodiscard]] const PagingSchedule& paging() const noexcept { return paging_; }
    [[nodiscard]] RachChannel& rach() noexcept { return rach_; }
    [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

private:
    sim::Simulation sim_;
    PagingSchedule paging_;
    TimingModel timing_;
    RachChannel rach_;
    // Deque: pointer-stable growth (UEs capture `this` in scheduled
    // lambdas) without one allocation per device.
    std::deque<Ue> ues_;
    FleetAccounting accounting_;
    Ue::Hooks fleet_hooks_;
};

}  // namespace nbmg::nbiot
