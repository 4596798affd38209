// The five planners.  DR-SC, DA-SC and DR-SI are the paper's mechanisms
// (Sec. III); Unicast is its energy reference; SC-PTM is the pre-[3]
// baseline included as an extension.
#pragma once

#include <vector>

#include "core/mechanism.hpp"
#include "setcover/window_cover.hpp"

namespace nbmg::core {

/// Sec. III-A: respects every DRX cycle; greedy window cover over paging
/// occasions (set-cover heuristic, random tie-break); one transmission per
/// chosen window.  The planning horizon, 2 * maxDRX, holds two copies of
/// the PO pattern: the cover gets one maxDRX of POs and a copy count of 2.
class DrScMechanism final : public GroupingMechanism {
public:
    [[nodiscard]] MechanismKind kind() const noexcept override {
        return MechanismKind::dr_sc;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "DR-SC"; }
    [[nodiscard]] MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                     const CampaignConfig& config,
                                     sim::RandomStream& rng) const override;
};

/// DR-SC's cover input: every PO of every device in [0, horizon) (from
/// its PoPhase: the offset, then + one period while below `horizon`), in
/// (time, device) order.  The planner passes horizon = maxDRX, one period
/// of the pattern.  Throws std::logic_error when some device's period is
/// not a multiple of the shortest (every DRX ladder cycle is).
[[nodiscard]] std::vector<setcover::PoEvent> dr_sc_po_events(
    std::span<const nbiot::UeSpec> devices, const nbiot::PagingSchedule& paging,
    nbiot::SimTime horizon);

/// Sec. III-B: picks t = 2*maxDRX; devices without a PO in [t-TI, t) are
/// paged at their last PO before t-TI and reconfigured to the longest
/// ladder cycle that creates one; exactly one transmission.
class DaScMechanism final : public GroupingMechanism {
public:
    [[nodiscard]] MechanismKind kind() const noexcept override {
        return MechanismKind::da_sc;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "DA-SC"; }
    [[nodiscard]] MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                     const CampaignConfig& config,
                                     sim::RandomStream& rng) const override;
};

/// Sec. III-C: devices without a PO in the window get the mltc paging
/// extension early and wake at a random T322 expiry inside the window;
/// exactly one transmission.
class DrSiMechanism final : public GroupingMechanism {
public:
    [[nodiscard]] MechanismKind kind() const noexcept override {
        return MechanismKind::dr_si;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "DR-SI"; }
    [[nodiscard]] MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                     const CampaignConfig& config,
                                     sim::RandomStream& rng) const override;
};

/// The paper's reference: every device is paged at its own next PO and
/// receives a private copy immediately — minimal energy, maximal bandwidth.
class UnicastBaseline final : public GroupingMechanism {
public:
    [[nodiscard]] MechanismKind kind() const noexcept override {
        return MechanismKind::unicast;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "Unicast"; }
    [[nodiscard]] MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                     const CampaignConfig& config,
                                     sim::RandomStream& rng) const override;
};

/// SC-PTM-style delivery: devices monitor the SC-MCCH every modification
/// period (forever, whether or not data exists) and receive the multicast
/// in idle mode without connecting.
class ScPtmBaseline final : public GroupingMechanism {
public:
    [[nodiscard]] MechanismKind kind() const noexcept override {
        return MechanismKind::sc_ptm;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "SC-PTM"; }
    [[nodiscard]] MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                     const CampaignConfig& config,
                                     sim::RandomStream& rng) const override;
};

}  // namespace nbmg::core
