// Grouping-mechanism interface and the campaign plan it produces.
//
// A mechanism decides, offline, how a multicast campaign will unfold:
// when each device is paged, whether its DRX cycle is temporarily adjusted
// (DA-SC), whether it gets the mltc paging extension (DR-SI), and when the
// multicast transmission(s) happen.  The CampaignRunner then executes the
// plan on the event-driven cell model, where random access contention and
// paging capacity produce the measured uptime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "faults/spec.hpp"
#include "nbiot/cell.hpp"
#include "nbiot/drx.hpp"
#include "nbiot/paging.hpp"
#include "nbiot/rach.hpp"
#include "nbiot/radio.hpp"
#include "nbiot/rrc.hpp"
#include "sim/random.hpp"

namespace nbmg::telemetry {
class CampaignSink;
}  // namespace nbmg::telemetry

namespace nbmg::core {

enum class MechanismKind : std::uint8_t {
    dr_sc,    // DRX respecting, standards compliant (greedy window cover)
    da_sc,    // DRX adjusting, standards compliant (single transmission)
    dr_si,    // DRX respecting, standards incompliant (paging extension)
    unicast,  // per-device delivery; the paper's energy reference
    sc_ptm,   // SC-PTM-style periodic monitoring (extension baseline)
};

[[nodiscard]] constexpr const char* to_string(MechanismKind kind) noexcept {
    switch (kind) {
        case MechanismKind::dr_sc: return "DR-SC";
        case MechanismKind::da_sc: return "DA-SC";
        case MechanismKind::dr_si: return "DR-SI";
        case MechanismKind::unicast: return "Unicast";
        case MechanismKind::sc_ptm: return "SC-PTM";
    }
    return "?";
}

/// Mechanism properties as the paper's Table-less Sec. III states them.
[[nodiscard]] constexpr bool standards_compliant(MechanismKind kind) noexcept {
    return kind != MechanismKind::dr_si;
}
[[nodiscard]] constexpr bool respects_drx(MechanismKind kind) noexcept {
    return kind != MechanismKind::da_sc;
}

// Note on DA-SC adapted paging occasions: the paper's Fig. 5 draws the
// adapted occasions as repeating from the PO where the adjustment happened,
// while TS 36.304 derives them from the UE_ID congruence.  With nB = T the
// two pictures coincide exactly — every original PO satisfies the congruence
// of every shorter ladder cycle (nesting), so the "anchored" grid IS the
// formula grid.  See EXPERIMENTS.md, reproduction note R1.

/// Upper bound on campaign strata (see CampaignConfig::strata and
/// core::resolve_strata).  32 keeps every power-of-two stratum count a
/// divisor of the shortest DRX cycle's frame length, so a device's
/// stratum is invariant under the DA-SC ladder adaptation.
inline constexpr std::size_t kMaxStrata = 32;

/// All knobs of one campaign evaluation.  Defaults follow the paper
/// (TI = 10-30 s in commercial networks; we use 20 s) and typical NB-IoT
/// deployments for everything the paper leaves unspecified.
struct CampaignConfig {
    nbiot::SimTime inactivity_timer{10'000};  // TI (commercial networks: 10-30 s)
    /// Gap between a grouping window's end and the transmission start, so
    /// the last-paged device can finish random access even after a RACH
    /// collision and backoff (DESIGN.md §6.1).
    nbiot::SimTime ra_guard{2'000};
    nbiot::TimingModel timing{};
    nbiot::PagingConfig paging{};
    nbiot::RachConfig rach{};
    nbiot::RadioConfig radio{};
    nbiot::SignalingSizes sizes{};
    /// Keep devices connected for TI after reception (off: the paper's
    /// connected-uptime enumeration stops at the data).
    bool include_inactivity_tail = false;
    /// Failure injection: probability a page transmission is not decoded.
    double page_miss_prob = 0.0;
    int max_page_attempts = 3;
    /// Background random-access load (arrivals/s) competing on the RACH.
    double background_ra_per_second = 0.0;
    /// SC-PTM baseline: SC-MCCH monitoring period.
    nbiot::SimTime sc_ptm_mcch_period{10'240};
    /// Failure injection: device churn (leave/rejoin point processes).
    /// Disabled by default; when enabled, every fault draw comes from a
    /// dedicated derive_seed(seed, "faults", device) stream so the
    /// campaign streams — and therefore faults-off results — are
    /// untouched at any --threads/--strata.
    faults::ChurnSpec churn{};
    /// Failure injection: this cell goes dark at the given simulated time
    /// (-1 = no outage).  The event loop stops draining at that instant;
    /// devices that have not completed are reported as stranded.  Set per
    /// cell by the deployment layer from faults.cell_down.
    std::int64_t outage_at_ms = -1;
    /// Intra-cell parallelism *model* knob: the cell's devices are
    /// partitioned into this many paging-frame strata, each running as an
    /// independent sub-cell (own paging/NPRACH partition, 1/K of the
    /// background RA load, own derived seed).  1 = the classic single-cell
    /// model, byte-identical to earlier versions.  Values that are not a
    /// power of two are rounded DOWN to one (resolve_strata); results
    /// depend on the resolved count but never on the thread count used to
    /// execute the strata.
    std::size_t strata = 1;
    /// Telemetry sink of this campaign (telemetry/sink.hpp); not owned,
    /// null = telemetry disabled.  Purely observational: planners and the
    /// runner emit typed records into it, never read it back, so the
    /// CampaignResult is bit-identical whether or not a sink is attached.
    /// Execution plumbing only — never serialized and never compared.
    telemetry::CampaignSink* telemetry = nullptr;

    [[nodiscard]] bool valid() const noexcept {
        return inactivity_timer.count() > 0 && ra_guard.count() >= 0 &&
               timing.valid() && paging.valid() && rach.valid() && radio.valid() &&
               page_miss_prob >= 0.0 && page_miss_prob < 1.0 && max_page_attempts >= 1 &&
               background_ra_per_second >= 0.0 && sc_ptm_mcch_period.count() > 0 &&
               churn.valid() && (outage_at_ms == -1 || outage_at_ms >= 1) &&
               strata >= 1 && strata <= kMaxStrata;
    }
};

/// DA-SC: page the device at `adjust_page_at` (a PO of its original cycle)
/// and reconfigure it to `adapted_cycle`; the original cycle is restored
/// right after the multicast reception.
struct DrxAdjustment {
    nbiot::SimTime adjust_page_at{0};
    nbiot::DrxCycle adapted_cycle = nbiot::DrxCycle::from_index(0);
};

/// DR-SI: deliver the mltc extension at `notify_po_at`; the device wakes at
/// `wake_at` (its T322 expiry, uniform in [t - TI, t)).
struct MltcNotification {
    nbiot::SimTime notify_po_at{0};
    nbiot::SimTime wake_at{0};
};

/// Per-device campaign script.  Schedule i belongs to device i (the plan's
/// `schedules` are indexed by device id).  `transmission` names the
/// device's delivery, in one of three states:
///  - shared: an index into MulticastPlan::transmissions, whose devices
///    include this one;
///  - kPrivate: the device gets its own copy as soon as it connects (the
///    unicast reference, and only it);
///  - kUnserved: no delivery (paging capacity or timing left it out).
struct DeviceSchedule {
    static constexpr std::size_t kUnserved = static_cast<std::size_t>(-1);
    static constexpr std::size_t kPrivate = static_cast<std::size_t>(-2);

    std::size_t transmission = kUnserved;
    std::optional<nbiot::SimTime> page_at;  // normal page triggering the connection
    std::optional<DrxAdjustment> adjustment;    // DA-SC only
    std::optional<MltcNotification> mltc;       // DR-SI only

    [[nodiscard]] bool served() const noexcept { return transmission != kUnserved; }
    /// The delivery is a shared transmission of the plan.
    [[nodiscard]] bool shared() const noexcept { return transmission < kPrivate; }
};

/// Only ever a shared transmission: one airing of the payload at `start`
/// to every device in `devices`.  A private copy has no entry here.
struct PlannedTransmission {
    nbiot::SimTime start{0};
    std::vector<nbiot::DeviceId> devices;
};

/// One schedule per device plus the shared transmissions, and nothing
/// else: a device's delivery state lives on its schedule alone.
struct MulticastPlan {
    MechanismKind kind = MechanismKind::unicast;
    std::vector<PlannedTransmission> transmissions;
    std::vector<DeviceSchedule> schedules;  // index == device id
    /// The planner's reference time t (DA-SC/DR-SI transmission instant
    /// reference; DR-SC planning-horizon end).
    nbiot::SimTime planning_reference{0};
};

/// Planner interface.  `devices` must have dense ids 0..n-1 in order.
class GroupingMechanism {
public:
    virtual ~GroupingMechanism() = default;

    [[nodiscard]] virtual MechanismKind kind() const noexcept = 0;
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    [[nodiscard]] virtual MulticastPlan plan(std::span<const nbiot::UeSpec> devices,
                                             const CampaignConfig& config,
                                             sim::RandomStream& rng) const = 0;
};

[[nodiscard]] std::unique_ptr<GroupingMechanism> make_mechanism(MechanismKind kind);

/// Longest cycle in the population (planning horizon = twice this).
[[nodiscard]] nbiot::DrxCycle population_max_cycle(
    std::span<const nbiot::UeSpec> devices);

/// Validates plan invariants (one schedule per device, each shared device in
/// exactly its schedule's transmission, private copies for unicast only,
/// single transmission for DA-SC/DR-SI, ...).  Throws on violation; used by
/// tests and debug builds.
void validate_plan(const MulticastPlan& plan, std::span<const nbiot::UeSpec> devices);

}  // namespace nbmg::core
