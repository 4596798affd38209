// Event-driven NB-IoT device (UE) model.
//
// The UE monitors its paging occasions per its current DRX cycle, reacts to
// pages (normal, DRX-reconfiguration, or the DR-SI mltc extension), performs
// random access on the shared RACH channel, accrues per-power-state uptime,
// and receives multicast/unicast payloads when the eNB starts them.
//
// Accounting note: PO-monitor cost is charged at every scheduled occasion,
// including occasions that overlap a connection.  This matches the paper's
// analytic accounting (light-sleep uptime is a pure function of the DRX
// cycle over the horizon) and keeps the unicast reference exactly
// comparable; the overlap is at most one occasion per connection.
//
// Performance note: PO monitoring is one closed-form ledger.  While a
// device's DRX cycle is fixed, its occasions in any window are a closed
// form (PoPhase::count_in_range over the phase the UE caches for its
// current cycle), so the UE schedules no monitoring events at all:
// finish_monitoring, called once the event loop has drained, settles the
// count and the energy through the horizon in a single multiplication,
// and every cycle change (DA-SC's adjustment at the reconfiguration
// release, the restore at the reception release) first settles the old
// cycle through the change instant — or through the horizon, for a change
// after it.  Tie rule: a PO at the instant of a cycle change counts under
// the old cycle; the new cycle's occasions start just after it.  This is
// the paper's own accounting — light-sleep uptime is a pure function of
// the DRX cycle over the horizon, and DA-SC only changes which cycle
// applies when — and it keeps a device's queue events independent of its
// cycle and of the horizon.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nbiot/energy.hpp"
#include "nbiot/paging.hpp"
#include "nbiot/rach.hpp"
#include "nbiot/rrc.hpp"
#include "sim/simulation.hpp"
#include "sim/small_function.hpp"

namespace nbmg::nbiot {

/// Struct-of-arrays per-device accounting, owned by the cell and indexed
/// by dense DeviceId.  The hot counters every PO settlement and energy
/// charge touches live in contiguous vectors instead of inside each Ue,
/// so fleet-wide accounting sweeps are cache-linear.
struct FleetAccounting {
    std::vector<EnergyAccount> energy;
    std::vector<std::uint64_t> po_count;
};

enum class UeState : std::uint8_t {
    idle,               // sleeping between paging occasions
    accessing,          // decoding a page / RACH / RRC setup in progress
    connected_waiting,  // connected, waiting for the transmission to start
    receiving,          // receiving downlink data
};

[[nodiscard]] constexpr const char* to_string(UeState s) noexcept {
    switch (s) {
        case UeState::idle: return "idle";
        case UeState::accessing: return "accessing";
        case UeState::connected_waiting: return "connected_waiting";
        case UeState::receiving: return "receiving";
    }
    return "?";
}

class Ue {
public:
    struct Hooks {
        /// RRC connection established (after RACH + setup signaling).
        std::function<void(DeviceId, SimTime)> on_connected;
        /// Random access gave up after max attempts.
        std::function<void(DeviceId, SimTime)> on_rach_failure;
        /// Payload reception finished and the connection was released.
        std::function<void(DeviceId, SimTime)> on_released;
    };

    /// `accounting` must outlive the UE and already hold a slot for
    /// `device`; `fleet_hooks` is the cell-shared hook set (may have empty
    /// members).
    Ue(sim::Simulation& simulation, DeviceId device, Imsi imsi, DrxCycle cycle,
       CeLevel ce_level, const PagingSchedule& paging, const TimingModel& timing,
       RachChannel& rach, FleetAccounting& accounting, const Hooks& fleet_hooks);

    Ue(const Ue&) = delete;
    Ue& operator=(const Ue&) = delete;

    /// Opens the PO ledger: every PO of the current DRX cycle after now
    /// and before `until` is charged.  Schedules no event.
    void start_monitoring(SimTime until);

    /// Closes the ledger: settles every PO still unsettled through the
    /// `until` of start_monitoring.  Call once the event loop has drained;
    /// po_count()/energy() are final after it.  A no-op after
    /// halt_monitoring.
    void finish_monitoring();

    /// --- eNB-initiated procedures (call at the device's PO time) ---

    /// Standard page: decode, connect, then wait for instructions.
    void page_normal();

    /// DR-SI extended page: decode the mltc extension, stay idle, set T322
    /// to fire at `wake_at`, then connect with cause multicastReception.
    void page_mltc(SimTime wake_at);

    /// DA-SC adjustment page: decode, connect, receive the DRX
    /// reconfiguration, and release immediately.  The original cycle is
    /// remembered and restored after the multicast reception.  Because the
    /// ladder nests (POs of the old cycle satisfy the congruence of every
    /// shorter one), the adapted occasions repeat from this page's instant,
    /// exactly as the paper's Fig. 5 depicts.
    void page_for_reconfig(DrxCycle new_cycle);

    /// --- eNB connected-mode commands ---

    /// Starts downlink reception on an established connection; data ends at
    /// `data_end`, then the device stays connected for `tail` (inactivity
    /// timer, if modelled), restores its DRX cycle if it was adjusted, and
    /// releases.
    void begin_reception(SimTime data_end, SimTime tail);

    /// Releases an established connection without receiving anything.
    void release_without_reception();

    /// SC-PTM-style idle-mode broadcast reception: the device receives on a
    /// broadcast bearer without ever connecting (no RACH, no RRC).
    void receive_idle_broadcast(SimTime data_end);

    /// --- failure injection: churn (src/faults) ---

    /// Powers the device off from idle: PO accounting is settled through
    /// the current instant and then frozen (no occasions are charged while
    /// off-air), and the device stops listening — pages delivered while off
    /// are misses.
    void power_off();

    /// Rejoins the network after power_off: the device re-attaches (one
    /// clean RACH exchange plus RRC setup/release signaling, charged
    /// analytically so the shared channel's contention streams are
    /// untouched), loses any DA-SC adjustment — it re-enters the ladder at
    /// its original cycle — and resumes closed-form PO monitoring from
    /// `now`.
    void power_on();

    /// --- failure injection: cell outage (src/faults) ---

    /// Ends PO monitoring at the current instant, from any state:
    /// occasions up to now are settled into the fleet counters, nothing
    /// later is charged.  Used when the serving cell goes dark mid-run:
    /// the ledger closes at the outage instant instead of the horizon.
    void halt_monitoring();

    [[nodiscard]] bool powered() const noexcept { return powered_; }

    /// Charges uptime for protocol features outside the UE state machine
    /// (e.g. SC-MCCH monitoring in the SC-PTM baseline).
    void charge(PowerState state, SimTime duration) {
        accounting_->energy[device_.value].add(state, duration);
    }

    /// --- observers ---

    /// True when the device is idle and `t` is one of its paging occasions
    /// under its current cycle.
    [[nodiscard]] bool listening_at(SimTime t) const;

    /// Next paging occasion at or after `t` under the current cycle.
    [[nodiscard]] SimTime next_po_at_or_after(SimTime t) const;

    [[nodiscard]] DeviceId device() const noexcept { return device_; }
    [[nodiscard]] Imsi imsi() const noexcept { return imsi_; }
    [[nodiscard]] UeState state() const noexcept { return state_; }
    [[nodiscard]] DrxCycle current_cycle() const noexcept { return cycle_; }
    [[nodiscard]] DrxCycle original_cycle() const noexcept { return original_cycle_; }
    [[nodiscard]] CeLevel ce_level() const noexcept { return ce_level_; }
    [[nodiscard]] const EnergyAccount& energy() const noexcept {
        return accounting_->energy[device_.value];
    }
    [[nodiscard]] bool payload_received() const noexcept { return payload_received_; }
    [[nodiscard]] std::uint64_t po_count() const noexcept {
        return accounting_->po_count[device_.value];
    }
    [[nodiscard]] std::optional<SimTime> connected_at() const noexcept { return connected_at_; }
    [[nodiscard]] std::optional<SimTime> released_at() const noexcept { return released_at_; }
    [[nodiscard]] int rach_attempts() const noexcept { return rach_attempts_; }
    [[nodiscard]] EstablishmentCause last_cause() const noexcept { return last_cause_; }

private:
    /// Adds every PO of the current cycle in [unsettled_from_, bound) to
    /// the fleet counters in one closed-form step and advances the window.
    void settle_pos(SimTime bound);
    /// Continuation capacity 16: every caller captures at most `this` plus
    /// one DrxCycle, and the small bound keeps the two closures that carry
    /// it inline: the RA completion in RachChannel::Callback's buffer, and
    /// the RRC-setup event (`this`, the attempt count, the continuation:
    /// 48 bytes) in the queue's.
    using ConnectedFn = sim::SmallFunction<void(), 16>;
    void start_connection(SimTime earliest, EstablishmentCause cause,
                          ConnectedFn once_connected);
    /// Switches to `cycle` after settling the old cycle's POs through the
    /// current instant, inclusive (the tie rule above).
    void apply_cycle(DrxCycle cycle);
    void require_state(UeState expected, const char* operation) const;
    [[nodiscard]] const Hooks& hooks() const noexcept { return *fleet_hooks_; }

    sim::Simulation* sim_;
    DeviceId device_;
    Imsi imsi_;
    DrxCycle cycle_;
    DrxCycle original_cycle_;
    CeLevel ce_level_;
    PoPhase phase_;  // the POs of cycle_
    const PagingSchedule* paging_;
    const TimingModel* timing_;
    RachChannel* rach_;
    FleetAccounting* accounting_;
    const Hooks* fleet_hooks_;

    UeState state_ = UeState::idle;
    bool powered_ = true;
    SimTime monitor_until_{0};
    SimTime unsettled_from_{0};  // first instant whose PO is not yet counted
    SimTime wait_started_{0};
    bool payload_received_ = false;
    std::optional<SimTime> connected_at_;
    std::optional<SimTime> released_at_;
    int rach_attempts_ = 0;
    EstablishmentCause last_cause_ = EstablishmentCause::mt_access;
};

}  // namespace nbmg::nbiot
