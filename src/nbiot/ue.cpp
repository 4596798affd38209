#include "nbiot/ue.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "telemetry/sink.hpp"

namespace nbmg::nbiot {

Ue::Ue(sim::Simulation& simulation, DeviceId device, Imsi imsi, DrxCycle cycle,
       CeLevel ce_level, const PagingSchedule& paging, const TimingModel& timing,
       RachChannel& rach, FleetAccounting& accounting, const Hooks& fleet_hooks)
    : sim_(&simulation),
      device_(device),
      imsi_(imsi),
      cycle_(cycle),
      original_cycle_(cycle),
      ce_level_(ce_level),
      phase_(paging.phase(imsi, cycle)),
      paging_(&paging),
      timing_(&timing),
      rach_(&rach),
      accounting_(&accounting),
      fleet_hooks_(&fleet_hooks) {
    if (accounting.energy.size() <= device.value ||
        accounting.po_count.size() <= device.value) {
        throw std::invalid_argument("Ue: accounting has no slot for this device");
    }
}

void Ue::require_state(UeState expected, const char* operation) const {
    if (state_ != expected) {
        throw std::logic_error(std::string{"Ue::"} + operation + ": device " +
                               std::to_string(device_.value) + " is " +
                               to_string(state_) + ", expected " + to_string(expected));
    }
}

void Ue::start_monitoring(SimTime until) {
    monitor_until_ = until;
    unsettled_from_ = sim_->now() + SimTime{1};
}

void Ue::finish_monitoring() { settle_pos(monitor_until_); }

SimTime Ue::next_po_at_or_after(SimTime t) const { return phase_.first_at_or_after(t); }

bool Ue::listening_at(SimTime t) const {
    if (!powered_ || state_ != UeState::idle) return false;
    return phase_.is_po(t);
}

void Ue::halt_monitoring() {
    settle_pos(sim_->now() + SimTime{1});
    // Freeze the ledger: finish_monitoring (and any later settle) must not
    // charge occasions past this instant.  power_on re-opens the window at
    // the rejoin instant.
    unsettled_from_ = monitor_until_;
}

void Ue::power_off() {
    require_state(UeState::idle, "power_off");
    if (!powered_) {
        throw std::logic_error("Ue::power_off: device " +
                               std::to_string(device_.value) + " is already off");
    }
    halt_monitoring();
    powered_ = false;
}

void Ue::power_on() {
    if (powered_) {
        throw std::logic_error("Ue::power_on: device " +
                               std::to_string(device_.value) + " is already on");
    }
    powered_ = true;
    state_ = UeState::idle;
    // Any DA-SC adjustment is lost with the stored context: the device
    // re-enters the ladder at its original cycle.
    cycle_ = original_cycle_;
    phase_ = paging_->phase(imsi_, cycle_);
    // Analytic re-attach cost: one clean (collision-free) random-access
    // exchange plus the RRC setup and immediate release.  Charged directly
    // rather than through RachChannel so the shared channel's contention
    // RNG sequence is identical whether or not churn is enabled.
    accounting_->energy[device_.value].add(PowerState::rach,
                                           rach_->config().attempt_active_time());
    accounting_->energy[device_.value].add(
        PowerState::connected_signaling, timing_->rrc_setup + timing_->rrc_release);
    // Resume closed-form PO monitoring from the rejoin instant.
    unsettled_from_ = sim_->now() + SimTime{1};
}

void Ue::settle_pos(SimTime bound) {
    bound = std::min(bound, monitor_until_);
    if (bound <= unsettled_from_) return;
    const std::int64_t n = phase_.count_in_range(unsettled_from_, bound);
    if (n > 0) {
        accounting_->po_count[device_.value] += static_cast<std::uint64_t>(n);
        // Integer-millisecond uptime, so the single multiplication equals
        // n repeated adds bit for bit.
        accounting_->energy[device_.value].add(PowerState::po_monitor,
                                               timing_->po_monitor * n);
    }
    unsettled_from_ = bound;
}

void Ue::apply_cycle(DrxCycle cycle) {
    if (cycle == cycle_) return;
    NBMG_TELEMETRY_EMIT(sim_->telemetry(), telemetry::EventKind::drx_transition,
                        sim_->now().count(), device_.value, cycle_.period_ms(),
                        cycle.period_ms());
    settle_pos(sim_->now() + SimTime{1});
    cycle_ = cycle;
    phase_ = paging_->phase(imsi_, cycle);
}

void Ue::start_connection(SimTime earliest, EstablishmentCause cause,
                          ConnectedFn once_connected) {
    state_ = UeState::accessing;
    last_cause_ = cause;
    rach_->request(earliest, [this, done = std::move(once_connected)](
                                 const RachOutcome& outcome) mutable {
        accounting_->energy[device_.value].add(PowerState::rach, outcome.active_time);
        rach_attempts_ += outcome.attempts;
        if (!outcome.success) {
            state_ = UeState::idle;
            NBMG_TELEMETRY_EMIT(sim_->telemetry(), telemetry::EventKind::rrc_failure,
                                sim_->now().count(), device_.value, outcome.attempts,
                                0);
            if (hooks().on_rach_failure) hooks().on_rach_failure(device_, sim_->now());
            return;
        }
        accounting_->energy[device_.value].add(PowerState::connected_signaling,
                                               timing_->rrc_setup);
        sim_->queue().schedule_after(
            timing_->rrc_setup,
            [this, done = std::move(done), attempts = outcome.attempts]() mutable {
                connected_at_ = sim_->now();
                NBMG_TELEMETRY_EMIT(sim_->telemetry(),
                                    telemetry::EventKind::rrc_connected,
                                    sim_->now().count(), device_.value, attempts,
                                    static_cast<std::int64_t>(last_cause_));
                done();
            });
    });
}

void Ue::page_normal() {
    require_state(UeState::idle, "page_normal");
    charge(PowerState::paging_rx, timing_->paging_decode);
    const SimTime ra_start = sim_->now() + timing_->paging_decode + timing_->page_to_rach;
    start_connection(ra_start, EstablishmentCause::mt_access, [this] {
        state_ = UeState::connected_waiting;
        wait_started_ = sim_->now();
        if (hooks().on_connected) hooks().on_connected(device_, sim_->now());
    });
}

void Ue::page_mltc(SimTime wake_at) {
    require_state(UeState::idle, "page_mltc");
    if (wake_at < sim_->now()) {
        throw std::logic_error("Ue::page_mltc: wake time in the past");
    }
    charge(PowerState::paging_rx,
           timing_->paging_decode + timing_->mltc_extension_extra);
    // The device does not connect now: it sets T322 and goes back to sleep.
    sim_->queue().schedule_at(wake_at, [this] {
        // Skip when already serving another procedure — or off-air (churn):
        // a departed device loses its T322 context with the rest of its
        // stored configuration.
        if (!powered_ || state_ != UeState::idle) return;
        start_connection(sim_->now() + timing_->page_to_rach,
                         EstablishmentCause::multicast_reception, [this] {
                             state_ = UeState::connected_waiting;
                             wait_started_ = sim_->now();
                             if (hooks().on_connected) hooks().on_connected(device_, sim_->now());
                         });
    });
}

void Ue::page_for_reconfig(DrxCycle new_cycle) {
    require_state(UeState::idle, "page_for_reconfig");
    charge(PowerState::paging_rx, timing_->paging_decode);
    const SimTime ra_start = sim_->now() + timing_->paging_decode + timing_->page_to_rach;
    start_connection(ra_start, EstablishmentCause::mt_access, [this, new_cycle] {
        // RRC Connection Reconfiguration (new DRX) followed by an immediate
        // RRC Connection Release: the eNB does not let the inactivity timer
        // run (Sec. III-B).
        charge(PowerState::connected_signaling,
               timing_->rrc_reconfiguration + timing_->rrc_release);
        sim_->queue().schedule_after(
            timing_->rrc_reconfiguration + timing_->rrc_release, [this, new_cycle] {
                state_ = UeState::idle;
                released_at_ = sim_->now();
                NBMG_TELEMETRY_EMIT(sim_->telemetry(),
                                    telemetry::EventKind::rrc_released,
                                    sim_->now().count(), device_.value, 0, 0);
                apply_cycle(new_cycle);
                if (hooks().on_released) hooks().on_released(device_, sim_->now());
            });
    });
}

void Ue::begin_reception(SimTime data_end, SimTime tail) {
    require_state(UeState::connected_waiting, "begin_reception");
    if (data_end < sim_->now()) {
        throw std::logic_error("Ue::begin_reception: end time in the past");
    }
    charge(PowerState::connected_wait, sim_->now() - wait_started_);
    state_ = UeState::receiving;
    const SimTime rx_duration = data_end - sim_->now();
    sim_->queue().schedule_at(data_end, [this, rx_duration, tail] {
        charge(PowerState::connected_rx, rx_duration);
        payload_received_ = true;
        if (tail > SimTime{0}) charge(PowerState::connected_wait, tail);
        SimTime signaling = timing_->rrc_release;
        const bool restore = cycle_ != original_cycle_;
        if (restore) signaling += timing_->rrc_reconfiguration;
        charge(PowerState::connected_signaling, signaling);
        sim_->queue().schedule_after(tail + signaling, [this, restore] {
            state_ = UeState::idle;
            released_at_ = sim_->now();
            NBMG_TELEMETRY_EMIT(sim_->telemetry(), telemetry::EventKind::rrc_released,
                                sim_->now().count(), device_.value, 0, 0);
            if (restore) apply_cycle(original_cycle_);
            if (hooks().on_released) hooks().on_released(device_, sim_->now());
        });
    });
}

void Ue::receive_idle_broadcast(SimTime data_end) {
    require_state(UeState::idle, "receive_idle_broadcast");
    if (data_end < sim_->now()) {
        throw std::logic_error("Ue::receive_idle_broadcast: end time in the past");
    }
    state_ = UeState::receiving;
    const SimTime rx_duration = data_end - sim_->now();
    sim_->queue().schedule_at(data_end, [this, rx_duration] {
        charge(PowerState::connected_rx, rx_duration);
        payload_received_ = true;
        state_ = UeState::idle;
        released_at_ = sim_->now();
        NBMG_TELEMETRY_EMIT(sim_->telemetry(), telemetry::EventKind::rrc_released,
                            sim_->now().count(), device_.value, 0, 0);
        if (hooks().on_released) hooks().on_released(device_, sim_->now());
    });
}

void Ue::release_without_reception() {
    require_state(UeState::connected_waiting, "release_without_reception");
    charge(PowerState::connected_wait, sim_->now() - wait_started_);
    charge(PowerState::connected_signaling, timing_->rrc_release);
    sim_->queue().schedule_after(timing_->rrc_release, [this] {
        state_ = UeState::idle;
        released_at_ = sim_->now();
        NBMG_TELEMETRY_EMIT(sim_->telemetry(), telemetry::EventKind::rrc_released,
                            sim_->now().count(), device_.value, 0, 0);
        if (hooks().on_released) hooks().on_released(device_, sim_->now());
    });
}

}  // namespace nbmg::nbiot
