#include "core/campaign.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/sweep.hpp"
#include "nbiot/frames.hpp"
#include "nbiot/radio.hpp"
#include "telemetry/sink.hpp"

namespace nbmg::core {

bool CampaignResult::all_received() const noexcept {
    return received_count() == devices.size();
}

std::size_t CampaignResult::received_count() const noexcept {
    std::size_t n = 0;
    for (const auto& d : devices) n += d.received ? 1 : 0;
    return n;
}

namespace {

using nbiot::DeviceId;
using nbiot::SimTime;

/// One campaign execution: plays the eNB role against the cell.
class Execution {
public:
    Execution(const CampaignConfig& config, const MulticastPlan& plan,
              std::span<const nbiot::UeSpec> devices, std::int64_t payload_bytes,
              SimTime horizon, std::uint64_t seed)
        : config_(config),
          plan_(plan),
          specs_(devices),
          payload_bytes_(payload_bytes),
          horizon_(horizon),
          radio_(config.radio),
          cell_(seed, config.paging, config.rach, config.timing),
          miss_rng_(cell_.simulation().stream("page-miss")),
          sink_(config.telemetry) {
        if (plan.schedules.size() != devices.size()) {
            throw std::invalid_argument("CampaignRunner: plan/device mismatch");
        }
        // Entities reach the sink through the simulation context; emission
        // is purely observational, so results are bit-identical with or
        // without a sink attached.
        cell_.simulation().set_telemetry(sink_);
        // Struct-of-arrays per-device runtime state: the hot flags the
        // transmission/recovery paths sweep are one cache-linear byte
        // array each instead of strided struct fields.
        page_attempts_left_.assign(devices.size(), 0);
        is_recovery_.assign(devices.size(), 0);
        tx_started_without_me_.assign(devices.size(), 0);
        missed_by_fault_.assign(devices.size(), 0);
        retry_event_.assign(devices.size(), std::nullopt);
        seed_ = seed;
    }

    CampaignResult run();

private:
    enum class PageKind { normal, reconfig, mltc };

    void setup_devices();
    void schedule_plan_events();
    void setup_churn();
    void schedule_next_leave(std::size_t idx);
    void attempt_leave(std::size_t idx);
    void rejoin(std::size_t idx);
    void deliver_page(std::size_t idx, PageKind kind);
    void retry_page(std::size_t idx, PageKind kind);
    void handle_connected(std::size_t idx);
    void handle_rach_failure(std::size_t idx);
    void handle_released(std::size_t idx);
    void start_transmission(std::size_t tx_idx);
    void start_private_delivery(std::size_t idx);
    void count_initial_paging();

    [[nodiscard]] SimTime tail() const {
        return config_.include_inactivity_tail ? config_.inactivity_timer : SimTime{0};
    }
    [[nodiscard]] nbiot::CeLevel bearer_level(const PlannedTransmission& tx) const {
        nbiot::CeLevel level = nbiot::CeLevel::ce0;
        for (const DeviceId dev : tx.devices) {
            level = nbiot::RadioModel::multicast_bearer_level(level,
                                                              specs_[dev.value].ce_level);
        }
        return level;
    }

    const CampaignConfig& config_;
    const MulticastPlan& plan_;
    std::span<const nbiot::UeSpec> specs_;
    std::int64_t payload_bytes_ = 0;
    SimTime horizon_;
    nbiot::RadioModel radio_;
    nbiot::Cell cell_;
    sim::RandomStream miss_rng_;
    telemetry::CampaignSink* sink_ = nullptr;  // not owned; may be null

    std::vector<int> page_attempts_left_;
    std::vector<std::uint8_t> is_recovery_;
    std::vector<std::uint8_t> tx_started_without_me_;
    // Failure injection (src/faults).  Every churn draw comes from a
    // per-device stream rooted at derive_seed(seed, "faults", device), so
    // the campaign streams — and therefore every faults-off observable —
    // are byte-identical whether or not this subsystem is compiled in.
    std::uint64_t seed_ = 0;
    std::vector<sim::RandomStream> fault_rng_;  // per device; churn only
    std::vector<std::uint8_t> missed_by_fault_;
    // Per-device pending retry/recovery page event: cancelled through the
    // slab queue when the device departs, so a powered-off UE carries no
    // stale paging events.
    std::vector<std::optional<sim::EventId>> retry_event_;
    std::size_t churn_leaves_ = 0;
    std::size_t reattaches_ = 0;
    std::size_t stranded_ = 0;
    std::int64_t redelivery_bytes_ = 0;
    std::size_t unserved_ = 0;
    std::size_t aired_multicasts_ = 0;
    std::size_t aired_unicasts_ = 0;
    std::size_t recovery_transmissions_ = 0;
    std::size_t paging_messages_ = 0;
    std::size_t paging_entries_ = 0;
    std::size_t retry_pages_ = 0;
    std::size_t connections_ = 0;
    std::size_t reconfigurations_ = 0;
};

void Execution::setup_devices() {
    // One cell-shared hook set dispatching on DeviceId replaces three
    // std::functions per device.
    nbiot::Ue::Hooks hooks;
    hooks.on_connected = [this](DeviceId d, SimTime) { handle_connected(d.value); };
    hooks.on_rach_failure = [this](DeviceId d, SimTime) { handle_rach_failure(d.value); };
    hooks.on_released = [this](DeviceId d, SimTime) { handle_released(d.value); };
    cell_.set_ue_hooks(std::move(hooks));

    cell_.reserve_ues(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        nbiot::Ue& ue = cell_.add_ue(specs_[i]);
        ue.start_monitoring(horizon_);

        page_attempts_left_[i] = config_.max_page_attempts;
        if (!plan_.schedules[i].served()) ++unserved_;
    }
}

void Execution::schedule_plan_events() {
    // Every pre-known plan event is scheduled up front, device by device
    // and then transmission by transmission: equal-time events fire in
    // this order.
    sim::EventQueue& queue = cell_.simulation().queue();
    for (std::size_t i = 0; i < plan_.schedules.size(); ++i) {
        const DeviceSchedule& schedule = plan_.schedules[i];
        if (schedule.adjustment) {
            queue.schedule_at(schedule.adjustment->adjust_page_at,
                              [this, i] { deliver_page(i, PageKind::reconfig); });
        }
        if (schedule.mltc) {
            queue.schedule_at(schedule.mltc->notify_po_at,
                              [this, i] { deliver_page(i, PageKind::mltc); });
        }
        if (schedule.page_at) {
            queue.schedule_at(*schedule.page_at,
                              [this, i] { deliver_page(i, PageKind::normal); });
        }
    }
    for (std::size_t t = 0; t < plan_.transmissions.size(); ++t) {
        queue.schedule_at(plan_.transmissions[t].start,
                          [this, t] { start_transmission(t); });
    }

    if (config_.background_ra_per_second > 0.0) {
        cell_.rach().inject_background_load(config_.background_ra_per_second, horizon_);
    }
}

void Execution::setup_churn() {
    if (!config_.churn.enabled()) return;
    fault_rng_.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        fault_rng_.emplace_back(
            sim::derive_seed(seed_, faults::kFaultStreamLabel, i));
        schedule_next_leave(i);
    }
}

void Execution::schedule_next_leave(std::size_t idx) {
    const SimTime now = cell_.simulation().now();
    // Exponential inter-departure gap, floored at 1 ms so the leave is
    // strictly after `now` (the draw itself is in continuous time).
    const double gap = fault_rng_[idx].exponential(config_.churn.mean_leave_gap_ms());
    // A departure whose rejoin would land past the horizon is not acted
    // out: the device would never come back inside the observation
    // window, and a rejoin event past the horizon would charge re-attach
    // energy outside the uptime ledger's denominator.  The leave would land
    // at now + floor(gap) + 1, so that is every gap at or past `last`; the
    // double is compared before the cast, which a gap past INT64_MAX (a
    // tiny leave rate) must never reach.
    const std::int64_t last = (horizon_ - now - SimTime{config_.churn.rejoin_ms}).count() - 1;
    if (gap >= static_cast<double>(last)) return;
    cell_.simulation().queue().schedule_at(now + SimTime{static_cast<std::int64_t>(gap) + 1},
                                           [this, idx] { attempt_leave(idx); });
}

void Execution::attempt_leave(std::size_t idx) {
    nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    if (ue.state() != nbiot::UeState::idle) {
        // Mid-procedure: the model only lets a device vanish from idle
        // (a connected UE finishing its exchange first is both realistic
        // and keeps the state machine single-owner).  Redraw.
        schedule_next_leave(idx);
        return;
    }
    const SimTime now = cell_.simulation().now();
    ue.power_off();
    // Departed UEs carry no pending paging events: cancel the retry chain
    // through the slab queue (the plan's own paging events fire as misses,
    // which is exactly a dark device's observable).
    if (retry_event_[idx]) {
        cell_.simulation().queue().cancel(*retry_event_[idx]);
        retry_event_[idx].reset();
    }
    ++churn_leaves_;
    NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::device_leave, now.count(),
                        static_cast<std::uint32_t>(idx), config_.churn.rejoin_ms,
                        ue.payload_received() ? 1 : 0);
    cell_.simulation().queue().schedule_at(
        now + SimTime{config_.churn.rejoin_ms}, [this, idx] { rejoin(idx); });
}

void Execution::rejoin(std::size_t idx) {
    nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    const SimTime now = cell_.simulation().now();
    ue.power_on();
    ++reattaches_;
    const bool needs_payload = !ue.payload_received();
    NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::device_rejoin, now.count(),
                        static_cast<std::uint32_t>(idx), config_.churn.rejoin_ms,
                        needs_payload && tx_started_without_me_[idx] ? 1 : 0);
    if (needs_payload) {
        // Whatever the device missed while off — its plan page, its
        // window, or the transmission itself — a fresh normal page is the
        // universal way back in: pre-transmission it re-enters the planned
        // flow (retry_page's own guards apply), post-transmission it is
        // the recovery path.  Either way the incompleteness is now
        // fault-attributable.
        missed_by_fault_[idx] = 1;
        page_attempts_left_[idx] = config_.max_page_attempts;
        retry_page(idx, PageKind::normal);
    }
    schedule_next_leave(idx);
}

void Execution::deliver_page(std::size_t idx, PageKind kind) {
    nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    const DeviceSchedule& schedule = plan_.schedules[idx];
    const SimTime now = cell_.simulation().now();

    // Churn only: a rejoin-recovery chain can overlap a straggling plan
    // page, so a device that already holds the payload is never paged
    // again (without churn no such overlap exists, and skipping here would
    // shift the miss stream — hence the gate).
    if (config_.churn.enabled() && ue.payload_received()) return;

    // The page only lands if the device is idle, is actually listening at
    // this instant (this is one of its POs under its *current* cycle), and
    // the injected loss did not eat the message.
    const bool listening = ue.listening_at(now);
    const bool lost = config_.page_miss_prob > 0.0 &&
                      miss_rng_.bernoulli(config_.page_miss_prob);
    if (!listening || lost) {
        NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::page_miss, now.count(),
                            static_cast<std::uint32_t>(idx), listening ? 1 : 0,
                            lost ? 1 : 0);
        retry_page(idx, kind);
        return;
    }
    NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::page_delivered, now.count(),
                        static_cast<std::uint32_t>(idx),
                        static_cast<std::int64_t>(kind), 0);

    switch (kind) {
        case PageKind::normal:
            ue.page_normal();
            break;
        case PageKind::reconfig:
            ue.page_for_reconfig(schedule.adjustment->adapted_cycle);
            ++reconfigurations_;
            break;
        case PageKind::mltc: {
            // T322 may already be due if this is a late retry.
            const SimTime wake = std::max(schedule.mltc->wake_at, now + SimTime{1});
            ue.page_mltc(wake);
            break;
        }
    }
}

void Execution::retry_page(std::size_t idx, PageKind kind) {
    // Recovery mode (the device already missed its transmission) keeps
    // paging until the device is reached: a real eNB does not abandon a
    // device it owes a delivery.  Termination is guaranteed because the
    // loss probability is < 1.
    if (!tx_started_without_me_[idx]) {
        if (page_attempts_left_[idx] <= 0) return;
        --page_attempts_left_[idx];
    }

    nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    const DeviceSchedule& schedule = plan_.schedules[idx];
    const SimTime now = cell_.simulation().now();
    const SimTime next = ue.next_po_at_or_after(now + SimTime{1});

    // Before the shared transmission, a normal page retried past its start
    // is pointless (the recovery path takes over at the transmission).
    // Once the transmission has passed us by, retries ARE the recovery path.
    if (kind == PageKind::normal && !tx_started_without_me_[idx] && schedule.shared() &&
        next >= plan_.transmissions[schedule.transmission].start) {
        return;
    }
    // A reconfiguration retried so late that the device could not be back
    // in idle before its window page is worse than useless (the device
    // would sit in a stray connection at transmission time): abandon the
    // adjustment and let the recovery path serve the device.
    if (kind == PageKind::reconfig && schedule.page_at && next >= *schedule.page_at) return;
    // Churn only: an unbounded recovery chain must give up at the horizon
    // — a device that is off-air when monitoring ends stays unreached, it
    // does not drag the event loop past the observation window.
    if (config_.churn.enabled() && next >= horizon_) return;
    ++retry_pages_;
    NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::page_retry, next.count(),
                        static_cast<std::uint32_t>(idx),
                        static_cast<std::int64_t>(kind), 0);
    retry_event_[idx] = cell_.simulation().queue().schedule_at(
        next, [this, idx, kind] {
            retry_event_[idx].reset();
            deliver_page(idx, kind);
        });
}

void Execution::handle_connected(std::size_t idx) {
    ++connections_;
    // A device whose shared transmission went out without it is recovered
    // with a copy of its own, as a unicast device is served.
    if (tx_started_without_me_[idx]) is_recovery_[idx] = 1;
    if (is_recovery_[idx] || plan_.schedules[idx].transmission == DeviceSchedule::kPrivate) {
        start_private_delivery(idx);
    }
    // Otherwise: stay connected and wait; the transmission event collects us.
}

void Execution::handle_released(std::size_t idx) {
    // Safety net: a device that went back to idle after its transmission
    // passed (e.g. a straggling reconfiguration connection) still needs its
    // payload; keep paging it.
    const nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    if (tx_started_without_me_[idx] && !ue.payload_received()) {
        retry_page(idx, PageKind::normal);
    }
}

void Execution::handle_rach_failure(std::size_t idx) {
    // The UE exhausted preambleTransMax; the eNB re-pages it (bounded).
    const DeviceSchedule& schedule = plan_.schedules[idx];
    PageKind kind = PageKind::normal;
    if (schedule.mltc) kind = PageKind::mltc;
    retry_page(idx, kind);
}

void Execution::start_private_delivery(std::size_t idx) {
    nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(idx)});
    const SimTime now = cell_.simulation().now();
    const SimTime data_end = now + radio_.downlink_airtime(payload_bytes_, ue.ce_level());
    ue.begin_reception(data_end, tail());
    if (is_recovery_[idx]) {
        ++recovery_transmissions_;
        NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::tx_recovery, now.count(),
                            static_cast<std::uint32_t>(idx), 0, 0);
        if (missed_by_fault_[idx]) {
            // The device missed the shared bearer because it was off-air:
            // this dedicated copy is fault overhead, not mechanism cost.
            redelivery_bytes_ += payload_bytes_;
            NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::redelivery, now.count(),
                                static_cast<std::uint32_t>(idx), payload_bytes_, 0);
        }
    } else {
        ++aired_unicasts_;
        NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::tx_unicast, now.count(),
                            static_cast<std::uint32_t>(idx), 0, 0);
    }
}

void Execution::start_transmission(std::size_t tx_idx) {
    const PlannedTransmission& tx = plan_.transmissions[tx_idx];
    const SimTime now = cell_.simulation().now();
    const nbiot::CeLevel level = bearer_level(tx);
    const SimTime data_end = now + radio_.downlink_airtime(payload_bytes_, level);
    NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::tx_multicast, now.count(),
                        telemetry::kNoDevice, static_cast<std::int64_t>(tx_idx),
                        static_cast<std::int64_t>(tx.devices.size()));

    if (plan_.kind == MechanismKind::sc_ptm) {
        ++aired_multicasts_;
        for (const DeviceId dev : tx.devices) {
            nbiot::Ue& ue = cell_.ue(dev);
            if (ue.state() == nbiot::UeState::idle) {
                ue.receive_idle_broadcast(data_end);
            }
        }
        return;
    }

    ++aired_multicasts_;
    for (const DeviceId dev : tx.devices) {
        nbiot::Ue& ue = cell_.ue(dev);
        if (ue.state() == nbiot::UeState::connected_waiting) {
            ue.begin_reception(data_end, tail());
        } else {
            // Missed its transmission: recover with a dedicated delivery
            // once it finally connects (re-page it if it is idle).  An
            // off-air device is not paged — its rejoin starts the
            // recovery chain instead.
            tx_started_without_me_[dev.value] = 1;
            if (ue.state() == nbiot::UeState::idle && ue.powered()) {
                page_attempts_left_[dev.value] = config_.max_page_attempts;
                retry_page(dev.value, PageKind::normal);
            }
        }
    }
}

void Execution::count_initial_paging() {
    // Group the planned page instants into paging messages for the byte
    // accounting (several records can ride one occasion).  Each planned
    // page contributes one entry; distinct instants are one message each —
    // a sort over a flat vector instead of a red-black tree.
    std::vector<SimTime> instants;
    instants.reserve(plan_.schedules.size());
    for (const DeviceSchedule& s : plan_.schedules) {
        if (s.page_at) instants.push_back(*s.page_at);
        if (s.adjustment) instants.push_back(s.adjustment->adjust_page_at);
        if (s.mltc) instants.push_back(s.mltc->notify_po_at);
    }
    paging_entries_ = instants.size();
    std::sort(instants.begin(), instants.end());
    paging_messages_ = static_cast<std::size_t>(
        std::unique(instants.begin(), instants.end()) - instants.begin());
}

CampaignResult Execution::run() {
    setup_devices();
    schedule_plan_events();
    setup_churn();
    count_initial_paging();

    const SimTime outage_at{config_.outage_at_ms};
    // Every PO ledger closes at the horizon, or at the outage instant when
    // the cell goes dark first.
    SimTime ledger_end = horizon_;
    if (config_.outage_at_ms >= 1 && outage_at < horizon_) {
        // The cell goes dark at `outage_at`: every event up to and
        // including that instant runs, then the loop stops cold.  Each
        // device's ledger closes at the outage instant; devices without
        // their payload are stranded (the deployment layer re-assigns them
        // to surviving neighbor cells).
        ledger_end = outage_at + SimTime{1};
        cell_.simulation().queue().run_until(outage_at);
        std::size_t complete = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(i)});
            ue.halt_monitoring();
            complete += ue.payload_received() ? 1 : 0;
        }
        stranded_ = specs_.size() - complete;
        NBMG_TELEMETRY_EMIT(sink_, telemetry::EventKind::cell_outage,
                            outage_at.count(), telemetry::kNoDevice,
                            static_cast<std::int64_t>(stranded_),
                            static_cast<std::int64_t>(complete));
    } else {
        cell_.simulation().queue().run_all();
    }

    CampaignResult result;
    result.kind = plan_.kind;
    result.planned_transmissions = aired_multicasts_ + aired_unicasts_;
    result.recovery_transmissions = recovery_transmissions_;
    result.paging_messages = paging_messages_ + retry_pages_;
    result.paging_entries = paging_entries_ + retry_pages_;
    result.unserved = unserved_;
    result.payload_bytes = payload_bytes_;
    result.observation_horizon = horizon_;
    result.rach_attempts = cell_.rach().total_attempts();
    result.rach_collisions = cell_.rach().total_collisions();
    result.rach_failures = cell_.rach().total_failures();
    result.stranded = stranded_;
    result.redelivery_bytes = redelivery_bytes_;
    result.churn_leaves = churn_leaves_;

    // SC-PTM: every device, on air or not, reads the SC-MCCH at each
    // modification period boundary k * period (k >= 1) before the ledger
    // closes, whether or not multicast data exists — the standing cost the
    // on-demand scheme of [3] removes.  Uptime is whole milliseconds, so
    // one multiplication equals the per-read adds bit for bit.
    SimTime mcch_uptime{0};
    if (plan_.kind == MechanismKind::sc_ptm && ledger_end > SimTime{0}) {
        mcch_uptime = config_.timing.po_monitor *
                      ((ledger_end - SimTime{1}) / config_.sc_ptm_mcch_period);
    }

    result.devices.reserve(specs_.size());
    std::size_t restores = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        nbiot::Ue& ue = cell_.ue(DeviceId{static_cast<std::uint32_t>(i)});
        ue.finish_monitoring();
        if (mcch_uptime > SimTime{0}) ue.charge(nbiot::PowerState::po_monitor, mcch_uptime);
        DeviceOutcome outcome;
        outcome.spec = specs_[i];
        outcome.energy = ue.energy();
        outcome.received = ue.payload_received();
        outcome.recovered = is_recovery_[i] != 0;
        outcome.po_count = ue.po_count();
        outcome.rach_attempts = ue.rach_attempts();
        outcome.connected_at = ue.connected_at();
        outcome.released_at = ue.released_at();
        result.devices.push_back(std::move(outcome));
        if (plan_.schedules[i].adjustment && ue.payload_received()) ++restores;
    }

    // Bytes on air: payload copies + paging + per-connection signaling.
    const nbiot::SignalingSizes& sz = config_.sizes;
    const auto total_payload_copies = static_cast<std::int64_t>(
        aired_multicasts_ + aired_unicasts_ + recovery_transmissions_);
    std::int64_t bytes = payload_bytes_ * total_payload_copies;
    bytes += static_cast<std::int64_t>(result.paging_messages) * sz.paging_message_base;
    std::size_t mltc_entries = 0;
    for (const DeviceSchedule& s : plan_.schedules) {
        if (s.mltc) ++mltc_entries;
    }
    bytes += static_cast<std::int64_t>(result.paging_entries - mltc_entries) *
             sz.paging_record;
    bytes += static_cast<std::int64_t>(mltc_entries) * sz.mltc_extension_entry;
    bytes += static_cast<std::int64_t>(connections_) *
             (sz.rach_exchange + sz.rrc_setup_exchange + sz.rrc_release);
    bytes += static_cast<std::int64_t>(reconfigurations_ + restores) *
             sz.rrc_reconfiguration;
    // Churn: every rejoin is one full re-attach exchange on the air
    // interface (RA + RRC setup + immediate release).
    bytes += static_cast<std::int64_t>(reattaches_) *
             (sz.rach_exchange + sz.rrc_setup_exchange + sz.rrc_release);
    result.bytes_on_air = bytes;
    return result;
}

/// One stratum's self-contained sub-problem.  Owns everything the
/// Execution references (config, plan, specs), because executions of
/// different strata run concurrently and outlive no shared mutable state.
struct StratumProblem {
    std::size_t stratum = 0;
    std::uint64_t seed = 0;
    CampaignConfig config;
    MulticastPlan plan;
    std::vector<nbiot::UeSpec> specs;
    std::vector<std::size_t> members;  // local index -> global index
};

/// Stratified campaign execution: partition the devices by paging-frame
/// stratum, run each stratum as an independent sub-cell (locally dense
/// DeviceIds, own derived seed, 1/K of the background RA load), and merge
/// the per-stratum results in stratum order.  Each stratum's run is a
/// serial Execution, so the merged result is a pure function of
/// (plan, devices, config, seed) — never of the thread count.
CampaignResult run_stratified(const CampaignConfig& config, std::size_t strata,
                              std::size_t threads, const MulticastPlan& plan,
                              std::span<const nbiot::UeSpec> devices,
                              std::int64_t payload_bytes, SimTime horizon,
                              std::uint64_t seed) {
    const nbiot::PagingSchedule paging(config.paging);
    const std::size_t n = devices.size();

    // Partition.  Strata are disjoint and cover every device, so one
    // global->local map serves all of them.
    std::vector<std::size_t> stratum_of(n);
    std::vector<std::uint32_t> local_of(n);
    std::vector<std::vector<std::size_t>> members(strata);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = paging_stratum(paging, devices[i], strata);
        stratum_of[i] = s;
        local_of[i] = static_cast<std::uint32_t>(members[s].size());
        members[s].push_back(i);
    }

    // Build each non-empty stratum's owned sub-problem: remapped specs,
    // filtered plan, derived seed, split background load.
    std::vector<StratumProblem> subs;
    subs.reserve(strata);
    for (std::size_t s = 0; s < strata; ++s) {
        if (members[s].empty()) continue;
        StratumProblem sub;
        sub.stratum = s;
        sub.members = std::move(members[s]);
        sub.seed = sim::derive_seed(seed, "stratum", s);
        sub.config = config;
        sub.config.strata = 1;
        // The cell's shared NPRACH carries the background load; a K-way
        // carrier partition hands each stratum an equal share.
        sub.config.background_ra_per_second =
            config.background_ra_per_second / static_cast<double>(strata);

        sub.plan.kind = plan.kind;
        sub.plan.planning_reference = plan.planning_reference;

        // Transmissions restricted to this stratum's members; ones that
        // lose every device are dropped.  A transmission spanning several
        // strata airs once per stratum — each partition is its own
        // downlink resource, so the copies do not share a bearer.
        std::vector<std::size_t> tx_map(plan.transmissions.size(),
                                        DeviceSchedule::kUnserved);
        for (std::size_t t = 0; t < plan.transmissions.size(); ++t) {
            PlannedTransmission tx;
            tx.start = plan.transmissions[t].start;
            for (const DeviceId dev : plan.transmissions[t].devices) {
                if (stratum_of[dev.value] == s) {
                    tx.devices.push_back(DeviceId{local_of[dev.value]});
                }
            }
            if (tx.devices.empty()) continue;
            tx_map[t] = sub.plan.transmissions.size();
            sub.plan.transmissions.push_back(std::move(tx));
        }

        sub.specs.reserve(sub.members.size());
        sub.plan.schedules.reserve(sub.members.size());
        for (std::size_t j = 0; j < sub.members.size(); ++j) {
            const std::size_t g = sub.members[j];
            nbiot::UeSpec spec = devices[g];
            spec.device = DeviceId{static_cast<std::uint32_t>(j)};
            sub.specs.push_back(spec);

            DeviceSchedule schedule = plan.schedules[g];
            if (schedule.shared()) {
                // A shared transmission contains its device, so the
                // stratum kept that transmission and the map is set.
                schedule.transmission = tx_map[schedule.transmission];
            }
            sub.plan.schedules.push_back(std::move(schedule));
        }
        subs.push_back(std::move(sub));
    }

    // Telemetry: concurrent strata must never share a sink, so each
    // records into its own child (stamped with its stratum id); the
    // children are absorbed into the parent in stratum order below —
    // the same merge discipline as the counters — so the merged trace and
    // metrics are bit-identical at any thread count.  The vector is fully
    // sized before the sweep starts; addresses stay stable throughout.
    telemetry::CampaignSink* const parent_sink = config.telemetry;
    std::vector<telemetry::CampaignSink> stratum_sinks;
    if (parent_sink != nullptr) {
        stratum_sinks.reserve(subs.size());
        for (std::size_t i = 0; i < subs.size(); ++i) {
            stratum_sinks.emplace_back(parent_sink->config(),
                                       static_cast<std::uint16_t>(subs[i].stratum));
        }
        for (std::size_t i = 0; i < subs.size(); ++i) {
            subs[i].config.telemetry = &stratum_sinks[i];
        }
    }

    // Fan the strata over the pool.  sweep_indexed stores every result in
    // its index slot, so the merge below always sees stratum order.
    const std::vector<CampaignResult> results =
        sweep_indexed(subs.size(), threads, [&](std::size_t i) {
            Execution execution(subs[i].config, subs[i].plan, subs[i].specs,
                                payload_bytes, horizon, subs[i].seed);
            return execution.run();
        });

    // Merge in stratum order: integer counter sums plus an index-addressed
    // scatter of the per-device outcomes back to global DeviceIds.
    CampaignResult merged;
    merged.kind = plan.kind;
    merged.payload_bytes = payload_bytes;
    merged.observation_horizon = horizon;
    merged.devices.resize(n);
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const CampaignResult& r = results[i];
        merged.planned_transmissions += r.planned_transmissions;
        merged.recovery_transmissions += r.recovery_transmissions;
        merged.paging_messages += r.paging_messages;
        merged.paging_entries += r.paging_entries;
        merged.unserved += r.unserved;
        merged.bytes_on_air += r.bytes_on_air;
        merged.rach_attempts += r.rach_attempts;
        merged.rach_collisions += r.rach_collisions;
        merged.rach_failures += r.rach_failures;
        merged.stranded += r.stranded;
        merged.redelivery_bytes += r.redelivery_bytes;
        merged.churn_leaves += r.churn_leaves;
        for (std::size_t j = 0; j < subs[i].members.size(); ++j) {
            const std::size_t g = subs[i].members[j];
            DeviceOutcome outcome = r.devices[j];
            outcome.spec = devices[g];  // restore the global DeviceId
            merged.devices[g] = std::move(outcome);
        }
        if (parent_sink != nullptr) {
            parent_sink->emit_span(telemetry::EventKind::stratum_span,
                                   static_cast<std::uint16_t>(subs[i].stratum),
                                   static_cast<std::int64_t>(subs[i].members.size()),
                                   horizon.count());
            parent_sink->absorb(stratum_sinks[i]);
        }
    }
    return merged;
}

}  // namespace

std::size_t resolve_strata(std::size_t requested) {
    if (requested == 0) {
        throw std::invalid_argument("resolve_strata: stratum count must be >= 1");
    }
    std::size_t resolved = 1;
    while (resolved * 2 <= requested && resolved * 2 <= kMaxStrata) resolved *= 2;
    return resolved;
}

std::size_t paging_stratum(const nbiot::PagingSchedule& paging,
                           const nbiot::UeSpec& spec, std::size_t strata) {
    const nbiot::SimTime offset = paging.po_offset(spec.imsi, spec.cycle);
    const auto frame = static_cast<std::size_t>(nbiot::frame_index_of(offset));
    return frame % strata;
}

CampaignRunner::CampaignRunner(CampaignConfig config, std::size_t strata_threads)
    : config_(config), strata_threads_(strata_threads) {
    if (!config_.valid()) throw std::invalid_argument("CampaignRunner: invalid config");
}

CampaignResult CampaignRunner::run(const MulticastPlan& plan,
                                   std::span<const nbiot::UeSpec> devices,
                                   std::int64_t payload_bytes,
                                   nbiot::SimTime observation_horizon,
                                   std::uint64_t seed) const {
    const std::size_t strata = resolve_strata(config_.strata);
    CampaignResult result;
    if (strata == 1) {
        Execution execution(config_, plan, devices, payload_bytes, observation_horizon,
                            seed);
        result = execution.run();
    } else {
        result = run_stratified(config_, strata, strata_threads_, plan, devices,
                                payload_bytes, observation_horizon, seed);
    }
    // The campaign-level span feeds the phase timeline exporter; emitted
    // after the stratum spans so the trace reads bottom-up.
    NBMG_TELEMETRY_EMIT(config_.telemetry, telemetry::EventKind::campaign_span, 0,
                        telemetry::kNoDevice,
                        static_cast<std::int64_t>(devices.size()),
                        observation_horizon.count());
    return result;
}

nbiot::SimTime recommended_horizon(std::span<const nbiot::UeSpec> devices,
                                   const CampaignConfig& config,
                                   std::int64_t payload_bytes) {
    const auto max_drx = population_max_cycle(devices);
    nbiot::CeLevel worst = nbiot::CeLevel::ce0;
    for (const auto& d : devices) {
        worst = nbiot::RadioModel::multicast_bearer_level(worst, d.ce_level);
    }
    const nbiot::RadioModel radio(config.radio);
    const nbiot::SimTime airtime = radio.downlink_airtime(payload_bytes, worst);
    const nbiot::SimTime tail =
        config.include_inactivity_tail ? config.inactivity_timer : nbiot::SimTime{0};
    return nbiot::SimTime{2 * max_drx.period_ms()} + config.inactivity_timer +
           config.ra_guard + airtime + tail + nbiot::SimTime{30'000};
}

CampaignResult plan_and_run(const GroupingMechanism& mechanism,
                            std::span<const nbiot::UeSpec> devices,
                            const CampaignConfig& config, std::int64_t payload_bytes,
                            std::uint64_t seed, std::size_t strata_threads) {
    sim::RandomStream planner_rng{sim::derive_seed(seed, "planner")};
    const MulticastPlan plan = mechanism.plan(devices, config, planner_rng);
    const CampaignRunner runner(config, strata_threads);
    return runner.run(plan, devices, payload_bytes,
                      recommended_horizon(devices, config, payload_bytes), seed);
}

}  // namespace nbmg::core
