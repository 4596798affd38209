#include "nbiot/rach.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "telemetry/sink.hpp"

namespace nbmg::nbiot {

RachChannel::RachChannel(sim::Simulation& simulation, RachConfig config,
                         sim::RandomStream rng)
    : sim_(&simulation), config_(config), rng_(std::move(rng)) {
    if (!config_.valid()) throw std::invalid_argument("RachChannel: invalid config");
}

SimTime RachChannel::next_window_at_or_after(SimTime t) const noexcept {
    const std::int64_t period = config_.window_period.count();
    const std::int64_t tm = std::max<std::int64_t>(t.count(), 0);
    const std::int64_t k = (tm + period - 1) / period;
    return SimTime{k * period};
}

void RachChannel::request(SimTime earliest, Callback done) {
    if (!done) throw std::invalid_argument("RachChannel::request: empty callback");
    enroll(earliest, acquire(std::move(done)));
}

void RachChannel::inject_background_load(double arrivals_per_second, SimTime until) {
    if (arrivals_per_second <= 0.0) return;
    const double mean_gap_ms = 1000.0 / arrivals_per_second;
    SimTime t = sim_->now();
    while (true) {
        // The next arrival would land at t + floor(gap) + 1, at or past
        // `until` for every gap at or past the bound.  The double is
        // compared before the cast, which a gap past INT64_MAX (a tiny
        // rate) must never reach.
        const double gap = rng_.exponential(mean_gap_ms);
        if (gap >= static_cast<double>((until - t).count() - 1)) break;
        t += SimTime{static_cast<std::int64_t>(gap) + 1};
        enroll(t, acquire(Callback{}));
    }
}

std::size_t RachChannel::acquire(Callback done) {
    if (free_procedures_.empty()) {
        procedures_.push_back(Procedure{std::move(done), 0, SimTime{0}});
        return procedures_.size() - 1;
    }
    const std::size_t index = free_procedures_.back();
    free_procedures_.pop_back();
    procedures_[index] = Procedure{std::move(done), 0, SimTime{0}};
    return index;
}

void RachChannel::enroll(SimTime earliest, std::size_t proc_index) {
    const SimTime window = next_window_at_or_after(std::max(earliest, sim_->now()));
    auto it = window_entrants_.lower_bound(window);
    if (it == window_entrants_.end() || it->first != window) {
        if (spare_windows_.empty()) {
            it = window_entrants_.emplace_hint(it, window, std::vector<std::size_t>{});
        } else {
            WindowMap::node_type node = std::move(spare_windows_.back());
            spare_windows_.pop_back();
            node.key() = window;
            it = window_entrants_.insert(it, std::move(node));
        }
        sim_->queue().schedule_at(window, [this, window] { resolve_window(window); });
    }
    it->second.push_back(proc_index);
}

void RachChannel::resolve_window(SimTime window_start) {
    auto it = window_entrants_.find(window_start);
    if (it == window_entrants_.end()) return;
    // The node leaves the map before any completion runs: a completion
    // that requests again for this very instant opens a new window.
    WindowMap::node_type node = window_entrants_.extract(it);
    const std::vector<std::size_t>& entrants = node.mapped();

    // Draw preambles and find collisions.  The preamble space is dense
    // ([0, num_preambles), 48 by default), so the histogram is a plain
    // indexed vector — no hashed container anywhere near an RNG draw.
    preamble_count_.assign(static_cast<std::size_t>(config_.num_preambles), 0);
    choice_.resize(entrants.size());
    for (std::size_t i = 0; i < entrants.size(); ++i) {
        choice_[i] = static_cast<int>(rng_.uniform_int(0, config_.num_preambles - 1));
        ++preamble_count_[static_cast<std::size_t>(choice_[i])];
    }

    const SimTime resolution = window_start + config_.attempt_active_time();
    // Collided entrants re-enroll after a backoff.  Their wakeups are
    // scheduled after the loop, in entrant order: a completion callback
    // inside the loop may schedule an event at this very instant, and it
    // must keep its place ahead of the retries.
    retries_.clear();
    telemetry::CampaignSink* const sink = sim_->telemetry();
    const auto window_ms = window_start.count();
    const auto entrant_count = static_cast<std::int64_t>(entrants.size());
    for (std::size_t i = 0; i < entrants.size(); ++i) {
        // A completion below may request again and grow procedures_, so
        // the reference is not used past finish().
        Procedure& proc = procedures_[entrants[i]];
        ++proc.attempts;
        ++total_attempts_;
        proc.active_time += config_.attempt_active_time();
        NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_attempt, window_ms,
                            telemetry::kNoDevice, choice_[i], entrant_count);

        const int sharing = preamble_count_[static_cast<std::size_t>(choice_[i])];
        if (sharing == 1) {
            finish(entrants[i], true, resolution);
            continue;
        }

        ++total_collisions_;
        NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_collision, window_ms,
                            telemetry::kNoDevice, choice_[i], sharing);
        if (proc.attempts >= config_.max_attempts) {
            ++total_failures_;
            NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_failure, window_ms,
                                telemetry::kNoDevice, proc.attempts, entrant_count);
            finish(entrants[i], false, resolution);
            continue;
        }
        const SimTime backoff{rng_.uniform_int(0, config_.backoff_max.count())};
        retries_.emplace_back(resolution + backoff, entrants[i]);
    }
    for (const auto& [at, index] : retries_) {
        sim_->queue().schedule_at(at, [this, index] { enroll(sim_->now(), index); });
    }
    node.mapped().clear();
    spare_windows_.push_back(std::move(node));
}

void RachChannel::finish(std::size_t proc_index, bool success, SimTime at) {
    Procedure& proc = procedures_[proc_index];
    const RachOutcome outcome{success, at, proc.attempts, proc.active_time};
    // The callback leaves its slot, and the slot is free, before it runs:
    // a completion that requests again may take this very slot or grow the
    // table, and neither may move the running closure.
    Callback done = std::move(proc.done);
    free_procedures_.push_back(proc_index);
    if (done) done(outcome);
}

}  // namespace nbmg::nbiot
