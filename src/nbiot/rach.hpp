// Slotted NPRACH contention model.
//
// Random access opportunities repeat every `window_period` (NPRACH
// periodicity).  Each requester picks one of `num_preambles` subcarriers
// uniformly at random; a preamble chosen by exactly one requester succeeds,
// otherwise everyone on that preamble collides, backs off uniformly in
// [0, backoff_max] and retries.  Collision is detected only after the full
// msg1-msg4 exchange (contention resolution), which is what costs energy.
//
// The model is deliberately at the abstraction level the paper uses: it
// produces per-device RA latency and active (powered-up) time, including
// the effect of many devices doing RA inside the same TI window.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "nbiot/types.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/small_function.hpp"

namespace nbmg::nbiot {

struct RachConfig {
    SimTime window_period{160};    // NPRACH periodicity
    int num_preambles = 48;        // NPRACH subcarriers usable for contention
    int max_attempts = 10;         // preambleTransMax
    SimTime backoff_max{960};      // uniform backoff upper bound after collision
    SimTime preamble_duration{6};  // NPRACH format 1, ~5.6 ms
    SimTime rar_delay{40};         // RAR window
    SimTime msg3_delay{40};        // RRC request transmission + processing
    SimTime msg4_delay{50};        // contention resolution

    /// Active air-interface time of one full attempt (success or collision).
    [[nodiscard]] SimTime attempt_active_time() const noexcept {
        return preamble_duration + rar_delay + msg3_delay + msg4_delay;
    }

    [[nodiscard]] bool valid() const noexcept {
        return window_period.count() > 0 && num_preambles > 0 && max_attempts > 0;
    }

    friend bool operator==(const RachConfig&, const RachConfig&) = default;
};

struct RachOutcome {
    bool success = false;
    SimTime completed_at{0};  // time of contention resolution (or final failure)
    int attempts = 0;
    SimTime active_time{0};  // total powered-up time across attempts
};

/// Shared random-access channel of the cell.
class RachChannel {
public:
    // Small-buffer callable: the UE's completion closure (a `this` plus a
    // nested continuation) stays inline, so a RA request never allocates.
    using Callback = sim::SmallFunction<void(const RachOutcome&), 48>;

    RachChannel(sim::Simulation& simulation, RachConfig config, sim::RandomStream rng);

    /// Starts a random-access procedure no earlier than `earliest`.
    /// `done` fires exactly once, at msg4 time on success or after the
    /// final failed attempt.
    void request(SimTime earliest, Callback done);

    /// Adds background RA load: `arrivals_per_second` Poisson arrivals until
    /// `until`.  Background attempts occupy preambles but report to no one.
    void inject_background_load(double arrivals_per_second, SimTime until);

    /// Diagnostics.
    [[nodiscard]] std::uint64_t total_attempts() const noexcept { return total_attempts_; }
    [[nodiscard]] std::uint64_t total_collisions() const noexcept { return total_collisions_; }
    [[nodiscard]] std::uint64_t total_failures() const noexcept { return total_failures_; }

    [[nodiscard]] const RachConfig& config() const noexcept { return config_; }

private:
    struct Procedure {
        Callback done;  // empty for a background arrival, which reports to no one
        int attempts = 0;
        SimTime active_time{0};
    };

    /// First window start at or after `t`.
    [[nodiscard]] SimTime next_window_at_or_after(SimTime t) const noexcept;

    /// Stores `done` in a free procedure slot (the last one freed, else a
    /// new one) and returns the slot's index.
    [[nodiscard]] std::size_t acquire(Callback done);
    void enroll(SimTime earliest, std::size_t proc_index);
    void resolve_window(SimTime window_start);
    /// Frees the slot, then reports `success` at `at` to its callback.
    void finish(std::size_t proc_index, bool success, SimTime at);

    sim::Simulation* sim_;  // not owned
    RachConfig config_;
    sim::RandomStream rng_;
    std::vector<Procedure> procedures_;
    std::vector<std::size_t> free_procedures_;  // LIFO
    // A window has a resolve_window event pending exactly while it has an
    // entry here.  A resolved window's node, its entrant list cleared but
    // its capacity kept, goes to `spare_windows_` and carries the next new
    // window: a campaign allocates nodes for its peak of open windows, not
    // one node and one list per window.
    using WindowMap = std::map<SimTime, std::vector<std::size_t>>;
    WindowMap window_entrants_;
    std::vector<WindowMap::node_type> spare_windows_;  // LIFO
    // resolve_window's scratch, kept across windows: the preamble
    // histogram, each entrant's preamble, and the collided entrants' retry
    // instants.
    std::vector<int> preamble_count_;
    std::vector<int> choice_;
    std::vector<std::pair<SimTime, std::size_t>> retries_;
    std::uint64_t total_attempts_ = 0;
    std::uint64_t total_collisions_ = 0;
    std::uint64_t total_failures_ = 0;
};

}  // namespace nbmg::nbiot
