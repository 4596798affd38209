// Deterministic failure-injection knobs: device churn (seeded
// leave/rejoin point processes), mid-campaign cell outage, and backhaul
// packet loss on the coordinator's serial feed.
//
// The layer sits below core: it owns only the declarative specs, their
// parsing/formatting, and the seed-stream conventions.  The processes
// themselves run inside the engine layers (core/campaign for churn + outage,
// multicell/coordinator for backhaul loss), but every fault draw comes
// from a dedicated derive_seed(seed, "faults", ...) stream — never from
// a campaign stream — so faults-off runs stay bit-identical to a build
// without this subsystem at any --threads/--strata.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nbmg::faults {

/// Device churn: each device leaves (powers off from idle) as a Poisson
/// point process and rejoins a fixed `rejoin_ms` later, paying the NB-IoT
/// re-attach cost (RA + RRC setup/release signaling and energy) on the
/// way back in.
struct ChurnSpec {
    /// Expected departures per device-hour; 0 disables churn.
    double leave_rate = 0.0;
    /// Off-air time before the device rejoins, ms of simulated time.
    std::int64_t rejoin_ms = 0;

    [[nodiscard]] bool enabled() const noexcept { return leave_rate > 0.0; }

    [[nodiscard]] bool valid() const noexcept {
        return std::isfinite(leave_rate) && leave_rate >= 0.0 &&
               (!enabled() || rejoin_ms >= 1);
    }

    /// Mean gap between departures of one device, ms of simulated time.
    [[nodiscard]] double mean_leave_gap_ms() const noexcept {
        return 3'600'000.0 / leave_rate;
    }

    friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Mid-campaign cell outage: cell `cell` goes dark at simulated time
/// `at_ms`.  Devices of that cell that have not completed by then are
/// stranded and deterministically re-assigned to the surviving cells.
struct OutageSpec {
    std::size_t cell = 0;
    std::int64_t at_ms = 0;

    [[nodiscard]] bool valid() const noexcept { return at_ms >= 1; }

    friend bool operator==(const OutageSpec&, const OutageSpec&) = default;
};

/// Parses the scenario spelling "cell@t" (e.g. "3@600000": cell 3 dies at
/// t = 600 s).  Both halves must be strict non-negative decimals and t
/// must be >= 1 ms; returns nullopt on any malformation.
[[nodiscard]] std::optional<OutageSpec> parse_cell_down(std::string_view text);

/// Inverse of parse_cell_down, for to_file_text round-trips.
[[nodiscard]] std::string format_cell_down(const OutageSpec& outage);

/// The label every fault RNG stream derives under; engines call
/// derive_seed(seed, kFaultStreamLabel, index) so fault draws never
/// perturb the campaign streams.
inline constexpr std::string_view kFaultStreamLabel = "faults";

}  // namespace nbmg::faults
