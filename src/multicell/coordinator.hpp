// City-wide wall-clock coordinator: puts every cell's campaign of a
// deployment onto one shared clock.
//
// The deployment layer runs each (run, cell) campaign as an independent
// event loop in its own local time — cells share no radio state, so
// shifting a cell's start on the city clock changes nothing inside the
// cell.  The coordinator exploits exactly that: it leaves the deployment
// engine untouched (the DeploymentResult is the same whether or not it is
// coordinated afterwards, for every policy) and schedules the per-cell
// campaign spans run_deployment records
// (DeploymentResult::spans) onto a shared wall-clock with a deterministic
// start policy:
//
//  - simultaneous: every cell starts at t = 0 — the pre-coordinator
//    behaviour, now with the time axis made explicit.
//  - fixed_stagger: cell c starts at c * stagger_ms (topology order), the
//    classic staged rollout that bounds how many eNBs page new firmware at
//    once.
//  - backhaul_budgeted: a central eNB feed with a finite KB/s budget pushes
//    the payload image to each cell over a serial backhaul; a cell's
//    campaign starts when its delivery completes.  Cells are admitted in
//    deterministic priority order: most camped devices first, ties by
//    ascending cell id.
//
// Everything is a pure function of (spans, policy knobs): no RNG, no
// threads, so timelines and the derived fleet time-axis aggregates
// (city-wide completion, peak concurrently-active cells, backhaul
// utilization) are bit-identical at any --threads.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "multicell/deployment.hpp"
#include "stats/summary.hpp"

namespace nbmg::telemetry {
class CampaignSink;
}  // namespace nbmg::telemetry

namespace nbmg::multicell {

enum class StartPolicy : std::uint8_t {
    simultaneous,
    fixed_stagger,
    backhaul_budgeted,
};

[[nodiscard]] constexpr const char* to_string(StartPolicy policy) noexcept {
    switch (policy) {
        case StartPolicy::simultaneous: return "simultaneous";
        case StartPolicy::fixed_stagger: return "fixed-stagger";
        case StartPolicy::backhaul_budgeted: return "backhaul";
    }
    return "?";
}

/// Parses the scenario-file / --coordinator spelling (the to_string names
/// above).  Returns nullopt for anything else.
[[nodiscard]] std::optional<StartPolicy> parse_start_policy(
    std::string_view text) noexcept;

/// The coordination policy and its knobs.  Policy-scoped: stagger_ms is
/// only read under fixed_stagger, backhaul_kbps only under
/// backhaul_budgeted (valid() enforces the pairing).
struct CoordinatorSpec {
    StartPolicy policy = StartPolicy::simultaneous;
    /// fixed_stagger: start offset between consecutive cells (>= 0).
    std::int64_t stagger_ms = 0;
    /// backhaul_budgeted: central feed budget in KB/s (> 0, finite).
    double backhaul_kbps = 0.0;
    /// backhaul_budgeted: per-chunk packet-loss probability on the feed
    /// (in [0, 1)).  0 keeps the lossless whole-image delivery
    /// bit-identical to earlier versions; > 0 switches the feed to 64 KiB
    /// chunks with deterministic seeded retransmissions and pipelined
    /// starts — a cell begins paging when its first chunk lands, while
    /// the image tail is still streaming.
    double loss_prob = 0.0;

    [[nodiscard]] bool valid() const noexcept;
};

/// One cell's slot on the city clock for one run.
struct CellSchedule {
    std::uint32_t cell = 0;
    std::size_t devices = 0;
    /// True when the cell received devices and therefore runs a campaign;
    /// empty cells carry no activity and are excluded from every metric.
    bool active = false;
    /// Campaign start offset on the city clock (ms).
    std::int64_t start_ms = 0;
    /// start_ms + the cell's campaign span (the per-cell horizon).
    std::int64_t end_ms = 0;
};

/// The scheduled city clock of one run.
struct RunTimeline {
    std::vector<CellSchedule> cells;  // topology order
    /// When the last active cell's campaign ends (the city-wide completion
    /// time of the rollout).
    std::int64_t completion_ms = 0;
    /// Maximum number of cells whose campaigns overlap at any instant
    /// (intervals are half-open [start, end)).
    std::size_t peak_concurrent_cells = 0;
    /// Last start minus first start among active cells.
    std::int64_t start_spread_ms = 0;
    /// Total busy time of the central feed (backhaul policy; 0 otherwise).
    /// Includes the retransmission time of lost chunks under loss_prob > 0.
    std::int64_t backhaul_busy_ms = 0;
    /// backhaul_busy_ms / completion_ms (0 when the feed is unused).
    double backhaul_utilization = 0.0;
    /// Bytes re-sent over the feed due to chunk loss (backhaul policy with
    /// loss_prob > 0; 0 otherwise).
    std::int64_t redelivered_bytes = 0;
};

/// Fleet time-axis aggregates across runs (one sample per run each).
struct CoordinationAggregates {
    CoordinatorSpec coordinator;
    std::vector<RunTimeline> timelines;  // run order
    stats::Summary completion_ms;
    stats::Summary peak_concurrent_cells;
    stats::Summary start_spread_ms;
    stats::Summary backhaul_busy_ms;
    stats::Summary backhaul_utilization;
    stats::Summary redelivered_bytes;
};

/// Schedules one run's cell spans onto the city clock.  Pure and
/// deterministic; exposed for direct testing.  `payload_bytes` is the
/// per-cell image size the backhaul policy must deliver.  `sink` (not
/// owned, may be null) receives one backhaul_chunk event per admitted cell
/// under the backhaul policy — purely observational, never read back.
/// `loss_seed` roots the lossy feed's retransmission draws (only consumed
/// when loss_prob > 0); callers derive it per run from the fault stream
/// label so campaign RNG is never perturbed.
[[nodiscard]] RunTimeline schedule_run(const CoordinatorSpec& coordinator,
                                       std::span<const CellRunSpan> spans,
                                       std::int64_t payload_bytes,
                                       telemetry::CampaignSink* sink = nullptr,
                                       std::uint64_t loss_seed = 0);

/// Coordinates an already-executed deployment (reuses its recorded spans;
/// the run count is spans.size() / cell_count).  `telemetry` (not owned,
/// may be null) routes each run's backhaul feed events to the collector's
/// per-run city sink (telemetry::Collector::city_sink).  `base_seed` roots
/// the lossy feed's per-run retransmission streams (ignored when
/// loss_prob == 0).  Throws std::invalid_argument on an invalid coordinator
/// (see CoordinatorSpec::valid).
[[nodiscard]] CoordinationAggregates coordinate_deployment(
    const DeploymentResult& deployment, const CoordinatorSpec& coordinator,
    std::int64_t payload_bytes, telemetry::Collector* telemetry = nullptr,
    std::uint64_t base_seed = 0);

}  // namespace nbmg::multicell
