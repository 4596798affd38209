#include "multicell/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "faults/spec.hpp"
#include "sim/random.hpp"
#include "telemetry/collector.hpp"

namespace nbmg::multicell {
namespace {

/// Milliseconds the serial feed needs to push one payload image to one
/// cell, rounded up so a positive payload never takes zero time.  The
/// whole feed schedule (cells x delivery) must stay inside the int64
/// clock; absurd budgets fail loudly instead of overflowing.
std::int64_t delivery_ms(std::int64_t payload_bytes, double backhaul_kbps,
                         std::size_t active_cells) {
    const double ms = std::ceil(static_cast<double>(payload_bytes) / 1024.0 /
                                backhaul_kbps * 1000.0);
    const double limit =
        static_cast<double>(std::numeric_limits<std::int64_t>::max()) /
        static_cast<double>(active_cells == 0 ? 1 : active_cells);
    if (!(ms < limit)) {
        throw std::invalid_argument(
            "schedule_run: backhaul delivery schedule overflows the city "
            "clock (budget too small for this payload)");
    }
    return static_cast<std::int64_t>(ms);
}

/// Peak overlap of half-open [start, end) intervals: classic two-pointer
/// sweep over the sorted endpoints; an end releases before a start at the
/// same instant, so back-to-back slots do not count as concurrent.
std::size_t peak_overlap(std::vector<std::int64_t> starts,
                         std::vector<std::int64_t> ends) {
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    std::size_t active = 0;
    std::size_t peak = 0;
    std::size_t s = 0;
    std::size_t e = 0;
    while (s < starts.size()) {
        if (active > 0 && ends[e] <= starts[s]) {
            --active;
            ++e;
        } else {
            ++active;
            ++s;
            peak = std::max(peak, active);
        }
    }
    return peak;
}

/// Feed chunk size under loss_prob > 0.  64 KiB keeps the retransmission
/// granularity fine enough that a lost tail chunk never re-sends the whole
/// image, while the chunk count stays small (a 100 KiB image is 2 chunks).
constexpr std::int64_t kFeedChunkBytes = 64 * 1024;

/// Overflow-checked accumulation onto the city feed clock.
std::int64_t feed_add(std::int64_t clock, std::int64_t ms) {
    if (ms > std::numeric_limits<std::int64_t>::max() - clock) {
        throw std::invalid_argument(
            "schedule_run: backhaul delivery schedule overflows the city "
            "clock (budget too small for this payload)");
    }
    return clock + ms;
}

}  // namespace

std::optional<StartPolicy> parse_start_policy(std::string_view text) noexcept {
    if (text == "simultaneous") return StartPolicy::simultaneous;
    if (text == "fixed-stagger") return StartPolicy::fixed_stagger;
    if (text == "backhaul") return StartPolicy::backhaul_budgeted;
    return std::nullopt;
}

bool CoordinatorSpec::valid() const noexcept {
    switch (policy) {
        case StartPolicy::simultaneous:
            return stagger_ms == 0 && backhaul_kbps == 0.0 && loss_prob == 0.0;
        case StartPolicy::fixed_stagger:
            return stagger_ms >= 0 && backhaul_kbps == 0.0 && loss_prob == 0.0;
        case StartPolicy::backhaul_budgeted:
            return stagger_ms == 0 && std::isfinite(backhaul_kbps) &&
                   backhaul_kbps > 0.0 && std::isfinite(loss_prob) &&
                   loss_prob >= 0.0 && loss_prob < 1.0;
    }
    return false;
}

RunTimeline schedule_run(const CoordinatorSpec& coordinator,
                         std::span<const CellRunSpan> spans,
                         std::int64_t payload_bytes,
                         telemetry::CampaignSink* sink,
                         std::uint64_t loss_seed) {
    if (!coordinator.valid()) {
        throw std::invalid_argument(
            "schedule_run: invalid coordinator spec (policy-scoped knobs: "
            "stagger_ms needs fixed-stagger, backhaul_kbps > 0 needs backhaul)");
    }

    RunTimeline timeline;
    timeline.cells.resize(spans.size());
    for (std::size_t c = 0; c < spans.size(); ++c) {
        CellSchedule& slot = timeline.cells[c];
        slot.cell = static_cast<std::uint32_t>(c);
        slot.devices = spans[c].devices;
        slot.active = spans[c].devices > 0;
    }

    switch (coordinator.policy) {
        case StartPolicy::simultaneous:
            break;  // every start stays 0
        case StartPolicy::fixed_stagger:
            // Topology order: cell c's campaign begins c * stagger_ms after
            // the rollout starts, whether or not earlier cells are active —
            // the operator staggers sites, not load.
            if (!spans.empty() && coordinator.stagger_ms > 0 &&
                static_cast<std::uint64_t>(spans.size() - 1) >
                    static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max() /
                        coordinator.stagger_ms)) {
                throw std::invalid_argument(
                    "schedule_run: stagger schedule overflows the city clock "
                    "(stagger_ms x cells too large)");
            }
            for (std::size_t c = 0; c < spans.size(); ++c) {
                timeline.cells[c].start_ms =
                    static_cast<std::int64_t>(c) * coordinator.stagger_ms;
            }
            break;
        case StartPolicy::backhaul_budgeted: {
            // Deterministic admission priority: most camped devices first
            // (heaviest cells get their image earliest), ties by ascending
            // cell id.  Only active cells consume feed time.
            std::vector<std::size_t> order;
            order.reserve(spans.size());
            for (std::size_t c = 0; c < spans.size(); ++c) {
                if (timeline.cells[c].active) order.push_back(c);
            }
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (spans[a].devices != spans[b].devices) {
                              return spans[a].devices > spans[b].devices;
                          }
                          return a < b;
                      });
            if (coordinator.loss_prob == 0.0) {
                // Lossless whole-image feed: the original serial schedule,
                // bit-identical to pre-fault-injection versions.
                const std::int64_t per_cell = delivery_ms(
                    payload_bytes, coordinator.backhaul_kbps, order.size());
                std::int64_t feed_clock = 0;
                for (const std::size_t c : order) {
                    // The image occupies [feed_clock, feed_clock + per_cell)
                    // on the feed; the cell starts when delivery completes.
                    NBMG_TELEMETRY_EMIT(
                        sink, telemetry::EventKind::backhaul_chunk, feed_clock,
                        static_cast<std::uint32_t>(c), per_cell,
                        static_cast<std::int64_t>(spans[c].devices));
                    feed_clock += per_cell;
                    timeline.cells[c].start_ms = feed_clock;
                }
                timeline.backhaul_busy_ms = feed_clock;
                break;
            }
            // Lossy pipelined feed: the image streams in 64 KiB chunks, each
            // chunk retransmitted until it lands (per-chunk Bernoulli loss
            // from the dedicated fault stream), and the cell's campaign
            // starts as soon as the FIRST chunk lands — paging rolls while
            // the image tail is still on the wire.  The feed itself stays
            // serial: all of cell A's chunks (including retransmissions)
            // precede cell B's.
            sim::RandomStream loss_rng{loss_seed};
            const std::int64_t chunks =
                payload_bytes > 0
                    ? (payload_bytes + kFeedChunkBytes - 1) / kFeedChunkBytes
                    : 0;
            std::int64_t feed_clock = 0;
            for (const std::size_t c : order) {
                const std::int64_t cell_feed_start = feed_clock;
                std::int64_t redelivered = 0;
                for (std::int64_t k = 0; k < chunks; ++k) {
                    const std::int64_t bytes = std::min<std::int64_t>(
                        kFeedChunkBytes, payload_bytes - k * kFeedChunkBytes);
                    const std::int64_t base =
                        delivery_ms(bytes, coordinator.backhaul_kbps, 1);
                    // Draw per-attempt losses until the chunk lands; every
                    // failed attempt re-occupies the feed and re-sends the
                    // chunk's bytes.
                    while (loss_rng.bernoulli(coordinator.loss_prob)) {
                        feed_clock = feed_add(feed_clock, base);
                        redelivered += bytes;
                    }
                    feed_clock = feed_add(feed_clock, base);
                    if (k == 0) timeline.cells[c].start_ms = feed_clock;
                }
                if (chunks == 0) timeline.cells[c].start_ms = feed_clock;
                NBMG_TELEMETRY_EMIT(
                    sink, telemetry::EventKind::backhaul_chunk, cell_feed_start,
                    static_cast<std::uint32_t>(c), feed_clock - cell_feed_start,
                    static_cast<std::int64_t>(spans[c].devices));
                if (redelivered > 0) {
                    NBMG_TELEMETRY_EMIT(
                        sink, telemetry::EventKind::redelivery, cell_feed_start,
                        static_cast<std::uint32_t>(c), redelivered,
                        std::int64_t{2});
                }
                timeline.redelivered_bytes += redelivered;
            }
            timeline.backhaul_busy_ms = feed_clock;
            break;
        }
    }

    std::vector<std::int64_t> starts;
    std::vector<std::int64_t> ends;
    std::int64_t first_start = 0;
    std::int64_t last_start = 0;
    bool any_active = false;
    for (CellSchedule& slot : timeline.cells) {
        if (!slot.active) {
            slot.start_ms = 0;  // inactive cells hold no slot on the clock
            slot.end_ms = 0;
            continue;
        }
        if (spans[slot.cell].horizon_ms >
            std::numeric_limits<std::int64_t>::max() - slot.start_ms) {
            throw std::invalid_argument(
                "schedule_run: a cell's campaign end overflows the city clock "
                "(start offset + horizon too large)");
        }
        slot.end_ms = slot.start_ms + spans[slot.cell].horizon_ms;
        timeline.completion_ms = std::max(timeline.completion_ms, slot.end_ms);
        first_start = any_active ? std::min(first_start, slot.start_ms)
                                 : slot.start_ms;
        last_start = any_active ? std::max(last_start, slot.start_ms)
                                : slot.start_ms;
        any_active = true;
        starts.push_back(slot.start_ms);
        ends.push_back(slot.end_ms);
    }
    timeline.start_spread_ms = any_active ? last_start - first_start : 0;
    timeline.peak_concurrent_cells = peak_overlap(std::move(starts), std::move(ends));
    timeline.backhaul_utilization =
        timeline.completion_ms > 0
            ? static_cast<double>(timeline.backhaul_busy_ms) /
                  static_cast<double>(timeline.completion_ms)
            : 0.0;
    return timeline;
}

CoordinationAggregates coordinate_deployment(const DeploymentResult& deployment,
                                             const CoordinatorSpec& coordinator,
                                             std::int64_t payload_bytes,
                                             telemetry::Collector* telemetry,
                                             std::uint64_t base_seed) {
    const std::size_t cells = deployment.cell_count();
    if (cells == 0 || deployment.spans.empty() ||
        deployment.spans.size() % cells != 0) {
        throw std::invalid_argument(
            "coordinate_deployment: deployment result carries no per-cell "
            "spans (cells x runs grid mismatch)");
    }
    const std::size_t runs = deployment.spans.size() / cells;

    CoordinationAggregates aggregates;
    aggregates.coordinator = coordinator;
    aggregates.timelines.reserve(runs);
    for (std::size_t run = 0; run < runs; ++run) {
        RunTimeline timeline = schedule_run(
            coordinator,
            std::span<const CellRunSpan>(deployment.spans.data() + run * cells,
                                         cells),
            payload_bytes,
            telemetry != nullptr ? telemetry->city_sink(run) : nullptr,
            sim::derive_seed(base_seed, faults::kFaultStreamLabel, run));
        aggregates.completion_ms.add(static_cast<double>(timeline.completion_ms));
        aggregates.peak_concurrent_cells.add(
            static_cast<double>(timeline.peak_concurrent_cells));
        aggregates.start_spread_ms.add(
            static_cast<double>(timeline.start_spread_ms));
        aggregates.backhaul_busy_ms.add(
            static_cast<double>(timeline.backhaul_busy_ms));
        aggregates.backhaul_utilization.add(timeline.backhaul_utilization);
        aggregates.redelivered_bytes.add(
            static_cast<double>(timeline.redelivered_bytes));
        aggregates.timelines.push_back(std::move(timeline));
    }
    return aggregates;
}

}  // namespace nbmg::multicell
