// Telemetry exporters: JSONL trace dump, metrics table on the stats::Table
// surface, and a Chrome-trace_event-format phase timeline.
//
// All three iterate the collector's slots in run-major -> cell -> campaign
// order and print integers only, so the rendered artifacts are byte-for-
// byte deterministic whenever the underlying run is (which the sink/merge
// discipline guarantees at any --threads/--strata).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "stats/table.hpp"
#include "telemetry/collector.hpp"

namespace nbmg::multicell {
struct CoordinationAggregates;
}  // namespace nbmg::multicell

namespace nbmg::telemetry {

/// Trace records per work item of the render (a range).  A constant, so the
/// cut never depends on the thread count, and small enough that one slot of
/// a single-cell trace still spreads over the pool.
inline constexpr std::size_t kTraceRangeRecords = std::size_t{1} << 15;

/// Trace records per window of a streamed render: write_trace_jsonl holds
/// one window's text at a time.  Four ranges keep four workers busy; at
/// city-rollout's ~115 bytes a line, a window is about 15 MB.
inline constexpr std::size_t kTraceWindowRecords = 4 * kTraceRangeRecords;

/// One JSON object per line, one line per trace record, slots in
/// deterministic order.  Each run's city-level backhaul records (campaign
/// "coordinator") follow the run's campaign slots.
///
/// The render measures every line's exact width first, allocates the
/// output once without filling it, then writes each line in place, so the
/// writers are the first to touch the buffer.  Both passes cut the trace
/// into fixed-size record ranges and fan them over `threads` workers
/// (core::resolve_threads semantics: 0 = one per hardware thread), so the
/// bytes are identical at any width.  This is write_trace_jsonl's render
/// with the whole trace as one window.
[[nodiscard]] std::string trace_jsonl(const Collector& collector, std::size_t threads = 1);

/// Streams the trace_jsonl bytes into `out`, one window of
/// kTraceWindowRecords records at a time through one reused buffer, so the
/// whole trace never sits in memory.  The caller checks `out`'s state.
void write_trace_jsonl(std::ostream& out, const Collector& collector, std::size_t threads = 1);

/// Counter + bucketed-series registry summed across runs and cells, one
/// block per campaign label: columns {campaign, metric, window_start_ms,
/// value}.  Counter rows carry "-" for the window; series rows one row per
/// non-empty bucket.
[[nodiscard]] stats::Table metrics_table(const Collector& collector);

/// Chrome trace_event JSON (chrome://tracing / Perfetto): one process per
/// run, one thread row per cell carrying the campaign spans and their
/// per-stratum sub-spans, plus a dedicated backhaul-feed row when the
/// coordinator recorded feed busy intervals.  Cell spans are offset by the
/// coordinated start times when `coordination` is given.
[[nodiscard]] std::string timeline_json(
    const Collector& collector,
    const multicell::CoordinationAggregates* coordination = nullptr);

}  // namespace nbmg::telemetry
