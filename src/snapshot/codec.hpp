// Field-by-field codecs for the aggregate types checkpoint slot blobs
// carry: Welford summaries and telemetry sink payloads.  The deployment
// engine composes these into its per-(run, cell) blobs
// (multicell/deployment.cpp); keeping the codecs here keeps the
// fixed-width little-endian discipline — and the lint that enforces it —
// in one place.
#pragma once

#include "snapshot/format.hpp"
#include "stats/summary.hpp"
#include "telemetry/sink.hpp"

namespace nbmg::snapshot {

/// Welford state, lossless: count u64, then mean/m2/min/max as IEEE-754
/// bit patterns.  The single-cell golden digests hash these bytes.
void put_summary(Writer& w, const stats::Summary& summary);

/// Everything a sink recorded: trace records, dense counters, the
/// bucketed series in telemetry::kBucketedKinds order.  Config and stratum are identity (recreated by the
/// resuming run), not payload.
void put_sink(Writer& w, const telemetry::CampaignSink& sink);

/// Decodes a put_sink payload into `sink` via CampaignSink::restore.
/// Throws SnapshotError on out-of-range event kinds.
void restore_sink(Reader& r, telemetry::CampaignSink& sink);

}  // namespace nbmg::snapshot
