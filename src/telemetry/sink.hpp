// Per-campaign telemetry sink: typed trace records plus the deterministic
// counter/metrics registry.
//
// One CampaignSink belongs to exactly one campaign execution (one
// (run, cell, mechanism) slot of a Collector, or one stratum's child
// inside run_stratified).  It is single-writer by construction — the
// campaign layers emit into it from the one thread executing that
// campaign — so emission needs no synchronization and never perturbs the
// simulation: no RNG draws, no event scheduling, no reads back.
//
// Determinism contract: a stratified execution gives every stratum its own
// child sink and absorbs the children in stratum order (exactly like the
// counter merge in run_stratified / Summary::merge), so the merged trace,
// counters and time-series are bit-identical at any --threads/--strata
// fan-out width.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "telemetry/events.hpp"

namespace nbmg::telemetry {

/// What a sink records.  Trace and metrics toggle independently; both off
/// means every emit is a no-op (and call sites skip argument evaluation
/// entirely when the sink pointer itself is null — see NBMG_TELEMETRY_EMIT).
struct TelemetryConfig {
    bool trace = false;    // keep the full TraceRecord stream
    bool metrics = false;  // keep dense counters + sim-time-bucketed series
    /// Bucket width of the sim-time histograms (ms).
    std::int64_t bucket_ms = 60'000;

    [[nodiscard]] bool enabled() const noexcept { return trace || metrics; }
    bool operator==(const TelemetryConfig&) const = default;
};

/// The kinds a sink keeps a sim-time series for, in wire order: a
/// checkpoint writes and reads the series in this order
/// (snapshot/codec.cpp).
inline constexpr std::array kBucketedKinds{EventKind::rach_attempt, EventKind::rach_collision,
                                           EventKind::page_delivered};

class CampaignSink {
public:
    /// One sim-time series per bucketed kind, in kBucketedKinds order.
    using SeriesSet = std::array<std::vector<std::uint64_t>, kBucketedKinds.size()>;

    /// A default-constructed sink is disabled: every emit is a no-op.
    CampaignSink() = default;

    explicit CampaignSink(TelemetryConfig config, std::uint16_t stratum = kNoStratum)
        : config_(config), stratum_(stratum) {}

    [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }
    [[nodiscard]] const TelemetryConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::uint16_t stratum() const noexcept { return stratum_; }

    /// Records one event: appends a TraceRecord (trace mode), bumps the
    /// kind's dense counter and — for the bucketed kinds — its sim-time
    /// series (metrics mode).  Purely observational; never fails.
    void emit(EventKind kind, std::int64_t at_ms, std::uint32_t device,
              std::int64_t a, std::int64_t b) {
        if (config_.trace) {
            records_.push_back(TraceRecord{at_ms, a, b, device, stratum_, kind});
        }
        if (config_.metrics) count(kind, at_ms);
    }

    /// Span record carrying an explicit stratum tag (the parent sink of a
    /// stratified run emits its children's spans; its own stratum is
    /// kNoStratum).
    void emit_span(EventKind kind, std::uint16_t stratum, std::int64_t a,
                   std::int64_t b) {
        if (config_.trace) {
            records_.push_back(TraceRecord{0, a, b, kNoDevice, stratum, kind});
        }
        if (config_.metrics) count(kind, 0);
    }

    /// Merges a stratum child: counters and buckets add elementwise, trace
    /// records append in the child's emission order.  Call in stratum order
    /// for a thread-count-independent result.
    void absorb(const CampaignSink& child);

    /// Overwrites the recorded payload with a previously captured state —
    /// the checkpoint/resume path.  Config and stratum are identity, not
    /// payload: the caller re-creates the sink with the same config and
    /// restore() fills in what it had recorded.
    void restore(std::vector<TraceRecord> records,
                 const std::array<std::uint64_t, kEventKindCount>& counters,
                 SeriesSet series);

    [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] std::uint64_t counter(EventKind kind) const noexcept {
        return counters_[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] const std::array<std::uint64_t, kEventKindCount>& counters()
        const noexcept {
        return counters_;
    }

    /// Sim-time-bucketed series (bucket i covers [i * bucket_ms,
    /// (i+1) * bucket_ms)); empty unless metrics mode saw the kind.
    [[nodiscard]] const std::vector<std::uint64_t>& series(EventKind kind) const;

    /// True when this sink owns a bucketed series for `kind`.
    [[nodiscard]] static bool bucketed(EventKind kind) noexcept;

private:
    void count(EventKind kind, std::int64_t at_ms);

    TelemetryConfig config_{};
    std::uint16_t stratum_ = kNoStratum;
    std::vector<TraceRecord> records_;
    std::array<std::uint64_t, kEventKindCount> counters_{};
    SeriesSet series_{};
};

}  // namespace nbmg::telemetry

/// Zero-cost-when-disabled emission: the arguments are not evaluated when
/// the sink pointer is null, so hot loops pay one pointer test.  Payloads
/// must be deterministic values (sim-time, indices, counts) — pointer
/// values and addresses are non-deterministic across runs and are flagged
/// by ci/lint_determinism.py's `telemetry` category.
#define NBMG_TELEMETRY_EMIT(sink_ptr, ...)                                     \
    do {                                                                       \
        if (::nbmg::telemetry::CampaignSink* nbmg_emit_sink_ = (sink_ptr)) {   \
            nbmg_emit_sink_->emit(__VA_ARGS__);                                \
        }                                                                      \
    } while (0)
