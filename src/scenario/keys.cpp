#include "scenario/keys.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "faults/spec.hpp"
#include "scenario/parse_util.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace nbmg::scenario {
namespace {

using Spec = ScenarioSpec;
using In = KeyInput;
using Text = std::optional<std::string>;
using multicell::StartPolicy;

/// Reads a decimal integer into `out`, refusing one below `lo` or past
/// `hi`: by default the field type's maximum, so nothing narrows.  Every
/// other bound of the value is its row's check.
template <class T>
std::string read_integer(const In& in, T& out, std::uint64_t lo = 0,
                         std::uint64_t hi = static_cast<std::uint64_t>(
                             std::numeric_limits<T>::max())) {
    std::uint64_t value = 0;
    std::string reason = parse_u64_in_range(in.value.c_str(), value, lo, hi);
    if (reason.empty()) out = static_cast<T>(value);
    return reason;
}

/// read_integer for a field whose check caps it far inside its type (the
/// durations at kMaxDurationMs, the payload at kMaxPayloadBytes): a value
/// past the type saturates there instead, so the check refuses it in the
/// cap's words.
template <class T>
std::string read_capped(const In& in, T& out) {
    constexpr auto top = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    std::uint64_t value = 0;
    std::string reason = read_integer(in, value);
    if (reason.empty()) out = static_cast<T>(std::min(value, top));
    return reason;
}

/// read_capped for a millisecond duration.
std::string read_ms(const In& in, nbiot::SimTime& out) {
    std::int64_t ms = out.count();
    std::string reason = read_capped(in, ms);
    out = nbiot::SimTime{ms};
    return reason;
}

/// A duration's bound: at least `lo`, at most kMaxDurationMs.
std::string ms_reason(nbiot::SimTime value, std::uint64_t lo) {
    return bound_reason(value.count(), lo, kMaxDurationMs);
}

/// Reads a finite number into `out`; returns why it cannot, or "".
std::string read_number(const In& in, double& out) {
    switch (parse_strict_double(in.value.c_str(), out)) {
        case DoubleParseError::none: return {};
        case DoubleParseError::empty: return "empty value";
        case DoubleParseError::not_number: return "not a number";
        case DoubleParseError::not_finite: return "not a finite number";
    }
    return {};
}

/// A number knob's domain, and the words that refuse a value outside it.
struct Domain {
    bool (*holds)(double);
    const char* words;
};
constexpr Domain kNonNegative{[](double v) { return v >= 0.0; }, "value must be >= 0"};
constexpr Domain kPositive{[](double v) { return v > 0.0; }, "value must be > 0"};
constexpr Domain kUnitInterval{[](double v) { return v >= 0.0 && v < 1.0; },
                               "value must be in [0, 1)"};

/// Why the number `value` falls outside `domain`, or "".  A value that is
/// not finite is refused in the parser's words for one.
std::string number_reason(double value, Domain domain) {
    if (!std::isfinite(value)) return "not a finite number";
    return domain.holds(value) ? std::string() : domain.words;
}

std::string read_path(const In& in, std::string& out) {
    if (in.value.empty()) return "empty path";
    out = in.value;
    return {};
}

/// An output path.  Given as a flag it turns its collection `mode` on; a
/// file key requires the mode instead (its `when`), and the row's check
/// holds the pairing on a finished spec.
std::string read_output(const In& in, std::string& path, bool& mode) {
    std::string reason = read_path(in, path);
    if (reason.empty() && in.flag) mode = true;
    return reason;
}

Text text(const std::string& value) { return value; }
Text text(nbiot::SimTime value) { return std::to_string(value.count()); }
Text text(double value) {
    // Full round-trip precision: a saved-and-reloaded spec must run the
    // same experiment, so doubles may not lose digits on the way out.
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << value;
    return out.str();
}
template <std::integral T>
Text text(T value) {
    return std::to_string(value);
}
template <class T>
Text text_if(bool emit, const T& value) {
    return emit ? text(value) : std::nullopt;
}
/// The value's text, or nullopt (key omitted) when it is `omitted`.
template <class T>
Text text_unless(const T& value, const std::type_identity_t<T>& omitted) {
    return text_if(value != omitted, value);
}

std::string join(const std::vector<std::string>& names, const char* separator) {
    std::string joined;
    for (const std::string& name : names) {
        if (!joined.empty()) joined += separator;
        joined += name;
    }
    return joined;
}

std::string read_mechanisms(Spec& spec, const In& in) {
    const Registry& registry = Registry::instance();
    std::vector<core::MechanismKind> kinds;
    std::string_view remaining = in.value;
    while (true) {
        const std::size_t comma = remaining.find(',');
        const std::string_view token = trim(remaining.substr(0, comma));
        if (token.empty()) return "empty mechanism name";
        const auto kind = registry.find_mechanism(token);
        if (!kind) {
            return "unknown mechanism '" + std::string(token) + "'; expected " +
                   join(registry.mechanism_names(), " | ");
        }
        kinds.push_back(*kind);
        if (comma == std::string_view::npos) break;
        remaining.remove_prefix(comma + 1);
    }
    spec.mechanisms = std::move(kinds);
    return {};
}

std::string read_telemetry(Spec& spec, const In& in) {
    // Modes add to what the spec collects (a fresh spec collects nothing);
    // off also drops the output paths.
    TelemetrySpec& telemetry = spec.telemetry;
    if (in.value == "off") {
        telemetry = TelemetrySpec{};
    } else if (in.value == "trace") {
        telemetry.trace = true;
    } else if (in.value == "metrics") {
        telemetry.metrics = true;
    } else if (in.value == "full") {
        telemetry.trace = true;
        telemetry.metrics = true;
    } else {
        return "unknown telemetry mode; expected off | trace | metrics | full";
    }
    return {};
}

std::string read_coordinator(Spec& spec, const In& in) {
    // `none` is a flag-only spelling: a file leaves the key out instead.
    if (in.flag && in.value == "none") {
        spec.coordinator.reset();
        return {};
    }
    const auto policy = multicell::parse_start_policy(in.value);
    if (!policy) {
        return "unknown start policy; expected simultaneous | fixed-stagger | backhaul";
    }
    if (!spec.coordinator || spec.coordinator->policy != *policy) {
        // A policy switch resets the policy's knobs.  0 is a valid stagger,
        // so -1 marks one nobody gave yet; check_coordinator refuses it
        // unless the stagger row fills it.
        multicell::CoordinatorSpec fresh;
        fresh.policy = *policy;
        if (*policy == StartPolicy::fixed_stagger) fresh.stagger_ms = -1;
        spec.coordinator = fresh;
    }
    return {};
}

// --- `when` rules (the input defaults so `get`s and `check`s can ask them too) ---

constexpr const char* kGrid = "a multicell grid ('cells' or --cells N)";
constexpr const char* kSnapshot = "a snapshot path ('checkpoint.out' or --checkpoint-out FILE)";
constexpr const char* kTraceMode = "telemetry = trace or full";
constexpr const char* kMetricsMode = "telemetry = metrics or full";

bool grid(const Spec& s, const In& = {}) { return s.is_multicell(); }
bool hotspot(const Spec& s, const In& = {}) {
    return s.topology && s.topology->kind == TopologySpec::Kind::hotspot;
}
bool churn_on(const Spec& s, const In& = {}) { return s.config.churn.enabled(); }
bool telemetry_on(const Spec& s, const In& = {}) { return s.telemetry.enabled(); }
// An output flag turns its collection mode on (read_output does); an
// output key in a file requires the mode.
bool trace_on(const Spec& s, const In& in) { return in.flag || s.telemetry.trace; }
bool metrics_on(const Spec& s, const In& in) { return in.flag || s.telemetry.metrics; }
bool snapshot_path(const Spec& s, const In& = {}) { return !s.checkpoint.out.empty(); }
bool fixed_stagger(const Spec& s, const In& = {}) {
    return s.coordinator && s.coordinator->policy == StartPolicy::fixed_stagger;
}
bool backhaul(const Spec& s, const In& = {}) {
    return s.coordinator && s.coordinator->policy == StartPolicy::backhaul_budgeted;
}
// `--coordinator none` clears the coordinator of any base spec.
bool coordinator_allowed(const Spec& s, const In& in) {
    return s.is_multicell() || (in.flag && in.value == "none");
}

// --- `check` rules that read more than their own field ---

/// The words of an unmet `needs`, as a `when` diagnostic prints them.
std::string requirement(const char* needs) { return std::string("requires ") + needs; }

/// An output path needs its collection mode.
std::string output_reason(const std::string& path, bool mode, const char* needs) {
    return path.empty() || mode ? std::string() : requirement(needs);
}

/// The checkpoint throttle and stop budget need a snapshot path.
std::string snapshot_reason(const Spec& s, bool set) {
    return !set || snapshot_path(s) ? std::string() : requirement(kSnapshot);
}

std::string check_coordinator(const Spec& s) {
    if (!s.coordinator) return {};
    if (!grid(s)) return requirement(kGrid);
    if (fixed_stagger(s) && s.coordinator->stagger_ms < 0) {
        return "the fixed-stagger policy needs a stagger; it requires "
               "coordinator.stagger_ms or --stagger-ms N";
    }
    if (backhaul(s) && !(s.coordinator->backhaul_kbps > 0.0)) {
        return "the backhaul policy needs a feed budget; it requires "
               "coordinator.backhaul_kbps or --backhaul-kbps X";
    }
    if (!s.coordinator->valid()) {
        return "invalid coordinator (policy-scoped knobs: stagger_ms >= 0 needs "
               "fixed-stagger, finite backhaul_kbps > 0 and loss_prob in [0, 1) "
               "need backhaul)";
    }
    return {};
}

std::string check_cell_down(const Spec& s) {
    if (!s.cell_down) return {};
    if (!grid(s)) return requirement(kGrid);
    if (!s.cell_down->valid()) return "the outage time must be >= 1 ms";
    if (s.cell_down->cell >= s.cell_count()) {
        return "names cell " + std::to_string(s.cell_down->cell) + " but the topology has " +
               std::to_string(s.cell_count()) + " cells";
    }
    return {};
}

std::string check_payload(const Spec& s) {
    return bound_reason(s.payload_bytes, 1, kMaxPayloadBytes);
}

const KeyRow kRows[] = {
    {.key = "name",
     .set = [](Spec& s, const In& in) { s.name = in.value; return std::string(); },
     .get = [](const Spec& s) { return text(s.name); },
     .results = false},
    {.key = "description",
     .set = [](Spec& s, const In& in) { s.description = in.value; return std::string(); },
     .get = [](const Spec& s) { return text_unless(s.description, ""); },
     .results = false},
    {.key = "profile",
     .set = [](Spec& s, const In& in) -> std::string {
         const Registry& registry = Registry::instance();
         if (!registry.has_profile(in.value)) {
             return "unknown profile '" + in.value + "'; expected " +
                    join(registry.profile_names(), " | ");
         }
         s.profile = registry.profile(in.value);
         return {};
     },
     .get = [](const Spec& s) { return text(s.profile.name); }},
    {.key = "batch_mean",
     .set = [](Spec& s, const In& in) { return read_number(in, s.profile.batch_mean); },
     .check = [](const Spec& s) {
         return number_reason(s.profile.batch_mean,
                              {[](double v) { return v >= 1.0; }, "value must be >= 1"});
     },
     .get = [](const Spec& s) {
         return text_unless(s.profile.batch_mean,
                            Registry::instance().profile(s.profile.name).batch_mean);
     }},
    {.key = "devices", .flag = "--devices",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.device_count); },
     .check = [](const Spec& s) { return bound_reason(s.device_count, 1, kMaxDevices); },
     .get = [](const Spec& s) { return text(s.device_count); }},
    {.key = "payload_bytes",
     .set = [](Spec& s, const In& in) { return read_capped(in, s.payload_bytes); },
     .check = check_payload,
     .get = [](const Spec& s) { return text(s.payload_bytes); }},
    {.key = "payload_kb", .flag = "--payload-kb",
     .set = [](Spec& s, const In& in) {
         // The KB count's own cap keeps the x 1024 from wrapping.
         std::int64_t kb = 0;
         std::string reason = read_integer(in, kb, 0, kMaxPayloadBytes / 1024);
         if (reason.empty()) s.payload_bytes = kb * 1024;
         return reason;
     },
     .check = check_payload,
     .get = [](const Spec&) { return Text{}; },  // written as payload_bytes
     .same_as = "payload_bytes"},
    {.key = "runs", .flag = "--runs",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.runs); },
     .check = [](const Spec& s) { return bound_reason(s.runs, 1, kMaxRuns); },
     .get = [](const Spec& s) { return text(s.runs); }},
    {.key = "seed", .flag = "--seed",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.base_seed); },
     .get = [](const Spec& s) { return text(s.base_seed); }},
    {.key = "threads", .flag = "--threads",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.threads); },
     .check = [](const Spec& s) { return bound_reason(s.threads, 0, kMaxThreads); },
     .get = [](const Spec& s) { return text_unless(s.threads, 0); },
     .results = false},
    {.key = "mechanisms",
     .set = read_mechanisms,
     .check = [](const Spec& s) -> std::string {
         return s.mechanisms.empty() ? "the mechanism list must not be empty" : "";
     },
     .get = [](const Spec& s) {
         std::vector<std::string> names;
         for (const core::MechanismKind kind : s.mechanisms) {
             names.push_back(Registry::instance().mechanism_name(kind));
         }
         return text(join(names, ","));
     }},
    {.key = "ti_ms", .flag = "--ti-ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.inactivity_timer); },
     .check = [](const Spec& s) { return ms_reason(s.config.inactivity_timer, 1); },
     .get = [](const Spec& s) { return text(s.config.inactivity_timer); }},
    {.key = "ra_guard_ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.ra_guard); },
     .check = [](const Spec& s) { return ms_reason(s.config.ra_guard, 0); },
     .get = [](const Spec& s) { return text(s.config.ra_guard); }},
    {.key = "include_inactivity_tail",
     .set = [](Spec& s, const In& in) -> std::string {
         const bool on = in.value == "true" || in.value == "1";
         if (!on && in.value != "false" && in.value != "0") return "expected true | false";
         s.config.include_inactivity_tail = on;
         return {};
     },
     .get = [](const Spec& s) {
         return Text{s.config.include_inactivity_tail ? "true" : "false"};
     }},
    {.key = "page_miss_prob",
     .set = [](Spec& s, const In& in) { return read_number(in, s.config.page_miss_prob); },
     .check = [](const Spec& s) { return number_reason(s.config.page_miss_prob, kUnitInterval); },
     .get = [](const Spec& s) { return text(s.config.page_miss_prob); }},
    {.key = "max_page_attempts",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.config.max_page_attempts); },
     .check = [](const Spec& s) { return bound_reason(s.config.max_page_attempts, 1); },
     .get = [](const Spec& s) { return text(s.config.max_page_attempts); }},
    {.key = "background_ra_per_second",
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.config.background_ra_per_second);
     },
     .check = [](const Spec& s) {
         return number_reason(s.config.background_ra_per_second,
                              {[](double v) { return v >= 0.0 && v <= kMaxBackgroundRaPerSecond; },
                               "value must be in [0, 1000]"});
     },
     .get = [](const Spec& s) { return text(s.config.background_ra_per_second); }},
    {.key = "max_page_records",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.config.paging.max_page_records);
     },
     .check = [](const Spec& s) { return bound_reason(s.config.paging.max_page_records, 1); },
     .get = [](const Spec& s) { return text(s.config.paging.max_page_records); }},
    {.key = "sc_ptm_mcch_period_ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.sc_ptm_mcch_period); },
     .check = [](const Spec& s) { return ms_reason(s.config.sc_ptm_mcch_period, 1); },
     .get = [](const Spec& s) { return text(s.config.sc_ptm_mcch_period); }},
    {.key = "strata", .flag = "--strata",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.config.strata); },
     .check = [](const Spec& s) { return bound_reason(s.config.strata, 1, core::kMaxStrata); },
     .get = [](const Spec& s) { return text_unless(s.config.strata, 1); }},
    {.key = "churn.leave_rate", .flag = "--churn-leave-rate", .shape = "X",
     .set = [](Spec& s, const In& in) { return read_number(in, s.config.churn.leave_rate); },
     .check = [](const Spec& s) { return number_reason(s.config.churn.leave_rate, kNonNegative); },
     .get = [](const Spec& s) { return text_if(churn_on(s), s.config.churn.leave_rate); }},
    {.key = "churn.rejoin_ms", .flag = "--churn-rejoin-ms",
     .set = [](Spec& s, const In& in) { return read_capped(in, s.config.churn.rejoin_ms); },
     .check = [](const Spec& s) {
         // Enabled churn needs a rejoin time; the cap holds either way.
         return bound_reason(s.config.churn.rejoin_ms, churn_on(s) ? 1U : 0U, kMaxDurationMs);
     },
     .get = [](const Spec& s) { return text_if(churn_on(s), s.config.churn.rejoin_ms); },
     .when = churn_on, .needs = "'churn.leave_rate' > 0 (or --churn-leave-rate X)"},
    {.key = "telemetry", .flag = "--telemetry", .shape = "off | trace | metrics | full",
     .set = read_telemetry,
     .get = [](const Spec& s) -> Text {
         if (!s.telemetry.enabled()) return {};
         if (s.telemetry.trace && s.telemetry.metrics) return "full";
         return s.telemetry.trace ? "trace" : "metrics";
     }},
    {.key = "telemetry.bucket_ms",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.telemetry.bucket_ms); },
     .check = [](const Spec& s) { return bound_reason(s.telemetry.bucket_ms, 1); },
     .get = [](const Spec& s) {
         return text_if(telemetry_on(s) && s.telemetry.bucket_ms != TelemetrySpec{}.bucket_ms,
                        s.telemetry.bucket_ms);
     },
     .when = telemetry_on, .needs = "an enabled telemetry mode (trace | metrics | full)"},
    {.key = "trace_out", .flag = "--trace-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.trace_out, s.telemetry.trace);
     },
     .check = [](const Spec& s) {
         return output_reason(s.telemetry.trace_out, s.telemetry.trace, kTraceMode);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.trace_out, ""); },
     .when = trace_on, .needs = kTraceMode, .results = false},
    {.key = "metrics_out", .flag = "--metrics-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.metrics_out, s.telemetry.metrics);
     },
     .check = [](const Spec& s) {
         return output_reason(s.telemetry.metrics_out, s.telemetry.metrics, kMetricsMode);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.metrics_out, ""); },
     .when = metrics_on, .needs = kMetricsMode, .results = false},
    {.key = "timeline_out", .flag = "--timeline-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.timeline_out, s.telemetry.trace);
     },
     .check = [](const Spec& s) {
         return output_reason(s.telemetry.timeline_out, s.telemetry.trace, kTraceMode);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.timeline_out, ""); },
     .when = trace_on, .needs = kTraceMode, .results = false},
    {.key = "checkpoint.out", .flag = "--checkpoint-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) { return read_path(in, s.checkpoint.out); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.out, ""); },
     .results = false},
    // The throttle and the stop budget are off at 0, which is spelled by
    // leaving the key out: a given value starts at 1.
    {.key = "checkpoint.every_ms", .flag = "--checkpoint-every-ms",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.checkpoint.every_ms, 1); },
     .check = [](const Spec& s) {
         std::string reason = bound_reason(s.checkpoint.every_ms, 0);
         return reason.empty() ? snapshot_reason(s, s.checkpoint.every_ms != 0) : reason;
     },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.every_ms, 0); },
     .when = snapshot_path, .needs = kSnapshot, .results = false},
    {.key = "checkpoint.stop_after", .flag = "--checkpoint-stop-after",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.checkpoint.stop_after, 1); },
     .check = [](const Spec& s) { return snapshot_reason(s, s.checkpoint.stop_after != 0); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.stop_after, 0); },
     .when = snapshot_path, .needs = kSnapshot, .results = false},
    {.key = "checkpoint.resume", .flag = "--resume", .shape = "FILE",
     .set = [](Spec& s, const In& in) { return read_path(in, s.checkpoint.resume); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.resume, ""); },
     .results = false},
    {.key = "cells", .flag = "--cells",
     .set = [](Spec& s, const In& in) {
         std::size_t cells = s.cell_count();
         std::string reason = read_integer(in, cells);
         if (reason.empty()) {
             if (!s.topology) s.topology.emplace();  // a hotspot base stays one
             s.topology->cells = cells;
         }
         return reason;
     },
     .check = [](const Spec& s) {
         return grid(s) ? bound_reason(s.topology->cells, 1, kMaxCells) : "";
     },
     .get = [](const Spec& s) { return text_if(grid(s), s.cell_count()); }},
    {.key = "topology",
     .set = [](Spec& s, const In& in) -> std::string {
         const bool hot = in.value == "hotspot";
         if (!hot && in.value != "uniform") {
             return "unknown topology; expected uniform | hotspot";
         }
         s.topology->kind = hot ? TopologySpec::Kind::hotspot : TopologySpec::Kind::uniform;
         return {};
     },
     .get = [](const Spec& s) -> Text {
         if (!grid(s)) return {};
         return to_string(s.topology->kind);
     },
     .when = grid, .needs = kGrid},
    {.key = "hotspot_exponent",
     .set = [](Spec& s, const In& in) { return read_number(in, s.topology->hotspot_exponent); },
     .check = [](const Spec& s) -> std::string {
         if (!grid(s)) return {};
         return number_reason(s.topology->hotspot_exponent,
                              {[](double v) { return v >= 0.0 && v <= kMaxHotspotExponent; },
                               "value must be in [0, 85]"});
     },
     .get = [](const Spec& s) -> Text {
         if (!hotspot(s)) return {};
         return text(s.topology->hotspot_exponent);
     },
     .when = hotspot, .needs = "topology = hotspot"},
    {.key = "assignment", .flag = "--assignment",
     .shape = "uniform | hotspot | class-affinity",
     .set = [](Spec& s, const In& in) -> std::string {
         const auto policy = multicell::parse_assignment_policy(in.value);
         if (!policy) {
             return "unknown assignment policy; expected uniform | hotspot | "
                    "class-affinity";
         }
         s.assignment = *policy;
         return {};
     },
     .get = [](const Spec& s) {
         return text_if(grid(s), std::string(multicell::to_string(s.assignment)));
     },
     .when = grid, .needs = kGrid},
    {.key = "coordinator", .flag = "--coordinator",
     .shape = "simultaneous | fixed-stagger | backhaul | none",
     .set = read_coordinator,
     .check = check_coordinator,
     .get = [](const Spec& s) -> Text {
         if (!s.coordinator) return {};
         return multicell::to_string(s.coordinator->policy);
     },
     .when = coordinator_allowed, .needs = kGrid},
    {.key = "coordinator.stagger_ms", .flag = "--stagger-ms",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.coordinator->stagger_ms); },
     .get = [](const Spec& s) -> Text {
         if (!fixed_stagger(s)) return {};
         return text(s.coordinator->stagger_ms);
     },
     .when = fixed_stagger, .needs = "coordinator = fixed-stagger"},
    {.key = "coordinator.backhaul_kbps", .flag = "--backhaul-kbps", .shape = "X",
     .set = [](Spec& s, const In& in) { return read_number(in, s.coordinator->backhaul_kbps); },
     .check = [](const Spec& s) {
         return backhaul(s) ? number_reason(s.coordinator->backhaul_kbps, kPositive) : "";
     },
     .get = [](const Spec& s) -> Text {
         if (!backhaul(s)) return {};
         return text(s.coordinator->backhaul_kbps);
     },
     .when = backhaul, .needs = "coordinator = backhaul"},
    {.key = "faults.backhaul_loss", .flag = "--backhaul-loss", .shape = "X",
     .set = [](Spec& s, const In& in) { return read_number(in, s.coordinator->loss_prob); },
     .check = [](const Spec& s) {
         return backhaul(s) ? number_reason(s.coordinator->loss_prob, kUnitInterval) : "";
     },
     .get = [](const Spec& s) -> Text {
         if (!backhaul(s) || s.coordinator->loss_prob == 0.0) return {};
         return text(s.coordinator->loss_prob);
     },
     .when = backhaul, .needs = "coordinator = backhaul"},
    {.key = "faults.cell_down", .flag = "--cell-down", .shape = "CELL@T_MS",
     .set = [](Spec& s, const In& in) -> std::string {
         const auto outage = faults::parse_cell_down(in.value);
         if (!outage) {
             return "malformed outage spec; expected CELL@T_MS (e.g. 3@600000, T >= 1)";
         }
         s.cell_down = *outage;
         return {};
     },
     .check = check_cell_down,
     .get = [](const Spec& s) -> Text {
         if (!grid(s) || !s.cell_down) return {};
         return faults::format_cell_down(*s.cell_down);
     },
     .when = grid, .needs = kGrid},
};

}  // namespace

std::span<const KeyRow> scenario_keys() { return kRows; }

std::string key_lines(const ScenarioSpec& spec, bool results_only) {
    const auto refuse = [&spec](const std::string& why) {
        throw std::invalid_argument("scenario '" + spec.name + "': " + why);
    };
    const Registry& registry = Registry::instance();
    if (!registry.has_profile(spec.profile.name)) {
        refuse("profile '" + spec.profile.name +
               "' is not a registered builtin; the scenario-file format stores "
               "profiles by name");
    }
    // Profiles travel by name (+ batch_mean): any deeper edit under a
    // registered name would silently reload as the builtin.
    traffic::PopulationProfile builtin = registry.profile(spec.profile.name);
    builtin.batch_mean = spec.profile.batch_mean;
    if (!(spec.profile == builtin)) {
        refuse("profile '" + spec.profile.name +
               "' was modified beyond batch_mean; the scenario-file format "
               "cannot express per-class edits");
    }
    if (spec.config.outage_at_ms != -1) {
        // The per-campaign outage instant is engine plumbing run_deployment
        // derives from cell_down.
        refuse("config.outage_at_ms is engine plumbing; describe outages with "
               "cell_down (faults.cell_down) instead");
    }
    if (spec.coordinator && !spec.topology) {
        // Invalid anyway (the coordinator row's check refuses it); refusing
        // keeps the coordinator keys from vanishing silently.
        refuse("coordinator requires a multicell topology (cells)");
    }
    // Deep config (timing/RACH/radio/signaling models, the paging geometry
    // beyond max_page_records) has no file keys; refuse rather than
    // silently reload defaults.
    const core::CampaignConfig defaults{};
    const core::CampaignConfig& config = spec.config;
    if (!(config.timing == defaults.timing && config.rach == defaults.rach &&
          config.radio == defaults.radio && config.sizes == defaults.sizes &&
          config.paging.nb_num == defaults.paging.nb_num &&
          config.paging.nb_den == defaults.paging.nb_den &&
          config.paging.ue_id_modulus == defaults.paging.ue_id_modulus)) {
        refuse("deep campaign config (timing/rach/radio/signaling/paging "
               "geometry) differs from the defaults and has no scenario-file "
               "keys; keep such specs programmatic");
    }

    std::string lines;
    for (const KeyRow& row : kRows) {
        if (results_only && !row.results) continue;
        const Text value = row.get(spec);
        if (!value) continue;
        // The parser splits lines and trims values, so neither a line
        // break nor surrounding whitespace survives a reload.
        if (trim(*value) != *value || value->find_first_of("\r\n") != std::string::npos) {
            refuse(std::string("the value of '") + row.key +
                   "' has a line break or surrounding whitespace, which a "
                   "scenario file cannot carry");
        }
        lines += row.key;
        lines += " = ";
        lines += *value;
        lines += '\n';
    }
    return lines;
}

std::uint64_t spec_fingerprint(const ScenarioSpec& spec) {
    std::string text;
    try {
        text = key_lines(spec, /*results_only=*/true);
    } catch (const std::invalid_argument& error) {
        // A spec without a file form has nothing stable to fingerprint (or
        // to resume against).
        throw ScenarioError(
            std::string("checkpointing requires a file-expressible scenario: ") +
            error.what());
    }
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

}  // namespace nbmg::scenario
