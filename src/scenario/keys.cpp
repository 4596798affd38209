#include "scenario/keys.hpp"

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

/// Reads a decimal integer in [lo, hi] into `out`; returns why it cannot,
/// or "".  The bound keeps a value that is narrowed (int fields) or
/// multiplied (payload_kb) downstream from wrapping.
template <class T>
std::string read_integer(const In& in, T& out, std::uint64_t lo,
                         std::uint64_t hi = static_cast<std::uint64_t>(
                             std::numeric_limits<T>::max())) {
    std::uint64_t value = 0;
    std::string reason = parse_u64_in_range(in.value.c_str(), value, lo, hi);
    if (reason.empty()) out = static_cast<T>(value);
    return reason;
}

/// read_integer for a millisecond duration, at most kMaxDurationMs.
std::string read_ms(const In& in, nbiot::SimTime& out, std::uint64_t lo) {
    std::int64_t ms = out.count();
    std::string reason = read_integer(in, ms, lo, kMaxDurationMs);
    out = nbiot::SimTime{ms};
    return reason;
}

/// Reads a finite number that satisfies `in_range` into `out`; returns
/// why it cannot (`range` for a number outside it), or "".
std::string read_number(const In& in, double& out, bool (*in_range)(double),
                        const char* range) {
    double value = 0.0;
    switch (parse_strict_double(in.value.c_str(), value)) {
        case DoubleParseError::none: break;
        case DoubleParseError::empty: return "empty value";
        case DoubleParseError::not_number: return "not a number";
        case DoubleParseError::not_finite: return "not a finite number";
    }
    if (!in_range(value)) return range;
    out = value;
    return {};
}

bool non_negative(double value) { return value >= 0.0; }
bool unit_interval(double value) { return value >= 0.0 && value < 1.0; }

std::string read_path(const In& in, std::string& out) {
    if (in.value.empty()) return "empty path";
    out = in.value;
    return {};
}

/// An output path; giving one turns its collection `mode` on.
std::string read_output(const In& in, std::string& path, bool& mode) {
    std::string reason = read_path(in, path);
    if (reason.empty()) mode = true;
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
        // so -1 marks one nobody gave yet; settle_coordinator rejects it
        // unless the stagger row fills it.
        multicell::CoordinatorSpec fresh;
        fresh.policy = *policy;
        if (*policy == StartPolicy::fixed_stagger) fresh.stagger_ms = -1;
        spec.coordinator = fresh;
    }
    return {};
}

std::string settle_coordinator(const Spec& spec) {
    if (!spec.coordinator) return {};
    if (spec.coordinator->policy == StartPolicy::fixed_stagger &&
        spec.coordinator->stagger_ms < 0) {
        return "the fixed-stagger policy needs a stagger; it requires "
               "coordinator.stagger_ms or --stagger-ms N";
    }
    if (spec.coordinator->policy == StartPolicy::backhaul_budgeted &&
        !(spec.coordinator->backhaul_kbps > 0.0)) {
        return "the backhaul policy needs a feed budget; it requires "
               "coordinator.backhaul_kbps or --backhaul-kbps X";
    }
    return {};
}

// --- `when` rules (the input defaults so `get`s can ask them too) ---

constexpr const char* kGrid = "a multicell grid ('cells' or --cells N)";
constexpr const char* kSnapshot = "a snapshot path ('checkpoint.out' or --checkpoint-out FILE)";

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
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.profile.batch_mean, [](double v) { return v >= 1.0; },
                            "value must be >= 1");
     },
     .get = [](const Spec& s) {
         return text_unless(s.profile.batch_mean,
                            Registry::instance().profile(s.profile.name).batch_mean);
     }},
    {.key = "devices", .flag = "--devices",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.device_count, 1, kMaxDevices);
     },
     .get = [](const Spec& s) { return text(s.device_count); }},
    {.key = "payload_bytes",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.payload_bytes, 1, kMaxPayloadBytes);
     },
     .get = [](const Spec& s) { return text(s.payload_bytes); }},
    {.key = "payload_kb", .flag = "--payload-kb",
     .set = [](Spec& s, const In& in) {
         std::int64_t kb = 0;
         std::string reason = read_integer(in, kb, 1, kMaxPayloadBytes / 1024);
         if (reason.empty()) s.payload_bytes = kb * 1024;
         return reason;
     },
     .get = [](const Spec&) { return Text{}; },  // written as payload_bytes
     .same_as = "payload_bytes"},
    {.key = "runs", .flag = "--runs",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.runs, 1, kMaxRuns); },
     .get = [](const Spec& s) { return text(s.runs); }},
    {.key = "seed", .flag = "--seed",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.base_seed, 0); },
     .get = [](const Spec& s) { return text(s.base_seed); }},
    {.key = "threads", .flag = "--threads",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.threads, 0, kMaxThreads); },
     .get = [](const Spec& s) { return text_unless(s.threads, 0); },
     .results = false},
    {.key = "mechanisms",
     .set = read_mechanisms,
     .get = [](const Spec& s) {
         std::vector<std::string> names;
         for (const core::MechanismKind kind : s.mechanisms) {
             names.push_back(Registry::instance().mechanism_name(kind));
         }
         return text(join(names, ","));
     }},
    {.key = "ti_ms", .flag = "--ti-ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.inactivity_timer, 1); },
     .get = [](const Spec& s) { return text(s.config.inactivity_timer); }},
    {.key = "ra_guard_ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.ra_guard, 0); },
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
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.config.page_miss_prob, unit_interval,
                            "value must be in [0, 1)");
     },
     .get = [](const Spec& s) { return text(s.config.page_miss_prob); }},
    {.key = "max_page_attempts",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.config.max_page_attempts, 1);
     },
     .get = [](const Spec& s) { return text(s.config.max_page_attempts); }},
    {.key = "background_ra_per_second",
     .set = [](Spec& s, const In& in) {
         return read_number(
             in, s.config.background_ra_per_second,
             [](double v) { return v >= 0.0 && v <= kMaxBackgroundRaPerSecond; },
             "value must be in [0, 1000]");
     },
     .get = [](const Spec& s) { return text(s.config.background_ra_per_second); }},
    {.key = "max_page_records",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.config.paging.max_page_records, 1);
     },
     .get = [](const Spec& s) { return text(s.config.paging.max_page_records); }},
    {.key = "sc_ptm_mcch_period_ms",
     .set = [](Spec& s, const In& in) { return read_ms(in, s.config.sc_ptm_mcch_period, 1); },
     .get = [](const Spec& s) { return text(s.config.sc_ptm_mcch_period); }},
    {.key = "strata", .flag = "--strata",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.config.strata, 1, core::kMaxStrata);
     },
     .get = [](const Spec& s) { return text_unless(s.config.strata, 1); }},
    {.key = "churn.leave_rate", .flag = "--churn-leave-rate", .shape = "X",
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.config.churn.leave_rate, non_negative, "value must be >= 0");
     },
     .get = [](const Spec& s) { return text_if(churn_on(s), s.config.churn.leave_rate); }},
    {.key = "churn.rejoin_ms", .flag = "--churn-rejoin-ms",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.config.churn.rejoin_ms, 1, kMaxDurationMs);
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
     .set = [](Spec& s, const In& in) { return read_integer(in, s.telemetry.bucket_ms, 1); },
     .get = [](const Spec& s) {
         return text_if(telemetry_on(s) && s.telemetry.bucket_ms != TelemetrySpec{}.bucket_ms,
                        s.telemetry.bucket_ms);
     },
     .when = telemetry_on, .needs = "an enabled telemetry mode (trace | metrics | full)"},
    {.key = "trace_out", .flag = "--trace-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.trace_out, s.telemetry.trace);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.trace_out, ""); },
     .when = trace_on, .needs = "telemetry = trace or full", .results = false},
    {.key = "metrics_out", .flag = "--metrics-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.metrics_out, s.telemetry.metrics);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.metrics_out, ""); },
     .when = metrics_on, .needs = "telemetry = metrics or full", .results = false},
    {.key = "timeline_out", .flag = "--timeline-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) {
         return read_output(in, s.telemetry.timeline_out, s.telemetry.trace);
     },
     .get = [](const Spec& s) { return text_unless(s.telemetry.timeline_out, ""); },
     .when = trace_on, .needs = "telemetry = trace or full", .results = false},
    {.key = "checkpoint.out", .flag = "--checkpoint-out", .shape = "FILE",
     .set = [](Spec& s, const In& in) { return read_path(in, s.checkpoint.out); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.out, ""); },
     .results = false},
    {.key = "checkpoint.every_ms", .flag = "--checkpoint-every-ms",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.checkpoint.every_ms, 1); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.every_ms, 0); },
     .when = snapshot_path, .needs = kSnapshot, .results = false},
    {.key = "checkpoint.stop_after", .flag = "--checkpoint-stop-after",
     .set = [](Spec& s, const In& in) { return read_integer(in, s.checkpoint.stop_after, 1); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.stop_after, 0); },
     .when = snapshot_path, .needs = kSnapshot, .results = false},
    {.key = "checkpoint.resume", .flag = "--resume", .shape = "FILE",
     .set = [](Spec& s, const In& in) { return read_path(in, s.checkpoint.resume); },
     .get = [](const Spec& s) { return text_unless(s.checkpoint.resume, ""); },
     .results = false},
    {.key = "cells", .flag = "--cells",
     .set = [](Spec& s, const In& in) {
         std::size_t cells = s.cell_count();
         std::string reason = read_integer(in, cells, 1, kMaxCells);
         if (reason.empty()) {
             if (!s.topology) s.topology.emplace();  // a hotspot base stays one
             s.topology->cells = cells;
         }
         return reason;
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
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.topology->hotspot_exponent, non_negative,
                            "value must be >= 0");
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
     .get = [](const Spec& s) -> Text {
         if (!s.coordinator) return {};
         return multicell::to_string(s.coordinator->policy);
     },
     .when = coordinator_allowed, .needs = kGrid, .settle = settle_coordinator},
    {.key = "coordinator.stagger_ms", .flag = "--stagger-ms",
     .set = [](Spec& s, const In& in) {
         return read_integer(in, s.coordinator->stagger_ms, 0);
     },
     .get = [](const Spec& s) -> Text {
         if (!fixed_stagger(s)) return {};
         return text(s.coordinator->stagger_ms);
     },
     .when = fixed_stagger, .needs = "coordinator = fixed-stagger"},
    {.key = "coordinator.backhaul_kbps", .flag = "--backhaul-kbps", .shape = "X",
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.coordinator->backhaul_kbps, [](double v) { return v > 0.0; },
                            "value must be > 0");
     },
     .get = [](const Spec& s) -> Text {
         if (!backhaul(s)) return {};
         return text(s.coordinator->backhaul_kbps);
     },
     .when = backhaul, .needs = "coordinator = backhaul"},
    {.key = "faults.backhaul_loss", .flag = "--backhaul-loss", .shape = "X",
     .set = [](Spec& s, const In& in) {
         return read_number(in, s.coordinator->loss_prob, unit_interval,
                            "value must be in [0, 1)");
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
        // Invalid anyway (validate rejects it); refusing keeps the
        // coordinator keys from vanishing silently.
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
