// The scenario key table walked row by row: a value given as a file key
// and as the row's flag resolves to the same spec, the checkpoint
// fingerprint moves with exactly the results rows, and every row's check
// refuses a value its `set` accepts at every entry point (validate(), the
// file line).  Every row needs a sample below, and every checked row a
// refused value, so a new knob or rule cannot join the table untested.
#include "scenario/keys.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/cli.hpp"
#include "scenario/parser.hpp"

namespace nbmg::scenario {
namespace {

/// Two distinct values of one row, valid on top of `context` (file lines
/// that satisfy the row's `when`).  `other` = nullptr means "key absent".
struct Sample {
    const char* context;
    const char* value;
    const char* other;
};

const std::map<std::string, Sample>& samples() {
    static const std::map<std::string, Sample> table{
        {"name", {"", "a", "b"}},
        {"description", {"", "a", "b"}},
        {"profile", {"", "meter_heavy", "massive_iot_city"}},
        {"batch_mean", {"", "2.5", "3"}},
        {"devices", {"", "10", "20"}},
        {"payload_bytes", {"", "4096", "8192"}},
        {"payload_kb", {"", "2", "3"}},
        {"runs", {"", "2", "3"}},
        {"seed", {"", "1", "2"}},
        {"threads", {"", "2", "4"}},
        {"mechanisms", {"", "dr-sc", "da-sc,dr-si"}},
        {"ti_ms", {"", "20000", "30000"}},
        {"ra_guard_ms", {"", "0", "1000"}},
        {"include_inactivity_tail", {"", "true", "false"}},
        {"page_miss_prob", {"", "0.25", "0.5"}},
        {"max_page_attempts", {"", "2", "4"}},
        {"background_ra_per_second", {"", "1.5", "3"}},
        {"max_page_records", {"", "2", "4"}},
        {"sc_ptm_mcch_period_ms", {"", "5000", "6000"}},
        {"strata", {"", "2", "4"}},
        {"churn.leave_rate", {"churn.rejoin_ms = 1000\n", "2", "1"}},
        {"churn.rejoin_ms", {"churn.leave_rate = 2\n", "1000", "2000"}},
        {"telemetry", {"", "trace", "off"}},
        {"telemetry.bucket_ms", {"telemetry = metrics\n", "500", "1000"}},
        {"trace_out", {"telemetry = trace\n", "a.jsonl", "b.jsonl"}},
        {"metrics_out", {"telemetry = metrics\n", "a.csv", "b.csv"}},
        {"timeline_out", {"telemetry = trace\n", "a.json", "b.json"}},
        {"checkpoint.out", {"", "a.bin", "b.bin"}},
        {"checkpoint.every_ms", {"checkpoint.out = s.bin\n", "100", "200"}},
        {"checkpoint.stop_after", {"checkpoint.out = s.bin\n", "2", "3"}},
        {"checkpoint.resume", {"", "a.bin", "b.bin"}},
        {"cells", {"", "4", "8"}},
        {"topology", {"cells = 4\n", "hotspot", "uniform"}},
        {"hotspot_exponent", {"cells = 4\ntopology = hotspot\n", "2", "0.5"}},
        {"assignment", {"cells = 4\n", "hotspot", "class-affinity"}},
        {"coordinator", {"cells = 4\n", "simultaneous", nullptr}},
        {"coordinator.stagger_ms",
         {"cells = 4\ncoordinator = fixed-stagger\n", "100", "200"}},
        {"coordinator.backhaul_kbps",
         {"cells = 4\ncoordinator = backhaul\n", "64", "128"}},
        {"faults.backhaul_loss",
         {"cells = 4\ncoordinator = backhaul\ncoordinator.backhaul_kbps = 64\n",
          "0.2", "0.1"}},
        {"faults.cell_down", {"cells = 4\n", "1@1000", "2@1000"}},
    };
    return table;
}

/// A value the row's check refuses while its `set` accepts it (a row may
/// list several, one per bound).  It is set
/// on the row's sample spec, or on the spec of `context` when one is given
/// (a context without the sample's prerequisite, e.g. an output path
/// without its telemetry mode), and given on a line after that context.
struct RefusedValue {
    const char* value;
    const char* context = nullptr;
};

const std::multimap<std::string, RefusedValue>& refusals() {
    static const std::multimap<std::string, RefusedValue> table{
        {"batch_mean", {"0.5"}},
        {"devices", {"0"}},
        {"payload_bytes", {"0"}},
        {"payload_kb", {"0"}},
        {"runs", {"0"}},
        {"threads", {"1025"}},
        {"ti_ms", {"0"}},
        {"ra_guard_ms", {"1000000001"}},
        {"page_miss_prob", {"1"}},
        {"max_page_attempts", {"0"}},
        {"background_ra_per_second", {"1000.5"}},
        {"max_page_records", {"0"}},
        {"sc_ptm_mcch_period_ms", {"0"}},
        {"strata", {"33"}},
        {"churn.leave_rate", {"-1", ""}},
        {"churn.rejoin_ms", {"0"}},
        {"telemetry.bucket_ms", {"0"}},
        {"trace_out", {"a.jsonl", ""}},
        {"metrics_out", {"a.csv", ""}},
        {"timeline_out", {"a.json", ""}},
        {"checkpoint.every_ms", {"100", ""}},
        {"checkpoint.stop_after", {"2", ""}},
        {"cells", {"0"}},
        {"hotspot_exponent", {"-1"}},
        {"hotspot_exponent", {"86"}},
        {"coordinator", {"fixed-stagger"}},
        {"coordinator.backhaul_kbps", {"0"}},
        {"faults.backhaul_loss", {"1"}},
        {"faults.cell_down", {"4@1000"}},
    };
    return table;
}

/// Checked rows no file line or flag can break: the parser refuses an
/// empty mechanism name, so only a hand-built spec reaches the empty-list
/// rule (spec_test pins it).
const std::set<std::string> kHandBuiltOnly{"mechanisms"};

/// The rows a snapshot may differ in and still resume; every other row
/// changes results.
const std::set<std::string> kResumable{
    "name",           "description",         "threads",
    "trace_out",      "metrics_out",         "timeline_out",
    "checkpoint.out", "checkpoint.every_ms", "checkpoint.stop_after",
    "checkpoint.resume"};

ScenarioSpec parse_with(const KeyRow& row, const Sample& sample, const char* value) {
    std::string text = sample.context;
    if (value != nullptr) text += std::string(row.key) + " = " + value + "\n";
    return parse_scenario_text(text, row.key);
}

TEST(ScenarioKeyTableTest, EveryRowHasASample) {
    for (const KeyRow& row : scenario_keys()) {
        EXPECT_EQ(samples().count(row.key), 1u) << "add a sample for " << row.key;
    }
    EXPECT_EQ(samples().size(), scenario_keys().size());
}

TEST(ScenarioKeyTableTest, FlagAndKeyResolveToTheSameSpec) {
    for (const KeyRow& row : scenario_keys()) {
        if (row.flag == nullptr || samples().count(row.key) == 0) continue;
        const Sample& sample = samples().at(row.key);
        const ScenarioSpec from_file = parse_with(row, sample, sample.value);

        ScenarioSpec from_flag = parse_with(row, sample, sample.other);
        const char* argv[] = {"keys_test", row.flag, sample.value};
        apply_spec_overrides(from_flag, 3, const_cast<char**>(argv));
        EXPECT_EQ(from_flag.to_file_text(), from_file.to_file_text()) << row.key;
    }
}

TEST(ScenarioKeyTableTest, FingerprintMovesWithExactlyTheResultsRows) {
    for (const KeyRow& row : scenario_keys()) {
        if (samples().count(row.key) == 0) continue;
        const Sample& sample = samples().at(row.key);
        const std::uint64_t one = spec_fingerprint(parse_with(row, sample, sample.value));
        const std::uint64_t two = spec_fingerprint(parse_with(row, sample, sample.other));
        EXPECT_EQ(row.results, kResumable.count(row.key) == 0) << row.key;
        if (kResumable.count(row.key) == 0) {
            EXPECT_NE(one, two) << row.key << " changes results but not the fingerprint";
        } else {
            EXPECT_EQ(one, two) << row.key << " must not block a resume";
        }
    }
}

TEST(ScenarioKeyTableTest, BackgroundRaRateStopsAtItsCap) {
    // The row's set reads any finite rate; its check holds the cap.
    const auto row = std::ranges::find_if(scenario_keys(), [](const KeyRow& r) {
        return std::string_view(r.key) == "background_ra_per_second";
    });
    ASSERT_NE(row, scenario_keys().end());
    ScenarioSpec spec;
    EXPECT_EQ(row->set(spec, KeyInput{"1000"}), "");
    EXPECT_EQ(spec.config.background_ra_per_second, kMaxBackgroundRaPerSecond);
    EXPECT_EQ(row->check(spec), "");
    for (const char* past : {"1000.5", "1e5"}) {
        EXPECT_EQ(row->set(spec, KeyInput{past}), "") << past;
        EXPECT_EQ(row->check(spec), "value must be in [0, 1000]") << past;
    }
}

TEST(ScenarioKeyTableTest, HotspotExponentStopsAtItsCap) {
    // The cap is the largest whole exponent whose weight at the last of
    // kMaxCells cells is still a normal double.
    const auto last_weight = [](double exponent) {
        return multicell::CellTopology::hotspot(kMaxCells, exponent).cells.back().weight;
    };
    EXPECT_GE(last_weight(kMaxHotspotExponent), std::numeric_limits<double>::min());
    EXPECT_LT(last_weight(kMaxHotspotExponent + 1), std::numeric_limits<double>::min());
    EXPECT_TRUE(multicell::CellTopology::hotspot(kMaxCells, kMaxHotspotExponent).valid());

    const std::string context = "cells = 4\ntopology = hotspot\n";
    EXPECT_EQ(parse_scenario_text(context + "hotspot_exponent = 85\n")
                  .topology->hotspot_exponent,
              kMaxHotspotExponent);
    // An exponent whose weights underflow to 0 is refused at its line, not
    // as a topology without one.
    try {
        (void)parse_scenario_text(context + "hotspot_exponent = 1e308\n", "t.scenario");
        ADD_FAILURE() << "the parser accepted hotspot_exponent = 1e308";
    } catch (const ScenarioError& error) {
        EXPECT_EQ(std::string(error.what()).rfind("t.scenario:3: ", 0), 0u) << error.what();
    }
}

TEST(ScenarioKeyTableTest, EveryCheckedRowHasARefusedValue) {
    for (const KeyRow& row : scenario_keys()) {
        const bool sampled = refusals().contains(row.key);
        if (row.check == nullptr || kHandBuiltOnly.count(row.key) == 1) {
            EXPECT_FALSE(sampled) << row.key << " has no check to refuse a value";
        } else {
            EXPECT_TRUE(sampled) << "add a refused value for " << row.key;
        }
    }
}

TEST(ScenarioKeyTableTest, EveryCheckRefusesAtEveryEntryPoint) {
    for (const auto& [key, refusal] : refusals()) {
        const auto found = std::ranges::find_if(
            scenario_keys(), [&key](const KeyRow& r) { return key == r.key; });
        if (found == scenario_keys().end() || samples().count(key) == 0) continue;
        const KeyRow& row = *found;
        SCOPED_TRACE(key + " = " + refusal.value);
        const Sample& sample = samples().at(key);
        const std::string context =
            refusal.context != nullptr ? refusal.context : sample.context;

        // The row's set takes the value: the bound is the check's alone.
        ScenarioSpec spec = refusal.context != nullptr
                                ? parse_scenario_text(context)
                                : parse_with(row, sample, sample.value);
        EXPECT_EQ(row.set(spec, KeyInput{refusal.value}), "");

        // A spec holding it fails validate(), naming the key (or, for a
        // row sharing a field, the field's key).
        const std::string named =
            std::string("key '") + (row.same_as != nullptr ? row.same_as : row.key) + "'";
        try {
            spec.validate();
            ADD_FAILURE() << "validate() accepted " << refusal.value;
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find(named), std::string::npos)
                << error.what();
        }

        // The same value on a file line fails at that line.
        const std::string text = context + row.key + " = " + refusal.value + "\n";
        const std::string at =
            "refused.scenario:" + std::to_string(std::ranges::count(text, '\n')) + ":";
        try {
            (void)parse_scenario_text(text, "refused.scenario");
            ADD_FAILURE() << "the parser accepted:\n" << text;
        } catch (const ScenarioError& error) {
            EXPECT_EQ(std::string(error.what()).rfind(at, 0), 0u) << error.what();
        }
    }
}

}  // namespace
}  // namespace nbmg::scenario
