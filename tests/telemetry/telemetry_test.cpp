// Tier-1 coverage for the telemetry subsystem: CampaignSink recording and
// stratum-order merge, the zero-cost emission macro, Collector slot
// addressing, the three exporters (JSONL trace, metrics table, Chrome
// timeline), and the scenario-level invariants — telemetry never perturbs
// results, artifacts are a pure function of (spec, seed) at any
// --threads/--strata, and unwritable output paths are a usage error.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"

namespace nbmg {
namespace {

using telemetry::CampaignSink;
using telemetry::Collector;
using telemetry::EventKind;
using telemetry::TelemetryConfig;

constexpr TelemetryConfig kFull{.trace = true, .metrics = true,
                                .bucket_ms = 100};

TEST(SinkTest, DefaultConstructedSinkIsDisabledAndDropsEverything) {
    CampaignSink sink;
    EXPECT_FALSE(sink.enabled());
    sink.emit(EventKind::rach_attempt, 5, 1, 2, 3);
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(sink.counter(EventKind::rach_attempt), 0u);
}

TEST(SinkTest, TraceModeKeepsRecordsInEmissionOrder) {
    CampaignSink sink{TelemetryConfig{.trace = true}};
    sink.emit(EventKind::rach_attempt, 10, 1, 4, 8);
    sink.emit(EventKind::page_delivered, 20, 2, 0, 0);
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].kind, EventKind::rach_attempt);
    EXPECT_EQ(sink.records()[0].at_ms, 10);
    EXPECT_EQ(sink.records()[0].device, 1u);
    EXPECT_EQ(sink.records()[0].a, 4);
    EXPECT_EQ(sink.records()[0].b, 8);
    EXPECT_EQ(sink.records()[1].kind, EventKind::page_delivered);
    // Trace-only mode keeps no counters.
    EXPECT_EQ(sink.counter(EventKind::rach_attempt), 0u);
}

TEST(SinkTest, MetricsModeCountsAndBuckets) {
    CampaignSink sink{kFull};
    sink.emit(EventKind::rach_attempt, 0, 1, 0, 0);    // bucket 0
    sink.emit(EventKind::rach_attempt, 99, 1, 0, 0);   // bucket 0
    sink.emit(EventKind::rach_attempt, 100, 1, 0, 0);  // bucket 1
    sink.emit(EventKind::rach_attempt, 250, 1, 0, 0);  // bucket 2
    sink.emit(EventKind::rrc_connected, 5, 1, 0, 0);   // counted, not bucketed
    EXPECT_EQ(sink.counter(EventKind::rach_attempt), 4u);
    EXPECT_EQ(sink.counter(EventKind::rrc_connected), 1u);
    ASSERT_TRUE(CampaignSink::bucketed(EventKind::rach_attempt));
    EXPECT_FALSE(CampaignSink::bucketed(EventKind::rrc_connected));
    const std::vector<std::uint64_t>& buckets =
        sink.series(EventKind::rach_attempt);
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 1u);
}

TEST(SinkTest, AbsorbMergesCountersBucketsAndAppendsRecords) {
    CampaignSink parent{kFull};
    parent.emit(EventKind::rach_attempt, 0, 1, 0, 0);

    CampaignSink child_a{kFull, /*stratum=*/0};
    child_a.emit(EventKind::rach_attempt, 150, 2, 0, 0);
    CampaignSink child_b{kFull, /*stratum=*/1};
    child_b.emit(EventKind::rach_collision, 10, 3, 5, 2);

    parent.absorb(child_a);
    parent.absorb(child_b);

    EXPECT_EQ(parent.counter(EventKind::rach_attempt), 2u);
    EXPECT_EQ(parent.counter(EventKind::rach_collision), 1u);
    ASSERT_EQ(parent.records().size(), 3u);
    // Records append in absorb order; children keep their stratum tag.
    EXPECT_EQ(parent.records()[1].stratum, 0);
    EXPECT_EQ(parent.records()[2].stratum, 1);
    const std::vector<std::uint64_t>& buckets =
        parent.series(EventKind::rach_attempt);
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[0], 1u);
    EXPECT_EQ(buckets[1], 1u);
}

TEST(SinkTest, EmitMacroSkipsArgumentEvaluationWhenSinkIsNull) {
    CampaignSink* sink = nullptr;
    bool evaluated = false;
    const auto payload = [&] {
        evaluated = true;
        return std::int64_t{1};
    };
    NBMG_TELEMETRY_EMIT(sink, EventKind::rach_attempt, 0, 0, payload(), 0);
    EXPECT_FALSE(evaluated);

    CampaignSink live{kFull};
    NBMG_TELEMETRY_EMIT(&live, EventKind::rach_attempt, 0, 0, payload(), 0);
    EXPECT_TRUE(evaluated);
    EXPECT_EQ(live.counter(EventKind::rach_attempt), 1u);
}

TEST(CollectorTest, SlotAddressingIsStableAndRunMajor) {
    Collector collector{kFull, /*runs=*/2, /*cells=*/3, {"unicast", "dr-sc"}};
    EXPECT_EQ(collector.runs(), 2u);
    EXPECT_EQ(collector.cells(), 3u);
    EXPECT_EQ(collector.campaigns(), 2u);
    EXPECT_EQ(collector.label(0), "unicast");
    EXPECT_EQ(collector.label(1), "dr-sc");

    CampaignSink* sink = collector.sink(1, 2, 1);
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(sink, collector.sink(1, 2, 1));  // stable address
    sink->emit(EventKind::tx_multicast, 7, 9, 0, 0);
    EXPECT_EQ(collector.slot(1, 2, 1).counter(EventKind::tx_multicast), 1u);
    // Distinct slots are distinct sinks.
    EXPECT_EQ(collector.slot(0, 0, 0).records().size(), 0u);

    CampaignSink* city = collector.city_sink(0);
    ASSERT_NE(city, nullptr);
    city->emit(EventKind::backhaul_chunk, 0, 2, 40, 10);
    EXPECT_EQ(collector.city_slot(0).counter(EventKind::backhaul_chunk), 1u);
}

TEST(CollectorTest, RejectsEmptyDimensions) {
    EXPECT_THROW((Collector{kFull, 0, 1, {"unicast"}}), std::invalid_argument);
    EXPECT_THROW((Collector{kFull, 1, 0, {"unicast"}}), std::invalid_argument);
    EXPECT_THROW((Collector{kFull, 1, 1, {}}), std::invalid_argument);
}

TEST(ExportTest, TraceJsonlRendersOneRecordPerLineWithEscaping) {
    Collector collector{kFull, 1, 1, {R"(uni"cast)"}};
    collector.sink(0, 0, 0)->emit(EventKind::rach_attempt, 42, 7, 3, 5);
    collector.city_sink(0)->emit(EventKind::backhaul_chunk, 0, 0, 40, 10);
    const std::string jsonl = telemetry::trace_jsonl(collector);
    EXPECT_EQ(jsonl,
              "{\"run\":0,\"cell\":0,\"campaign\":\"uni\\\"cast\","
              "\"stratum\":-1,\"at\":42,\"kind\":\"rach_attempt\","
              "\"device\":7,\"a\":3,\"b\":5}\n"
              "{\"run\":0,\"cell\":0,\"campaign\":\"coordinator\","
              "\"stratum\":-1,\"at\":0,\"kind\":\"backhaul_chunk\","
              "\"device\":0,\"a\":40,\"b\":10}\n");
}

TEST(ExportTest, MetricsTableSumsAcrossRunsAndCells) {
    Collector collector{kFull, 2, 2, {"unicast"}};
    collector.sink(0, 0, 0)->emit(EventKind::rach_attempt, 0, 1, 0, 0);
    collector.sink(0, 1, 0)->emit(EventKind::rach_attempt, 0, 1, 0, 0);
    collector.sink(1, 0, 0)->emit(EventKind::rach_attempt, 150, 1, 0, 0);
    const std::string csv = telemetry::metrics_table(collector).to_csv();
    EXPECT_NE(csv.find("campaign,metric,window_start_ms,value"),
              std::string::npos)
        << csv;
    // Counter row: three attempts summed across (run, cell) slots.
    EXPECT_NE(csv.find("unicast,rach_attempt,-,3"), std::string::npos) << csv;
    // Series rows: two in bucket [0, 100), one in bucket [100, 200).
    EXPECT_NE(csv.find("unicast,rach_attempt,0,2"), std::string::npos) << csv;
    EXPECT_NE(csv.find("unicast,rach_attempt,100,1"), std::string::npos) << csv;
}

TEST(ExportTest, TimelineCarriesSpansMetadataAndSentinel) {
    Collector collector{kFull, 1, 1, {"unicast"}};
    // campaign_span: a = devices, b = horizon (ms).
    collector.sink(0, 0, 0)->emit_span(EventKind::campaign_span,
                                       telemetry::kNoStratum, 40, 5000);
    collector.city_sink(0)->emit(EventKind::backhaul_chunk, 0, 0, 80, 40);
    const std::string json = telemetry::timeline_json(collector);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\":\"cell 0\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\":\"backhaul feed\""), std::string::npos)
        << json;
    // The campaign slice: ts/dur are microseconds (ms * 1000).
    EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":0,\"tid\":1,"
                        "\"name\":\"unicast\",\"ts\":0,\"dur\":5000000,"
                        "\"args\":{\"devices\":40}}"),
              std::string::npos)
        << json;
    // Valid JSON array: the sentinel terminates the trailing commas.
    EXPECT_NE(json.find("\"trace_end\""), std::string::npos) << json;
}

/// A small single-cell spec; runs in well under a second.
scenario::ScenarioSpec small_spec(scenario::TelemetrySpec telemetry = {}) {
    return scenario::ScenarioSpec{.name = "telemetry-test",
                                  .device_count = 40,
                                  .payload_bytes = 50 * 1024,
                                  .config = {.inactivity_timer = nbiot::SimTime{10'000}},
                                  .runs = 2,
                                  .base_seed = 42,
                                  .telemetry = std::move(telemetry)};
}

const scenario::TelemetrySpec kFullTelemetry{.trace = true, .metrics = true};

TEST(ScenarioTelemetryTest, MetricsCollectionNeverPerturbsResults) {
    const scenario::ScenarioResult off = scenario::run_scenario(small_spec());
    const scenario::ScenarioResult on = scenario::run_scenario(small_spec(kFullTelemetry));
    ASSERT_TRUE(on.telemetry.has_value());
    EXPECT_FALSE(off.telemetry.has_value());
    // Bit-identical summary: telemetry is purely observational.
    EXPECT_EQ(off.summary_csv(), on.summary_csv());
    EXPECT_GT(on.telemetry->trace_jsonl.size(), 0u);
    ASSERT_TRUE(on.telemetry->metrics.has_value());
}

TEST(ScenarioTelemetryTest, ArtifactsBitIdenticalAcrossThreadsAndStrata) {
    // Strata are semantic (they add stratum tags and span records), so the
    // golden is per strata count; thread count must never matter.
    for (const std::size_t strata : {std::size_t{1}, std::size_t{8}}) {
        const auto run_with = [&](std::size_t threads) {
            scenario::ScenarioSpec spec = small_spec(kFullTelemetry);
            spec.config.strata = strata;
            spec.threads = threads;
            return scenario::run_scenario(spec);
        };
        const scenario::ScenarioResult one = run_with(1);
        const scenario::ScenarioResult eight = run_with(8);
        ASSERT_TRUE(one.telemetry && eight.telemetry);
        EXPECT_EQ(one.telemetry->trace_jsonl, eight.telemetry->trace_jsonl)
            << "strata=" << strata;
        EXPECT_EQ(one.telemetry->metrics->to_csv(),
                  eight.telemetry->metrics->to_csv())
            << "strata=" << strata;
        EXPECT_EQ(one.summary_csv(), eight.summary_csv())
            << "strata=" << strata;
    }
}

TEST(ScenarioTelemetryDeathTest, UnwritableTraceOutExitsWithUsageError) {
    const scenario::ScenarioSpec spec =
        small_spec({.trace = true, .trace_out = "/nonexistent_nbmg_dir/trace.jsonl"});
    EXPECT_EXIT((void)scenario::run_scenario_or_exit(spec),
                ::testing::ExitedWithCode(2), "error:");
}

}  // namespace
}  // namespace nbmg
