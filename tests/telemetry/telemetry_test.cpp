// Tier-1 coverage for the telemetry subsystem: CampaignSink recording and
// stratum-order merge, the zero-cost emission macro, Collector slot
// addressing, the three exporters (JSONL trace, metrics table, Chrome
// timeline), and the scenario-level invariants — telemetry never perturbs
// results, artifacts are a pure function of (spec, seed) at any
// --threads/--strata, and unwritable output paths are a usage error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"
#include "tests/support/same_render.hpp"

namespace nbmg {
namespace {

using telemetry::CampaignSink;
using telemetry::Collector;
using telemetry::EventKind;
using telemetry::TelemetryConfig;
using telemetry::TraceRecord;
using test_support::same_render;

constexpr TelemetryConfig kFull{.trace = true, .metrics = true,
                                .bucket_ms = 100};

// --- The trace render's oracle: the per-field std::to_string renderer that
// trace_jsonl replaced, kept here so the exact-size parallel render is
// checked against it byte for byte.

void append_escaped(std::string& out, const std::string& text) {
    for (const char ch : text) {
        if (ch == '"' || ch == '\\') out.push_back('\\');
        out.push_back(ch);
    }
}

void append_record_line(std::string& out, std::size_t run, std::int64_t cell,
                        const std::string& campaign, const TraceRecord& record) {
    out += "{\"run\":";
    out += std::to_string(run);
    out += ",\"cell\":";
    out += std::to_string(cell);
    out += ",\"campaign\":\"";
    append_escaped(out, campaign);
    out += "\",\"stratum\":";
    out += record.stratum == telemetry::kNoStratum ? "-1" : std::to_string(record.stratum);
    out += ",\"at\":";
    out += std::to_string(record.at_ms);
    out += ",\"kind\":\"";
    out += telemetry::to_string(record.kind);
    out += "\",\"device\":";
    out += record.device == telemetry::kNoDevice
               ? "-1"
               : std::to_string(static_cast<std::int64_t>(record.device));
    out += ",\"a\":";
    out += std::to_string(record.a);
    out += ",\"b\":";
    out += std::to_string(record.b);
    out += "}\n";
}

std::string reference_trace_jsonl(const Collector& collector) {
    std::string out;
    for (std::size_t run = 0; run < collector.runs(); ++run) {
        for (std::size_t cell = 0; cell < collector.cells(); ++cell) {
            for (std::size_t k = 0; k < collector.campaigns(); ++k) {
                for (const TraceRecord& record : collector.slot(run, cell, k).records()) {
                    append_record_line(out, run, static_cast<std::int64_t>(cell),
                                       collector.label(k), record);
                }
            }
        }
        for (const TraceRecord& record : collector.city_slot(run).records()) {
            append_record_line(out, run,
                               record.device == telemetry::kNoDevice
                                   ? -1
                                   : static_cast<std::int64_t>(record.device),
                               "coordinator", record);
        }
    }
    return out;
}

/// Fills a sink's trace with exactly `records`.
void fill(CampaignSink* sink, std::vector<TraceRecord> records) {
    sink->restore(std::move(records), {}, {});
}

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

TEST(ExportTest, TraceJsonlMatchesReferenceAtExtremeValuesAndAnyWidth) {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::vector<std::int64_t> values = {kMin,  kMin + 1, -100, -10, -9, -1, 0,
                                              1,     9,        10,   99,  100, kMax - 1,
                                              kMax};
    const std::vector<std::uint32_t> devices = {0, 7, 0xFFFF'FFFEU, telemetry::kNoDevice};
    const std::vector<std::uint16_t> strata = {0, 9, 0xFFFE, telemetry::kNoStratum};
    // Record i walks every kind, device, stratum and (at, a, b) value.
    const auto records = [&](std::size_t count, std::size_t seed) {
        std::vector<TraceRecord> out;
        for (std::size_t i = seed; i < seed + count; ++i) {
            out.push_back(TraceRecord{
                .at_ms = values[i % values.size()],
                .a = values[(i / 3) % values.size()],
                .b = values[(i / 5) % values.size()],
                .device = devices[(i / 7) % devices.size()],
                .stratum = strata[(i / 11) % strata.size()],
                .kind = static_cast<EventKind>(i % telemetry::kEventKindCount)});
        }
        return out;
    };
    // 2 runs x 2 cells x 2 campaigns, an escaped label, empty slots, and
    // about 2.1 ranges of records cut inside slots.
    Collector collector{kFull, 2, 2, {R"(uni"ca\st)", "dr-sc"}};
    fill(collector.sink(0, 0, 0), records(20'000, 0));
    fill(collector.sink(0, 1, 0), records(1, 3));
    fill(collector.sink(0, 1, 1), records(15'000, 5));
    fill(collector.sink(1, 1, 1), records(33'000, 17));
    // City records carry the cell in the device field, kNoDevice as -1.
    std::vector<TraceRecord> city = records(300, 1);
    for (std::size_t i = 0; i < city.size(); ++i) {
        city[i].kind = EventKind::backhaul_chunk;
        city[i].device = devices[i % devices.size()];
    }
    fill(collector.city_sink(0), city);

    const std::string reference = reference_trace_jsonl(collector);
    ASSERT_EQ(std::count(reference.begin(), reference.end(), '\n'), 68'301);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                      std::size_t{8}}) {
        EXPECT_TRUE(same_render(telemetry::trace_jsonl(collector, threads), reference))
            << "threads=" << threads;
    }
    // The one-argument call renders serially.
    EXPECT_TRUE(same_render(telemetry::trace_jsonl(collector), reference));
}

TEST(ExportTest, TraceJsonlCutsInsideAndBetweenSlotsAtAnyWidth) {
    // One run, one cell: a slot of 3 ranges and 7 records, then a second
    // campaign slot of a few records, so ranges end inside the first slot
    // and the last one crosses into the second.
    Collector collector{kFull, 1, 1, {"unicast", "dr-sc"}};
    std::vector<TraceRecord> big;
    constexpr std::size_t kRange = telemetry::kTraceRangeRecords;
    for (std::size_t i = 0; i < 3 * kRange + 7; ++i) {
        const auto n = static_cast<std::int64_t>(i);
        big.push_back(TraceRecord{.at_ms = n,
                                  .a = n * 7 - 3,
                                  .b = -n,
                                  .device = static_cast<std::uint32_t>(i % 1000),
                                  .kind = EventKind::rach_attempt});
    }
    fill(collector.sink(0, 0, 0), std::move(big));
    for (std::int64_t i = 0; i < 5; ++i) {
        collector.sink(0, 0, 1)->emit(EventKind::tx_multicast, i, 3, i, 2);
    }
    const std::string serial = telemetry::trace_jsonl(collector, 1);
    EXPECT_TRUE(same_render(telemetry::trace_jsonl(collector, 8), serial));
    EXPECT_TRUE(same_render(serial, reference_trace_jsonl(collector)));
}

TEST(ExportTest, TraceJsonlOfAnEmptyCollectorIsEmptyAtAnyWidth) {
    const Collector collector{kFull, 2, 3, {"unicast", "dr-sc"}};
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
        EXPECT_EQ(telemetry::trace_jsonl(collector, threads), "") << "threads=" << threads;
        std::ostringstream streamed;
        telemetry::write_trace_jsonl(streamed, collector, threads);
        EXPECT_EQ(streamed.str(), "") << "threads=" << threads;
    }
}

TEST(ExportTest, StreamedTraceEqualsTheOneWindowRenderAtAnyWidth) {
    // Two windows and 7 records in one slot, then a second campaign slot:
    // the third window starts inside the first slot and crosses into the
    // second.
    Collector collector{kFull, 1, 1, {"unicast", "dr-sc"}};
    std::vector<TraceRecord> big;
    for (std::size_t i = 0; i < 2 * telemetry::kTraceWindowRecords + 7; ++i) {
        const auto n = static_cast<std::int64_t>(i);
        big.push_back(TraceRecord{.at_ms = n,
                                  .a = -n,
                                  .b = n % 1000,
                                  .device = static_cast<std::uint32_t>(i % 4000),
                                  .kind = EventKind::page_delivered});
    }
    fill(collector.sink(0, 0, 0), std::move(big));
    for (std::int64_t i = 0; i < 5; ++i) {
        collector.sink(0, 0, 1)->emit(EventKind::tx_multicast, i, 3, i, 2);
    }
    const std::string whole = telemetry::trace_jsonl(collector, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        std::ostringstream streamed;
        telemetry::write_trace_jsonl(streamed, collector, threads);
        EXPECT_TRUE(same_render(streamed.str(), whole)) << "threads=" << threads;
    }
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
    EXPECT_GT(on.telemetry->trace_jsonl.str().size(), 0u);
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
        EXPECT_EQ(one.telemetry->trace_jsonl.str(), eight.telemetry->trace_jsonl.str())
            << "strata=" << strata;
        EXPECT_EQ(one.telemetry->metrics->to_csv(),
                  eight.telemetry->metrics->to_csv())
            << "strata=" << strata;
        EXPECT_EQ(one.summary_csv(), eight.summary_csv())
            << "strata=" << strata;
    }
}

TEST(ScenarioTelemetryTest, TraceOffReadsEmptyArtifacts) {
    const scenario::ScenarioResult result =
        scenario::run_scenario(small_spec({.metrics = true}));
    ASSERT_TRUE(result.telemetry.has_value());
    EXPECT_EQ(result.telemetry->trace_jsonl.str(), "");
    EXPECT_EQ(result.telemetry->timeline_json.str(), "");
    EXPECT_TRUE(result.telemetry->metrics.has_value());
}

/// A coordinated 16-cell run with the trace on: its timeline reads the
/// coordination's start times.
scenario::ScenarioSpec coordinated_spec() {
    scenario::ScenarioSpec spec = scenario::Registry::instance().preset("citywide-backhaul");
    spec.device_count = 200;
    spec.runs = 2;
    spec.telemetry = kFullTelemetry;
    return spec;
}

TEST(ScenarioTelemetryTest, ArtifactsRenderAfterTheResultMovesAndDies) {
    // Built in place (not through make_unique's temporary), so the heap
    // object is the result run_scenario filled.
    std::unique_ptr<scenario::ScenarioResult> original(
        new scenario::ScenarioResult(scenario::run_scenario(coordinated_spec())));
    ASSERT_TRUE(original->is_coordinated());
    const scenario::ScenarioResult moved = std::move(*original);
    ASSERT_TRUE(moved.telemetry.has_value());
    const Collector& collector = *moved.telemetry->collector;
    const std::string trace = telemetry::trace_jsonl(collector);
    const std::string timeline = telemetry::timeline_json(collector, &*moved.coordination);

    EXPECT_TRUE(same_render(moved.telemetry->trace_jsonl.str(), trace));
    original.reset();
    EXPECT_TRUE(same_render(moved.telemetry->trace_jsonl.str(), trace));
    // The timeline's first read, after the result it came from is gone.
    EXPECT_EQ(moved.telemetry->timeline_json.str(), timeline);
}

TEST(ScenarioTelemetryTest, CopiesShareOneRender) {
    const scenario::ScenarioResult result = scenario::run_scenario(coordinated_spec());
    ASSERT_TRUE(result.telemetry.has_value());
    const scenario::TelemetryReport copy = *result.telemetry;
    EXPECT_EQ(&copy.trace_jsonl.str(), &result.telemetry->trace_jsonl.str());
    EXPECT_EQ(&copy.timeline_json.str(), &result.telemetry->timeline_json.str());
}

TEST(ScenarioTelemetryTest, ConcurrentReadsGetTheOneRender) {
    const scenario::ScenarioResult result = scenario::run_scenario(coordinated_spec());
    ASSERT_TRUE(result.telemetry.has_value());
    const scenario::TelemetryReport& report = *result.telemetry;
    constexpr std::size_t kReaders = 4;
    std::vector<const std::string*> traces(kReaders);
    std::vector<const std::string*> timelines(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < kReaders; ++i) {
        readers.emplace_back([&, i] {
            traces[i] = &report.trace_jsonl.str();
            timelines[i] = &report.timeline_json.str();
        });
    }
    for (std::thread& reader : readers) reader.join();
    for (std::size_t i = 1; i < kReaders; ++i) {
        EXPECT_EQ(traces[i], traces[0]) << "reader " << i;
        EXPECT_EQ(timelines[i], timelines[0]) << "reader " << i;
    }
    EXPECT_TRUE(same_render(*traces[0], telemetry::trace_jsonl(*report.collector)));
    EXPECT_EQ(*timelines[0], telemetry::timeline_json(*report.collector, &*result.coordination));
}

TEST(ScenarioTelemetryDeathTest, UnwritableTraceOutExitsWithUsageError) {
    const scenario::ScenarioSpec spec =
        small_spec({.trace = true, .trace_out = "/nonexistent_nbmg_dir/trace.jsonl"});
    EXPECT_EXIT((void)scenario::run_scenario_or_exit(spec),
                ::testing::ExitedWithCode(2), "error:");
}

}  // namespace
}  // namespace nbmg
