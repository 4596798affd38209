// Strict scenario-file parsing: good files parse to the expected spec;
// unknown keys, duplicate keys and type mismatches all throw a
// ScenarioError naming the offending source:line.  These throw tests sit
// alongside the bench_util flag death tests (tests/bench/) — same
// contract, different entry point.
#include "scenario/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nbmg::scenario {
namespace {

/// Expects parse_scenario_text to throw and the message to contain every
/// fragment (in particular the "source:line" prefix).
void expect_parse_error(const std::string& text,
                        std::initializer_list<const char*> fragments) {
    try {
        (void)parse_scenario_text(text, "test.scenario");
        FAIL() << "expected ScenarioError for:\n" << text;
    } catch (const ScenarioError& error) {
        const std::string what = error.what();
        for (const char* fragment : fragments) {
            EXPECT_NE(what.find(fragment), std::string::npos)
                << "missing '" << fragment << "' in: " << what;
        }
    }
}

TEST(ScenarioParserTest, ParsesFullScenario) {
    const ScenarioSpec spec = parse_scenario_text(
        "# comment\n"
        "name = parsed\n"
        "profile = meter_heavy\n"
        "devices = 250\n"
        "payload_kb = 1024\n"
        "runs = 12\n"
        "seed = 0\n"
        "threads = 4\n"
        "mechanisms = dr-si , sc-ptm\n"
        "ti_ms = 30000\n"
        "include_inactivity_tail = true\n"
        "page_miss_prob = 0.125\n"
        "background_ra_per_second = 12.5\n"
        "max_page_records = 2\n",
        "good.scenario");
    EXPECT_EQ(spec.name, "parsed");
    EXPECT_EQ(spec.profile.name, "meter_heavy");
    EXPECT_EQ(spec.device_count, 250u);
    EXPECT_EQ(spec.payload_bytes, 1024 * 1024);
    EXPECT_EQ(spec.runs, 12u);
    EXPECT_EQ(spec.base_seed, 0u);
    EXPECT_EQ(spec.threads, 4u);
    const std::vector<core::MechanismKind> expected{core::MechanismKind::dr_si,
                                                    core::MechanismKind::sc_ptm};
    EXPECT_EQ(spec.mechanisms, expected);
    EXPECT_EQ(spec.config.inactivity_timer.count(), 30'000);
    EXPECT_TRUE(spec.config.include_inactivity_tail);
    EXPECT_EQ(spec.config.page_miss_prob, 0.125);
    EXPECT_EQ(spec.config.background_ra_per_second, 12.5);
    EXPECT_EQ(spec.config.paging.max_page_records, 2);
    EXPECT_FALSE(spec.is_multicell());
}

TEST(ScenarioParserTest, ParsesMulticellKeysInAnyOrder) {
    const ScenarioSpec spec = parse_scenario_text(
        "assignment = class-affinity\n"
        "hotspot_exponent = 0.5\n"
        "devices = 600\n"
        "topology = hotspot\n"
        "cells = 9\n",
        "multicell.scenario");
    ASSERT_TRUE(spec.is_multicell());
    EXPECT_EQ(spec.topology->cells, 9u);
    EXPECT_EQ(spec.topology->kind, TopologySpec::Kind::hotspot);
    EXPECT_EQ(spec.topology->hotspot_exponent, 0.5);
    EXPECT_EQ(spec.assignment, multicell::AssignmentPolicy::class_affinity);
}

TEST(ScenarioParserTest, UnknownKeyNamesTheLine) {
    expect_parse_error("devices = 10\nfrobnicate = 3\n",
                       {"test.scenario:2", "unknown key 'frobnicate'"});
}

TEST(ScenarioParserTest, DuplicateKeyNamesBothLines) {
    expect_parse_error("runs = 3\ndevices = 10\nruns = 5\n",
                       {"test.scenario:3", "duplicate key 'runs'",
                        "first set on line 1"});
}

TEST(ScenarioParserTest, PayloadSpellingsAliasToOneKey) {
    expect_parse_error("payload_kb = 100\npayload_bytes = 4096\n",
                       {"test.scenario:2", "duplicate key 'payload_bytes'"});
}

TEST(ScenarioParserTest, TypeMismatchNamesTheLine) {
    expect_parse_error("devices = ten\n",
                       {"test.scenario:1", "bad value 'ten' for key 'devices'",
                        "not a decimal integer"});
    expect_parse_error("runs = 0\n", {"test.scenario:1", "must be >= 1"});
    expect_parse_error("seed = -3\n", {"test.scenario:1", "bad value '-3'"});
    expect_parse_error("page_miss_prob = huge\n",
                       {"test.scenario:1", "not a number"});
    expect_parse_error("page_miss_prob = 1.5\n",
                       {"test.scenario:1", "must be in [0, 1)"});
    // strtod would happily parse these; the strict parser must not.
    expect_parse_error("batch_mean = inf\n",
                       {"test.scenario:1", "not a finite number"});
    expect_parse_error("batch_mean = nan\n",
                       {"test.scenario:1", "not a finite number"});
    expect_parse_error("background_ra_per_second = inf\n",
                       {"test.scenario:1", "not a finite number"});
    expect_parse_error("include_inactivity_tail = maybe\n",
                       {"test.scenario:1", "expected true | false"});
    // Values that would wrap when multiplied (payload_kb) or narrowed to
    // int must fail at the line, not run a different experiment.
    expect_parse_error("payload_kb = 18014398509481985\n",
                       {"test.scenario:1", "value must be <= 9007199254740991"});
    expect_parse_error("max_page_records = 4294967312\n",
                       {"test.scenario:1", "value must be <= 2147483647"});
    expect_parse_error("max_page_attempts = 2147483648\n",
                       {"test.scenario:1", "value must be <= 2147483647"});
    expect_parse_error("ti_ms = 9223372036854775808\n",
                       {"test.scenario:1", "value must be <= 9223372036854775807"});
    expect_parse_error("ra_guard_ms = 9223372036854775808\n",
                       {"test.scenario:1", "value must be <= 9223372036854775807"});
    expect_parse_error("sc_ptm_mcch_period_ms = 9223372036854775808\n",
                       {"test.scenario:1", "value must be <= 9223372036854775807"});
    // A cell count past kMaxCells fails at its line, before the engine
    // sizes any per-cell state (it used to abort in vector::reserve or
    // die with bad_alloc).
    const std::string cells_bound = "value must be <= " + std::to_string(kMaxCells);
    expect_parse_error("cells = 9223372036854775000\n",
                       {"test.scenario:1", cells_bound.c_str()});
    expect_parse_error("cells = 4000000000\n", {"test.scenario:1", cells_bound.c_str()});
    // The same for the device and run counts: refused at the line instead
    // of aborting in the engine's reservations.
    const std::string devices_bound = "value must be <= " + std::to_string(kMaxDevices);
    expect_parse_error("devices = 9223372036854775808\n",
                       {"test.scenario:1", devices_bound.c_str()});
    expect_parse_error("devices = 100000000000\n", {"test.scenario:1", devices_bound.c_str()});
    expect_parse_error("devices = 10000001\n", {"test.scenario:1", devices_bound.c_str()});
    const std::string runs_bound = "value must be <= " + std::to_string(kMaxRuns);
    expect_parse_error("runs = 9223372036854775808\n", {"test.scenario:1", runs_bound.c_str()});
    expect_parse_error("runs = 100001\n", {"test.scenario:1", runs_bound.c_str()});
    EXPECT_EQ(parse_scenario_text("devices = 10000000\nruns = 100000\n").device_count,
              kMaxDevices);
    // Rows apply in table order, `when` before the value: without cells
    // the grid rule fires first.
    expect_parse_error("devices = 10\ntopology = ring\n",
                       {"test.scenario:2", "requires a multicell grid"});
    expect_parse_error("cells = 2\ntopology = ring\n",
                       {"test.scenario:2", "expected uniform | hotspot"});
    expect_parse_error("assignment = zipf\ncells = 2\n",
                       {"test.scenario:1", "class-affinity"});
}

TEST(ScenarioParserTest, MissingEqualsNamesTheLine) {
    expect_parse_error("devices 10\n",
                       {"test.scenario:1", "expected 'key = value'"});
}

TEST(ScenarioParserTest, UnknownMechanismAndProfileListAlternatives) {
    expect_parse_error("mechanisms = dr-sc,teleport\n",
                       {"test.scenario:1", "unknown mechanism 'teleport'",
                        "dr-sc"});
    expect_parse_error("profile = mars_rovers\n",
                       {"test.scenario:1", "unknown profile 'mars_rovers'",
                        "massive_iot_city"});
}

TEST(ScenarioParserTest, MulticellKeysWithoutCellsRejected) {
    expect_parse_error("devices = 10\ntopology = hotspot\n",
                       {"test.scenario:2", "requires a multicell grid"});
}

TEST(ScenarioParserTest, DeadKnobsRejected) {
    // A uniform grid has no exponent, and churn that is off has no rejoin
    // time: to_file_text would drop either, so the reload would differ.
    expect_parse_error("cells = 4\nhotspot_exponent = 2\n",
                       {"test.scenario:2",
                        "'hotspot_exponent' requires topology = hotspot"});
    expect_parse_error("topology = uniform\nhotspot_exponent = 2\ncells = 4\n",
                       {"test.scenario:2",
                        "'hotspot_exponent' requires topology = hotspot"});
    expect_parse_error("churn.leave_rate = 0\nchurn.rejoin_ms = 5\n",
                       {"test.scenario:2",
                        "'churn.rejoin_ms' requires 'churn.leave_rate' > 0"});
}

TEST(ScenarioParserTest, ParsesCoordinatorKeysInAnyOrder) {
    const ScenarioSpec staggered = parse_scenario_text(
        "coordinator.stagger_ms = 45000\n"
        "cells = 8\n"
        "coordinator = fixed-stagger\n",
        "staggered.scenario");
    ASSERT_TRUE(staggered.is_coordinated());
    EXPECT_EQ(staggered.coordinator->policy,
              multicell::StartPolicy::fixed_stagger);
    EXPECT_EQ(staggered.coordinator->stagger_ms, 45'000);

    const ScenarioSpec budgeted = parse_scenario_text(
        "cells = 4\n"
        "coordinator = backhaul\n"
        "coordinator.backhaul_kbps = 256.5\n",
        "backhaul.scenario");
    ASSERT_TRUE(budgeted.is_coordinated());
    EXPECT_EQ(budgeted.coordinator->policy,
              multicell::StartPolicy::backhaul_budgeted);
    EXPECT_EQ(budgeted.coordinator->backhaul_kbps, 256.5);

    const ScenarioSpec simultaneous = parse_scenario_text(
        "cells = 4\ncoordinator = simultaneous\n", "simultaneous.scenario");
    ASSERT_TRUE(simultaneous.is_coordinated());
    EXPECT_EQ(simultaneous.coordinator->policy,
              multicell::StartPolicy::simultaneous);
}

TEST(ScenarioParserTest, CoordinatorKeysValidatedAsAGroup) {
    // Unknown policy spelling, at its line.
    expect_parse_error("cells = 4\ncoordinator = staggered\n",
                       {"test.scenario:2",
                        "expected simultaneous | fixed-stagger | backhaul"});
    // Sub-keys without the policy key.
    expect_parse_error("cells = 4\ncoordinator.stagger_ms = 1000\n",
                       {"test.scenario:2", "requires coordinator = fixed-stagger"});
    // The coordinator needs a grid to schedule.
    expect_parse_error("devices = 10\ncoordinator = simultaneous\n",
                       {"test.scenario:2", "requires a multicell grid"});
    // Policy-scoped knobs on the wrong policy, at the knob's line.
    expect_parse_error(
        "cells = 4\ncoordinator = fixed-stagger\n"
        "coordinator.stagger_ms = 10\ncoordinator.backhaul_kbps = 8\n",
        {"test.scenario:4", "requires coordinator = backhaul"});
    expect_parse_error(
        "cells = 4\ncoordinator = backhaul\n"
        "coordinator.backhaul_kbps = 8\ncoordinator.stagger_ms = 10\n",
        {"test.scenario:4", "requires coordinator = fixed-stagger"});
    expect_parse_error("cells = 4\ncoordinator = simultaneous\n"
                       "coordinator.stagger_ms = 10\n",
                       {"test.scenario:3", "requires coordinator = fixed-stagger"});
    // Required knobs missing.
    expect_parse_error("cells = 4\ncoordinator = fixed-stagger\n",
                       {"test.scenario:2", "requires", "stagger_ms"});
    expect_parse_error("cells = 4\ncoordinator = backhaul\n",
                       {"test.scenario:2", "requires", "backhaul_kbps"});
    // Knob values.
    expect_parse_error("cells = 4\ncoordinator = backhaul\n"
                       "coordinator.backhaul_kbps = 0\n",
                       {"test.scenario:3", "must be > 0"});
    expect_parse_error("cells = 4\ncoordinator = backhaul\n"
                       "coordinator.backhaul_kbps = inf\n",
                       {"test.scenario:3", "not a finite number"});
    expect_parse_error("cells = 4\ncoordinator = fixed-stagger\n"
                       "coordinator.stagger_ms = 9223372036854775808\n",
                       {"test.scenario:3", "value must be <= 9223372036854775807"});
}

TEST(ScenarioParserTest, ParsesTelemetryKeysInAnyOrder) {
    const ScenarioSpec full = parse_scenario_text(
        "trace_out = out/trace.jsonl\n"
        "devices = 10\n"
        "telemetry = full\n"
        "telemetry.bucket_ms = 500\n"
        "metrics_out = out/metrics.csv\n"
        "timeline_out = out/timeline.json\n",
        "telemetry.scenario");
    EXPECT_TRUE(full.telemetry.trace);
    EXPECT_TRUE(full.telemetry.metrics);
    EXPECT_EQ(full.telemetry.bucket_ms, 500);
    EXPECT_EQ(full.telemetry.trace_out, "out/trace.jsonl");
    EXPECT_EQ(full.telemetry.metrics_out, "out/metrics.csv");
    EXPECT_EQ(full.telemetry.timeline_out, "out/timeline.json");

    const ScenarioSpec trace_only =
        parse_scenario_text("telemetry = trace\n", "t.scenario");
    EXPECT_TRUE(trace_only.telemetry.trace);
    EXPECT_FALSE(trace_only.telemetry.metrics);
    EXPECT_EQ(trace_only.telemetry.bucket_ms, 60'000);  // default kept

    const ScenarioSpec off =
        parse_scenario_text("telemetry = off\n", "off.scenario");
    EXPECT_FALSE(off.telemetry.enabled());
}

TEST(ScenarioParserTest, TelemetryKeysValidatedAsAGroup) {
    // Unknown mode spelling, at its line.
    expect_parse_error("devices = 10\ntelemetry = everything\n",
                       {"test.scenario:2",
                        "expected off | trace | metrics | full"});
    // Output paths without the matching mode, at the path's line.
    expect_parse_error("trace_out = x.jsonl\n",
                       {"test.scenario:1",
                        "'trace_out' requires telemetry = trace or full"});
    expect_parse_error(
        "telemetry = metrics\ntimeline_out = t.json\n",
        {"test.scenario:2",
         "'timeline_out' requires telemetry = trace or full"});
    expect_parse_error(
        "telemetry = trace\nmetrics_out = m.csv\n",
        {"test.scenario:2",
         "'metrics_out' requires telemetry = metrics or full"});
    // Bucket width without any enabled mode, and out-of-domain widths.
    expect_parse_error("telemetry.bucket_ms = 100\n",
                       {"test.scenario:1", "requires an enabled telemetry"});
    expect_parse_error("telemetry = full\ntelemetry.bucket_ms = 0\n",
                       {"test.scenario:2", "must be >= 1"});
    // Empty output paths.
    expect_parse_error("telemetry = full\nmetrics_out =\n",
                       {"test.scenario:2", "empty path"});
}

TEST(ScenarioParserTest, ParsesCheckpointKeysInAnyOrder) {
    const ScenarioSpec spec = parse_scenario_text(
        "checkpoint.every_ms = 5000\n"
        "devices = 10\n"
        "checkpoint.out = out/run.snapshot\n"
        "checkpoint.stop_after = 3\n"
        "checkpoint.resume = out/prev.snapshot\n",
        "checkpoint.scenario");
    EXPECT_EQ(spec.checkpoint.out, "out/run.snapshot");
    EXPECT_EQ(spec.checkpoint.every_ms, 5000);
    EXPECT_EQ(spec.checkpoint.stop_after, 3u);
    EXPECT_EQ(spec.checkpoint.resume, "out/prev.snapshot");
    EXPECT_TRUE(spec.checkpoint.enabled());

    const ScenarioSpec resume_only = parse_scenario_text(
        "checkpoint.resume = prev.snapshot\n", "resume.scenario");
    EXPECT_TRUE(resume_only.checkpoint.out.empty());
    EXPECT_EQ(resume_only.checkpoint.every_ms, 0);  // default kept
    EXPECT_EQ(resume_only.checkpoint.resume, "prev.snapshot");
}

TEST(ScenarioParserTest, CheckpointRoundTripsThroughFileText) {
    const ScenarioSpec spec{.checkpoint = {.out = "out/run.snapshot",
                                           .every_ms = 120'000,
                                           .stop_after = 9,
                                           .resume = "out/prev.snapshot"}};
    const ScenarioSpec reparsed =
        parse_scenario_text(spec.to_file_text(), "roundtrip.scenario");
    EXPECT_EQ(reparsed.checkpoint, spec.checkpoint);

    // A checkpoint-off spec emits no checkpoint keys at all.
    EXPECT_EQ(ScenarioSpec{}.to_file_text().find("checkpoint"),
              std::string::npos);
}

TEST(ScenarioParserTest, CheckpointKeysValidatedAsAGroup) {
    // The sub-keys need a snapshot path, reported at the sub-key's line.
    expect_parse_error("devices = 10\ncheckpoint.every_ms = 100\n",
                       {"test.scenario:2",
                        "'checkpoint.every_ms' requires a snapshot path"});
    expect_parse_error("checkpoint.stop_after = 2\ndevices = 10\n",
                       {"test.scenario:1",
                        "'checkpoint.stop_after' requires a snapshot path"});
    // Value domains: an explicit throttle/budget must be >= 1 (0, the
    // default, is expressed by omitting the key).
    expect_parse_error("checkpoint.out = s.bin\ncheckpoint.every_ms = 0\n",
                       {"test.scenario:2", "must be >= 1"});
    expect_parse_error("checkpoint.out = s.bin\ncheckpoint.stop_after = 0\n",
                       {"test.scenario:2", "must be >= 1"});
    expect_parse_error(
        "checkpoint.out = s.bin\n"
        "checkpoint.every_ms = 9223372036854775808\n",
        {"test.scenario:2", "value must be <= 9223372036854775807"});
    // Empty paths.
    expect_parse_error("checkpoint.out =\n", {"test.scenario:1", "empty path"});
    expect_parse_error("checkpoint.resume =\n",
                       {"test.scenario:1", "empty path"});
}

TEST(ScenarioParserTest, InvalidAssembledSpecRejectedWithSourceName) {
    // Parses line by line but fails whole-spec validation (empty mechanisms
    // cannot be expressed, so use a config contradiction instead).
    expect_parse_error("devices = 10\nra_guard_ms = 0\nti_ms = 1\nruns = 1\n"
                       "max_page_attempts = 1\nsc_ptm_mcch_period_ms = 1\n"
                       "page_miss_prob = 0.999999\nbatch_mean = 0.5\n",
                       {"test.scenario", "batch_mean"});
}

TEST(ScenarioParserTest, MissingFileThrows) {
    EXPECT_THROW((void)load_scenario_file("/definitely/not/here.scenario"),
                 ScenarioError);
}

TEST(ScenarioParserTest, ParsesFaultKeysInAnyOrder) {
    const ScenarioSpec spec = parse_scenario_text(
        "churn.rejoin_ms = 120000\n"
        "cells = 4\n"
        "faults.cell_down = 3@600000\n"
        "coordinator = backhaul\n"
        "coordinator.backhaul_kbps = 256\n"
        "faults.backhaul_loss = 0.1\n"
        "churn.leave_rate = 2\n",
        "faulted.scenario");
    EXPECT_EQ(spec.config.churn.leave_rate, 2.0);
    EXPECT_EQ(spec.config.churn.rejoin_ms, 120'000);
    ASSERT_TRUE(spec.cell_down.has_value());
    EXPECT_EQ(spec.cell_down->cell, 3u);
    EXPECT_EQ(spec.cell_down->at_ms, 600'000);
    ASSERT_TRUE(spec.is_coordinated());
    EXPECT_EQ(spec.coordinator->loss_prob, 0.1);
    EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioParserTest, FaultKeysValidatedAsAGroup) {
    expect_parse_error("churn.rejoin_ms = 1000\n",
                       {"'churn.rejoin_ms' requires 'churn.leave_rate'"});
    expect_parse_error("churn.leave_rate = -2\n",
                       {"test.scenario:1", "must be >= 0"});
    expect_parse_error("churn.leave_rate = 2\nchurn.rejoin_ms = 0\n",
                       {"test.scenario:2", "must be >= 1"});
    expect_parse_error("devices = 10\nfaults.cell_down = 0@5\n",
                       {"requires a multicell grid"});
    expect_parse_error("cells = 4\nfaults.cell_down = 3@\n",
                       {"test.scenario:2", "expected CELL@T_MS"});
    expect_parse_error("cells = 4\nfaults.backhaul_loss = 0.1\n",
                       {"requires coordinator = backhaul"});
    expect_parse_error(
        "cells = 4\ncoordinator = backhaul\n"
        "coordinator.backhaul_kbps = 256\nfaults.backhaul_loss = 1\n",
        {"test.scenario:4", "must be in [0, 1)"});
}

TEST(ScenarioParserTest, HexFloatTokensRejectedInFiles) {
    // strtod accepts C99 hex-float tokens ('0x10' = 16.0, '0X1p-3' =
    // 0.125); the strict grammar must reject them at every numeric key.
    expect_parse_error("page_miss_prob = 0x1p-3\n",
                       {"test.scenario:1", "not a number"});
    expect_parse_error("page_miss_prob = 0X10\n",
                       {"test.scenario:1", "not a number"});
    expect_parse_error("churn.leave_rate = 0x10\n",
                       {"test.scenario:1", "not a number"});
    expect_parse_error("batch_mean = 1x\n",
                       {"test.scenario:1", "not a number"});
    expect_parse_error("devices = 0x10\n",
                       {"test.scenario:1", "not a decimal integer"});
}

}  // namespace
}  // namespace nbmg::scenario
