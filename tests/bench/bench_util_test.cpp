// Unit coverage for the bench harness flag parsing, in particular the
// multicell --cells/--assignment flags: absent flags fall back, valid
// values parse, and every malformed spelling exits with the usage status
// (2) instead of silently using a default.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <string>

#include "scenario/registry.hpp"

namespace nbmg::bench {
namespace {

/// argv builder: argv[0] is the program name, the rest the given tokens.
template <std::size_t N>
struct Args {
    std::array<const char*, N + 1> tokens;
    int argc = static_cast<int>(N + 1);

    explicit Args(const std::array<const char*, N>& rest) {
        tokens[0] = "bench_test";
        for (std::size_t i = 0; i < N; ++i) tokens[i + 1] = rest[i];
    }
    [[nodiscard]] char** argv() {
        return const_cast<char**>(tokens.data());
    }
};

TEST(BenchFlagTest, AbsentFlagsFallBack) {
    Args<0> args({});
    EXPECT_EQ(flag_value(args.argc, args.argv(), "--runs", 50), 50u);
    EXPECT_EQ(flag_u64(args.argc, args.argv(), "--seed", 42), 42u);
    // Without --cells / --assignment the base spec's grid and policy stand.
    Args<0> none({});
    EXPECT_EQ(spec_from_args(none.argc, none.argv(), "fig6a").cell_count(), 1u);
    const scenario::ScenarioSpec city =
        spec_from_args(none.argc, none.argv(), "citywide");
    EXPECT_EQ(city.cell_count(), 16u);
    EXPECT_EQ(city.assignment, multicell::AssignmentPolicy::uniform_hash);
    EXPECT_EQ(spec_from_args(none.argc, none.argv(),
                             {.topology = scenario::TopologySpec{.cells = 4},
                              .assignment = multicell::AssignmentPolicy::hotspot})
                  .assignment,
              multicell::AssignmentPolicy::hotspot);
}

TEST(BenchFlagTest, ValidValuesParse) {
    Args<4> cells({"--cells", "64", "--seed", "0"});
    EXPECT_EQ(spec_from_args(cells.argc, cells.argv(), "fig6a").cell_count(), 64u);
    EXPECT_EQ(flag_u64(cells.argc, cells.argv(), "--seed", 42), 0u);

    Args<2> uniform({"--assignment", "uniform"});
    EXPECT_EQ(spec_from_args(uniform.argc, uniform.argv(), "citywide").assignment,
              multicell::AssignmentPolicy::uniform_hash);
    Args<2> hotspot({"--assignment", "hotspot"});
    EXPECT_EQ(spec_from_args(hotspot.argc, hotspot.argv(), "citywide").assignment,
              multicell::AssignmentPolicy::hotspot);
    Args<2> affinity({"--assignment", "class-affinity"});
    EXPECT_EQ(spec_from_args(affinity.argc, affinity.argv(), "citywide").assignment,
              multicell::AssignmentPolicy::class_affinity);

    // The device, run and thread caps themselves are accepted.
    Args<6> at_cap({"--devices", "10000000", "--runs", "100000", "--threads", "1024"});
    const scenario::ScenarioSpec capped = spec_from_args(at_cap.argc, at_cap.argv(), "fig6a");
    EXPECT_EQ(capped.device_count, scenario::kMaxDevices);
    EXPECT_EQ(capped.runs, scenario::kMaxRuns);
    EXPECT_EQ(capped.threads, scenario::kMaxThreads);
    // So are the duration and payload caps.
    Args<6> durations_at_cap(
        {"--ti-ms", "1000000000", "--churn-rejoin-ms", "1000000000", "--payload-kb", "1048576"});
    const scenario::ScenarioSpec durations =
        spec_from_args(durations_at_cap.argc, durations_at_cap.argv(), "churn");
    EXPECT_EQ(durations.config.inactivity_timer.count(), scenario::kMaxDurationMs);
    EXPECT_EQ(durations.config.churn.rejoin_ms, scenario::kMaxDurationMs);
    EXPECT_EQ(durations.payload_bytes, scenario::kMaxPayloadBytes);
    Args<1> positional({"10000000"});
    EXPECT_EQ(positional_value(positional.argc, positional.argv(), 0, 1, 1,
                               scenario::kMaxDevices),
              scenario::kMaxDevices);
}

TEST(BenchFlagDeathTest, MalformedCellCountsRejected) {
    Args<2> zero({"--cells", "0"});
    EXPECT_EXIT((void)spec_from_args(zero.argc, zero.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "value must be >= 1");
    Args<2> junk({"--cells", "16x"});
    EXPECT_EXIT((void)spec_from_args(junk.argc, junk.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a decimal integer");
    Args<2> negative({"--cells", "-4"});
    EXPECT_EXIT((void)spec_from_args(negative.argc, negative.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "must be non-negative");
    Args<1> missing({"--cells"});
    EXPECT_EXIT((void)spec_from_args(missing.argc, missing.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "missing value");
    // Past kMaxCells: a usage error, not a length_error or bad_alloc abort.
    const std::string bound = "value must be <= " + std::to_string(scenario::kMaxCells);
    for (const char* cells : {"9223372036854775000", "4000000000"}) {
        Args<4> huge({"--preset", "citywide", "--cells", cells});
        EXPECT_EXIT((void)spec_from_args(huge.argc, huge.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2), bound);
    }
}

TEST(BenchFlagDeathTest, OversizedDeviceAndRunCountsRejected) {
    // Past kMaxDevices / kMaxRuns: a usage error, not a length_error from
    // vector::reserve or a bad_alloc abort.
    const std::string devices_bound =
        "value must be <= " + std::to_string(scenario::kMaxDevices);
    for (const char* devices : {"9223372036854775808", "100000000000", "10000001"}) {
        Args<4> huge({"--preset", "smoke", "--devices", devices});
        EXPECT_EXIT((void)spec_from_args(huge.argc, huge.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2), devices_bound);
    }
    Args<4> runs({"--preset", "smoke", "--runs", "9223372036854775808"});
    EXPECT_EXIT((void)spec_from_args(runs.argc, runs.argv(), "fig6a"),
                ::testing::ExitedWithCode(2),
                "value must be <= " + std::to_string(scenario::kMaxRuns));
    // The examples' positional device counts meet the same bound.
    Args<2> positional({"10000001", "7"});
    EXPECT_EXIT((void)positional_value(positional.argc, positional.argv(), 0, 1, 1,
                                       scenario::kMaxDevices),
                ::testing::ExitedWithCode(2), devices_bound);
}

TEST(BenchFlagDeathTest, OversizedThreadCountRejected) {
    // Past kMaxThreads: a usage error before the worker pool could try to
    // spawn up to one OS thread per task (a failed spawn aborts).  Parse
    // only; nothing runs.
    for (const char* threads : {"18446744073709551615", "1025"}) {
        Args<6> huge({"--preset", "smoke", "--runs", "100000", "--threads", threads});
        EXPECT_EXIT((void)spec_from_args(huge.argc, huge.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2),
                    "value must be <= " + std::to_string(scenario::kMaxThreads));
    }
}

TEST(BenchFlagDeathTest, ScenarioAndPresetResolutionRejected) {
    // Unknown preset: exits with the usage status and lists the registered
    // names so a typo is self-diagnosing.
    Args<2> unknown({"--preset", "figure-8"});
    EXPECT_EXIT((void)spec_from_args(unknown.argc, unknown.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "unknown preset");
    EXPECT_EXIT((void)spec_from_args(unknown.argc, unknown.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "fig6a | fig6b");
    // Unreadable scenario file.
    Args<2> missing_file({"--scenario", "/no/such/file.scenario"});
    EXPECT_EXIT(
        (void)spec_from_args(missing_file.argc, missing_file.argv(), "fig6a"),
        ::testing::ExitedWithCode(2), "cannot read scenario file");
    // The two sources are mutually exclusive.
    Args<4> both({"--scenario", "x.scenario", "--preset", "fig6a"});
    EXPECT_EXIT((void)spec_from_args(both.argc, both.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "mutually exclusive");
    // Malformed override values still die strictly after resolution.
    Args<4> bad_override({"--preset", "fig6a", "--runs", "many"});
    EXPECT_EXIT(
        (void)spec_from_args(bad_override.argc, bad_override.argv(), "fig6a"),
        ::testing::ExitedWithCode(2), "not a decimal integer");
}

TEST(BenchFlagTest, StrataOverrideApplies) {
    Args<4> args({"--preset", "fig6a", "--strata", "8"});
    const scenario::ScenarioSpec spec =
        spec_from_args(args.argc, args.argv(), "fig6a");
    EXPECT_EQ(spec.config.strata, 8u);
}

TEST(BenchFlagDeathTest, MalformedStrataRejected) {
    Args<4> zero({"--preset", "fig6a", "--strata", "0"});
    EXPECT_EXIT((void)spec_from_args(zero.argc, zero.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "value must be >= 1");
    Args<4> junk({"--preset", "fig6a", "--strata", "4x"});
    EXPECT_EXIT((void)spec_from_args(junk.argc, junk.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a decimal integer");
    // Above the kMaxStrata cap: rejected, not silently rounded (rounding is
    // reserved for valid requests flowing through resolve_strata).
    Args<4> over({"--preset", "fig6a", "--strata", "33"});
    EXPECT_EXIT((void)spec_from_args(over.argc, over.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "value must be <= 32");
    Args<3> missing({"--preset", "fig6a", "--strata"});
    EXPECT_EXIT((void)spec_from_args(missing.argc, missing.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "missing value");
}

TEST(BenchFlagTest, SpecFromArgsAppliesOverrides) {
    Args<8> args({"--preset", "fig6b", "--runs", "7", "--devices", "44",
                  "--payload-kb", "2048"});
    const scenario::ScenarioSpec spec =
        spec_from_args(args.argc, args.argv(), "fig6a");
    EXPECT_EQ(spec.name, "fig6b");
    EXPECT_EQ(spec.runs, 7u);
    EXPECT_EQ(spec.device_count, 44u);
    EXPECT_EQ(spec.payload_bytes, 2048 * 1024);

    Args<4> multicell_args({"--cells", "5", "--assignment", "hotspot"});
    const scenario::ScenarioSpec multicell_spec =
        spec_from_args(multicell_args.argc, multicell_args.argv(), "citywide");
    EXPECT_EQ(multicell_spec.cell_count(), 5u);
    EXPECT_EQ(multicell_spec.assignment,
              nbmg::multicell::AssignmentPolicy::hotspot);
}

TEST(BenchFlagTest, PositionalsSkipFlagValuePairs) {
    Args<5> args({"--preset", "quickstart", "123", "--seed", "9"});
    EXPECT_STREQ(positional_text(args.argc, args.argv(), 0), "123");
    EXPECT_EQ(positional_value(args.argc, args.argv(), 0, 1), 123u);
    EXPECT_EQ(positional_u64(args.argc, args.argv(), 1, 77), 77u);
}

TEST(BenchFlagDeathTest, MalformedPositionalsRejected) {
    Args<1> junk({"12x"});
    EXPECT_EXIT((void)positional_value(junk.argc, junk.argv(), 0, 1),
                ::testing::ExitedWithCode(2), "not a decimal integer");
    // citywide_rollout's positional cell count meets the `cells` bound.
    Args<2> cells({"800", "4000000000"});
    EXPECT_EXIT((void)positional_value(cells.argc, cells.argv(), 1, 1, 1,
                                       scenario::kMaxCells),
                ::testing::ExitedWithCode(2),
                "value must be <= " + std::to_string(scenario::kMaxCells));
}

TEST(BenchFlagDeathTest, UnknownFlagCannotSwallowAPositional) {
    // '--bogus 800 8' must not silently shift the positionals.
    Args<3> args({"--bogus", "800", "8"});
    EXPECT_EXIT((void)positional_value(args.argc, args.argv(), 0, 1),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchFlagDeathTest, SingleCellShellsRejectMulticellScenarios) {
    // A multicell spec reaching a single-cell shell is a usage error (exit
    // 2 naming the binary), never a std::bad_variant_access abort or a
    // silently ignored topology.
    EXPECT_EXIT((void)require_single_cell(
                    {.topology = scenario::TopologySpec{.cells = 4}}, "fig6a_test"),
                ::testing::ExitedWithCode(2),
                "fig6a_test drives the single-cell engine");
}

TEST(BenchFlagTest, RequireSingleCellPassesThroughSingleCellSpecs) {
    const scenario::ScenarioSpec spec{.device_count = 7};
    EXPECT_EQ(require_single_cell(spec, "test").device_count, 7u);
}

TEST(BenchFlagDeathTest, MisspelledFlagsRejectedBySpecResolution) {
    // A typoed override must not silently run the default experiment.
    Args<2> typo({"--devces", "5"});
    EXPECT_EXIT((void)spec_from_args(typo.argc, typo.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "unknown flag");
    // Shell-declared extra flags pass the scan.
    scenario::ShellFlags shell;
    shell.value_flags = {"--updates-per-year"};
    shell.bare_flags = {"--csv"};
    shell.prefixes = {"--benchmark_"};
    Args<5> extras({"--updates-per-year", "6", "--csv", "--benchmark_filter",
                    "foo"});
    EXPECT_EQ(spec_from_args(extras.argc, extras.argv(), "fig6a", shell).name,
              "fig6a");
}

TEST(BenchFlagDeathTest, PayloadKbOverrideCannotWrapInt64) {
    const std::string bound =
        "value must be <= " + std::to_string(scenario::kMaxPayloadBytes / 1024);
    for (const char* kb : {"18014398509481985", "9007199254740991", "1048577"}) {
        Args<4> args({"--preset", "fig6a", "--payload-kb", kb});
        EXPECT_EXIT((void)spec_from_args(args.argc, args.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2), bound);
    }
}

TEST(BenchFlagDeathTest, OversizedDurationsRejected) {
    // Past kMaxDurationMs: a usage error, not an int64 overflow in the
    // engine's horizon and churn arithmetic.
    const std::string bound = "value must be <= " + std::to_string(scenario::kMaxDurationMs);
    for (const char* ms : {"9223372036854775807", "1000000001"}) {
        Args<6> ti({"--preset", "smoke", "--devices", "20", "--ti-ms", ms});
        EXPECT_EXIT((void)spec_from_args(ti.argc, ti.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2), bound);
        Args<4> rejoin({"--preset", "churn", "--churn-rejoin-ms", ms});
        EXPECT_EXIT((void)spec_from_args(rejoin.argc, rejoin.argv(), "fig6a"),
                    ::testing::ExitedWithCode(2), bound);
    }
}

TEST(BenchFlagDeathTest, SpecFromArgsValidatesTheFinalSpec) {
    // Overrides are applied before validation, so an impossible resolved
    // spec dies with a usage error instead of deep in the engine.
    Args<4> args({"--preset", "fig6a", "--payload-kb", "0"});
    EXPECT_EXIT((void)spec_from_args(args.argc, args.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "value must be >= 1");
}

TEST(BenchFlagDeathTest, AssignmentOverrideRequiresMulticell) {
    // The same rule as the file's "'assignment' requires a multicell grid".
    Args<4> args({"--preset", "fig6a", "--assignment", "hotspot"});
    EXPECT_EXIT((void)spec_from_args(args.argc, args.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "requires a multicell grid");
}

TEST(BenchFlagTest, CellsOverridePreservesTopologyKind) {
    Args<2> args({"--cells", "9"});
    scenario::ScenarioSpec spec{
        .topology = scenario::TopologySpec{.cells = 4,
                                           .kind = scenario::TopologySpec::Kind::hotspot,
                                           .hotspot_exponent = 1.5}};
    apply_spec_overrides(spec, args.argc, args.argv());
    EXPECT_EQ(spec.cell_count(), 9u);
    EXPECT_EQ(spec.topology->kind, scenario::TopologySpec::Kind::hotspot);
    EXPECT_EQ(spec.topology->hotspot_exponent, 1.5);
}

/// A 4-cell spec under fixed-stagger starts `ms` apart.
scenario::ScenarioSpec staggered_grid(std::int64_t ms) {
    return {.topology = scenario::TopologySpec{.cells = 4},
            .coordinator = multicell::CoordinatorSpec{
                .policy = multicell::StartPolicy::fixed_stagger, .stagger_ms = ms}};
}

TEST(BenchFlagTest, CoordinatorOverridesApply) {
    Args<6> staggered({"--cells", "8", "--coordinator", "fixed-stagger",
                       "--stagger-ms", "45000"});
    scenario::ScenarioSpec spec;
    apply_spec_overrides(spec, staggered.argc, staggered.argv());
    ASSERT_TRUE(spec.is_coordinated());
    EXPECT_EQ(spec.coordinator->policy, multicell::StartPolicy::fixed_stagger);
    EXPECT_EQ(spec.coordinator->stagger_ms, 45'000);

    Args<6> budgeted({"--cells", "8", "--coordinator", "backhaul",
                      "--backhaul-kbps", "128.5"});
    scenario::ScenarioSpec backhaul;
    apply_spec_overrides(backhaul, budgeted.argc, budgeted.argv());
    ASSERT_TRUE(backhaul.is_coordinated());
    EXPECT_EQ(backhaul.coordinator->policy,
              multicell::StartPolicy::backhaul_budgeted);
    EXPECT_EQ(backhaul.coordinator->backhaul_kbps, 128.5);

    // "none" clears a preset's coordinator; the knob flags then have no
    // policy to attach to (covered by the death tests below).
    Args<2> cleared({"--coordinator", "none"});
    scenario::ScenarioSpec preset = staggered_grid(1'000);
    apply_spec_overrides(preset, cleared.argc, cleared.argv());
    EXPECT_FALSE(preset.is_coordinated());

    // A same-policy override keeps the scenario's knobs.
    Args<2> same({"--coordinator", "fixed-stagger"});
    scenario::ScenarioSpec keep = staggered_grid(7'000);
    apply_spec_overrides(keep, same.argc, same.argv());
    EXPECT_EQ(keep.coordinator->stagger_ms, 7'000);
}

TEST(BenchFlagDeathTest, CoordinatorOverridesValidated) {
    Args<2> single_cell({"--coordinator", "simultaneous"});
    EXPECT_EXIT((void)spec_from_args(single_cell.argc, single_cell.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "requires a multicell grid");

    Args<4> unknown({"--cells", "4", "--coordinator", "staggered"});
    EXPECT_EXIT((void)spec_from_args(unknown.argc, unknown.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "unknown start policy");

    // Policy-scoped knobs without their policy.
    Args<4> bare_stagger({"--cells", "4", "--stagger-ms", "1000"});
    EXPECT_EXIT((void)spec_from_args(bare_stagger.argc, bare_stagger.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "fixed-stagger");
    Args<6> wrong_policy({"--cells", "4", "--coordinator", "backhaul",
                          "--stagger-ms", "1000"});
    EXPECT_EXIT((void)spec_from_args(wrong_policy.argc, wrong_policy.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "fixed-stagger");

    // A freshly engaged fixed-stagger needs its stagger (a forgotten
    // --stagger-ms must not silently run simultaneous starts).
    Args<4> no_stagger({"--cells", "4", "--coordinator", "fixed-stagger"});
    EXPECT_EXIT((void)spec_from_args(no_stagger.argc, no_stagger.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "needs a stagger");

    // backhaul needs a usable budget.
    Args<4> no_budget({"--cells", "4", "--coordinator", "backhaul"});
    EXPECT_EXIT((void)spec_from_args(no_budget.argc, no_budget.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "feed budget");
    Args<6> bad_budget({"--cells", "4", "--coordinator", "backhaul",
                        "--backhaul-kbps", "0"});
    EXPECT_EXIT((void)spec_from_args(bad_budget.argc, bad_budget.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "must be > 0");
    Args<6> junk_budget({"--cells", "4", "--coordinator", "backhaul",
                         "--backhaul-kbps", "fast"});
    EXPECT_EXIT((void)spec_from_args(junk_budget.argc, junk_budget.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
    Args<6> inf_budget({"--cells", "4", "--coordinator", "backhaul",
                        "--backhaul-kbps", "inf"});
    EXPECT_EXIT((void)spec_from_args(inf_budget.argc, inf_budget.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "not a finite number");
}

TEST(BenchFlagTest, CheckpointOverridesApply) {
    Args<8> args({"--checkpoint-out", "run.snapshot", "--checkpoint-every-ms",
                  "5000", "--checkpoint-stop-after", "3", "--resume",
                  "prev.snapshot"});
    const scenario::ScenarioSpec spec =
        spec_from_args(args.argc, args.argv(), "fig6a");
    EXPECT_EQ(spec.checkpoint.out, "run.snapshot");
    EXPECT_EQ(spec.checkpoint.every_ms, 5000);
    EXPECT_EQ(spec.checkpoint.stop_after, 3u);
    EXPECT_EQ(spec.checkpoint.resume, "prev.snapshot");
}

TEST(BenchFlagTest, CoordinatorNoneOnASingleCellPresetChangesNothing) {
    // --coordinator none clears the coordinator of any base spec, so it
    // needs no grid of its own.
    Args<2> args({"--coordinator", "none"});
    EXPECT_EQ(spec_from_args(args.argc, args.argv(), "fig6a").to_file_text(),
              scenario::Registry::instance().preset("fig6a").to_file_text());
}

TEST(BenchFlagTest, TraceOutAloneTurnsOnTraceCollection) {
    // An output flag turns its collection mode on; the file key instead
    // requires telemetry = trace or full.
    Args<2> args({"--trace-out", "run.trace.jsonl"});
    const scenario::ScenarioSpec spec =
        spec_from_args(args.argc, args.argv(), "citywide-staggered");
    EXPECT_TRUE(spec.telemetry.trace);
    EXPECT_FALSE(spec.telemetry.metrics);
    EXPECT_EQ(spec.telemetry.trace_out, "run.trace.jsonl");
}

TEST(BenchFlagTest, TelemetryOverrideAddsToTheBaseModes) {
    // On a fresh spec this is the file key's meaning; on a base that
    // already collects metrics, --telemetry trace keeps them, and off
    // also drops the output paths.
    const scenario::ScenarioSpec base{
        .telemetry = {.metrics = true, .metrics_out = "m.csv"}};
    Args<2> trace({"--telemetry", "trace"});
    scenario::ScenarioSpec both = base;
    apply_spec_overrides(both, trace.argc, trace.argv());
    EXPECT_TRUE(both.telemetry.trace);
    EXPECT_TRUE(both.telemetry.metrics);
    EXPECT_EQ(both.telemetry.metrics_out, "m.csv");

    Args<2> off({"--telemetry", "off"});
    scenario::ScenarioSpec none = base;
    apply_spec_overrides(none, off.argc, off.argv());
    EXPECT_EQ(none.telemetry, scenario::TelemetrySpec{});
}

TEST(BenchFlagDeathTest, CoordinatorNoneStaysRejectedInFiles) {
    // `none` is a flag-only spelling; a file leaves the key out instead.
    const std::string path = testing::TempDir() + "coordinator_none.scenario";
    std::ofstream(path) << "cells = 4\ncoordinator = none\n";
    Args<2> args({"--scenario", path.c_str()});
    EXPECT_EXIT((void)spec_from_args(args.argc, args.argv(), "fig6a"),
                ::testing::ExitedWithCode(2),
                "bad value 'none' for key 'coordinator'");
}

TEST(BenchFlagDeathTest, CheckpointOverridesValidated) {
    // The sub-flags need a snapshot path from somewhere.
    Args<2> bare_every({"--checkpoint-every-ms", "5000"});
    EXPECT_EXIT((void)spec_from_args(bare_every.argc, bare_every.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "requires a snapshot path");
    Args<2> bare_stop({"--checkpoint-stop-after", "3"});
    EXPECT_EXIT((void)spec_from_args(bare_stop.argc, bare_stop.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "requires a snapshot path");
    // Value domains: 0 (the default) is expressed by omitting the flag.
    Args<4> zero_every({"--checkpoint-out", "s.bin", "--checkpoint-every-ms",
                        "0"});
    EXPECT_EXIT((void)spec_from_args(zero_every.argc, zero_every.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "must be >= 1");
    Args<4> zero_stop({"--checkpoint-out", "s.bin", "--checkpoint-stop-after",
                       "0"});
    EXPECT_EXIT((void)spec_from_args(zero_stop.argc, zero_stop.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "must be >= 1");
    // Empty paths.
    Args<2> empty_out({"--checkpoint-out", ""});
    EXPECT_EXIT((void)spec_from_args(empty_out.argc, empty_out.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "empty path");
    Args<2> empty_resume({"--resume", ""});
    EXPECT_EXIT((void)spec_from_args(empty_resume.argc, empty_resume.argv(),
                                     "fig6a"),
                ::testing::ExitedWithCode(2), "empty path");
}

TEST(BenchFlagDeathTest, MalformedAssignmentsRejected) {
    Args<2> unknown({"--assignment", "zipf"});
    EXPECT_EXIT((void)spec_from_args(unknown.argc, unknown.argv(), "citywide"),
                ::testing::ExitedWithCode(2), "unknown assignment policy");
    Args<2> cased({"--assignment", "Uniform"});
    EXPECT_EXIT((void)spec_from_args(cased.argc, cased.argv(), "citywide"),
                ::testing::ExitedWithCode(2), "unknown assignment policy");
    Args<2> empty({"--assignment", ""});
    EXPECT_EXIT((void)spec_from_args(empty.argc, empty.argv(), "citywide"),
                ::testing::ExitedWithCode(2), "unknown assignment policy");
    Args<1> missing({"--assignment"});
    EXPECT_EXIT((void)spec_from_args(missing.argc, missing.argv(), "citywide"),
                ::testing::ExitedWithCode(2), "missing value");
}

TEST(BenchFlagDeathTest, HexFloatTokensRejectedAtFlagEntryPoints) {
    // strtod happily parses C99 hex-float tokens ('0x10' = 16.0,
    // '0X1p-3' = 0.125); the strict grammar must reject them at every
    // double-valued flag, not run a different experiment.
    Args<4> hex({"--preset", "fig6a", "--churn-leave-rate", "0x10"});
    EXPECT_EXIT((void)spec_from_args(hex.argc, hex.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
    Args<4> hexp({"--preset", "fig6a", "--churn-leave-rate", "0X1p-3"});
    EXPECT_EXIT((void)spec_from_args(hexp.argc, hexp.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
    Args<4> trailing({"--preset", "fig6a", "--churn-leave-rate", "1x"});
    EXPECT_EXIT((void)spec_from_args(trailing.argc, trailing.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
    Args<8> kbps({"--preset", "fig6a", "--cells", "2", "--coordinator",
                  "backhaul", "--backhaul-kbps", "0x10"});
    EXPECT_EXIT((void)spec_from_args(kbps.argc, kbps.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
    Args<10> loss({"--preset", "fig6a", "--cells", "2", "--coordinator",
                   "backhaul", "--backhaul-kbps", "256", "--backhaul-loss",
                   "0x1p-3"});
    EXPECT_EXIT((void)spec_from_args(loss.argc, loss.argv(), "fig6a"),
                ::testing::ExitedWithCode(2), "not a number");
}

TEST(BenchFlagDeathTest, HexTokensRejectedAtPositionalEntryPoint) {
    Args<1> hex({"0x10"});
    EXPECT_EXIT((void)positional_value(hex.argc, hex.argv(), 0, 1),
                ::testing::ExitedWithCode(2), "not a decimal integer");
}

}  // namespace
}  // namespace nbmg::bench
