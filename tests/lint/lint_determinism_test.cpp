// Exit-code tests for ci/lint_determinism.py: each banned pattern in
// tests/lint/fixtures/ is actually caught (exit 1 with a file:line
// diagnostic of the right category), each pragma form is honored, the
// pragma verifier rejects malformed/stale pragmas, and the real src/
// tree is clean (exit 0) — so the lint can gate CI without crying wolf.
//
// Paths come in through compile definitions (NBMG_LINT_SCRIPT,
// NBMG_LINT_FIXTURE_DIR, NBMG_REPO_ROOT), so the suite runs from any
// build directory.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct LintRun {
    int exit_code = -1;
    std::string output;  // stdout + stderr, interleaved
};

/// Runs the lint over `args` (already-quoted tail of the command line)
/// and captures exit code + combined output via popen.
LintRun run_lint(const std::string& args) {
    const std::string command =
        std::string("python3 '") + NBMG_LINT_SCRIPT + "' " + args + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed: " + command);
    LintRun run;
    std::array<char, 4096> buffer{};
    while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe)) {
        run.output += buffer.data();
    }
    const int status = pclose(pipe);
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string fixture(const std::string& name) {
    return std::string("'") + NBMG_LINT_FIXTURE_DIR + "/" + name + "'";
}

/// A finding line looks like "<path>:<line>: [<category>] <message>".
void expect_finding(const LintRun& run, const std::string& file, int line,
                    const std::string& category) {
    const std::string needle =
        file + ":" + std::to_string(line) + ": [" + category + "]";
    EXPECT_NE(run.output.find(needle), std::string::npos)
        << "expected diagnostic '" << needle << "' in:\n"
        << run.output;
}

TEST(LintDeterminismTest, WallClockPatternsCaught) {
    const LintRun run = run_lint(fixture("bad_wall_clock.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_wall_clock.cpp", 7, "wall-clock");   // system_clock
    expect_finding(run, "bad_wall_clock.cpp", 8, "wall-clock");   // steady_clock
    expect_finding(run, "bad_wall_clock.cpp", 9, "wall-clock");   // high_resolution
    expect_finding(run, "bad_wall_clock.cpp", 10, "wall-clock");  // time(nullptr)
}

TEST(LintDeterminismTest, RawRngPatternsCaught) {
    const LintRun run = run_lint(fixture("bad_raw_rng.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_raw_rng.cpp", 7, "raw-rng");   // random_device
    expect_finding(run, "bad_raw_rng.cpp", 8, "raw-rng");   // mt19937_64
    expect_finding(run, "bad_raw_rng.cpp", 9, "raw-rng");   // std::srand
    expect_finding(run, "bad_raw_rng.cpp", 10, "raw-rng");  // std::rand
    expect_finding(run, "bad_raw_rng.cpp", 11, "raw-rng");  // MersenneTwister64
}

TEST(LintDeterminismTest, UnorderedContainersCaught) {
    const LintRun run = run_lint(fixture("bad_unordered.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_unordered.cpp", 4, "unordered-iter");  // include
    expect_finding(run, "bad_unordered.cpp", 7, "unordered-iter");  // decl
}

TEST(LintDeterminismTest, PointerKeyedComparatorsCaught) {
    const LintRun run = run_lint(fixture("bad_pointer_key.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_pointer_key.cpp", 10, "pointer-key");
    expect_finding(run, "bad_pointer_key.cpp", 11, "pointer-key");
}

TEST(LintDeterminismTest, UninitializedPodMembersCaught) {
    const LintRun run = run_lint(fixture("bad_uninit_pod.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_uninit_pod.cpp", 8, "uninit-pod");
    expect_finding(run, "bad_uninit_pod.cpp", 9, "uninit-pod");
    expect_finding(run, "bad_uninit_pod.cpp", 10, "uninit-pod");
    // The initialized members and the vector member must NOT be flagged.
    EXPECT_EQ(run.output.find("bad_uninit_pod.cpp:11:"), std::string::npos);
    EXPECT_EQ(run.output.find("bad_uninit_pod.cpp:12:"), std::string::npos);
    EXPECT_EQ(run.output.find("bad_uninit_pod.cpp:13:"), std::string::npos);
}

TEST(LintDeterminismTest, EveryPragmaFormHonored) {
    const LintRun run = run_lint(fixture("good_pragma.cpp"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintDeterminismTest, MalformedAndStalePragmasRejected) {
    const LintRun run = run_lint(fixture("bad_pragma.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_pragma.cpp", 6, "pragma");   // unknown category
    expect_finding(run, "bad_pragma.cpp", 9, "pragma");   // missing reason
    expect_finding(run, "bad_pragma.cpp", 12, "pragma");  // stale
}

TEST(LintDeterminismTest, TelemetryPointerPayloadsCaught) {
    const LintRun run = run_lint(fixture("bad_telemetry_emit.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_telemetry_emit.cpp", 7, "telemetry");  // reinterpret_cast
    expect_finding(run, "bad_telemetry_emit.cpp", 9, "telemetry");  // &-payload
    // The audited call under allow(telemetry) must NOT be flagged.
    EXPECT_EQ(run.output.find("bad_telemetry_emit.cpp:11:"), std::string::npos)
        << run.output;
}

TEST(LintDeterminismTest, HostClockInTelemetryDirIsUnexcusable) {
    // The clock rule for telemetry/ bypasses the pragma machinery entirely:
    // the allow(wall-clock) in the fixture is ignored AND reported stale.
    const LintRun run = run_lint(fixture("telemetry/bad_clock_in_telemetry.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_clock_in_telemetry.cpp", 8, "telemetry");
    expect_finding(run, "bad_clock_in_telemetry.cpp", 7, "pragma");
}

TEST(LintDeterminismTest, ProfilerTuClockStaysExcusable) {
    // telemetry/profiler.cpp is the one TU where a pragma'd steady_clock
    // read is legitimate (opt-in wall-clock self-profiling, bench shells).
    const LintRun run = run_lint(fixture("telemetry/profiler.cpp"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintDeterminismTest, SnapshotStructDumpIsUnexcusable) {
    // reinterpret_cast in snapshot/ bypasses the pragma machinery: the
    // allow(snapshot) in the fixture is ignored AND reported stale.
    const LintRun run = run_lint(fixture("snapshot/bad_struct_dump.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_struct_dump.cpp", 14, "snapshot");
    expect_finding(run, "bad_struct_dump.cpp", 13, "pragma");
}

TEST(LintDeterminismTest, SnapshotHostWidthWritesCaught) {
    const LintRun run = run_lint(fixture("snapshot/bad_host_width.cpp"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    expect_finding(run, "bad_host_width.cpp", 8, "snapshot");  // size_t
    expect_finding(run, "bad_host_width.cpp", 9, "snapshot");  // sizeof
}

TEST(LintDeterminismTest, SnapshotPragmaFormsHonored) {
    const LintRun run = run_lint(fixture("snapshot/good_allowed.cpp"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintDeterminismTest, CleanFixturePasses) {
    const LintRun run = run_lint(fixture("clean.cpp"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintDeterminismTest, BannedWordsInCommentsAndStringsIgnored) {
    // clean.cpp names every banned primitive in comments and a string
    // literal; the zero exit above proves the stripper works, this pins
    // the absence of any finding line for the file.
    const LintRun run = run_lint(fixture("clean.cpp"));
    EXPECT_EQ(run.output.find("clean.cpp:"), std::string::npos) << run.output;
}

TEST(LintDeterminismTest, RealSourceTreeIsClean) {
    const LintRun run =
        run_lint(std::string("--root '") + NBMG_REPO_ROOT + "'");
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintDeterminismTest, MissingFileIsUsageError) {
    const LintRun run = run_lint(fixture("does_not_exist.cpp"));
    EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
