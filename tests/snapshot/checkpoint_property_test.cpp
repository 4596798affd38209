// Property battery for checkpoint/resume: over seeded random scenario
// specs — single-cell and multicell, strata 1 and 8 — a run stopped
// mid-flight (checkpoint.stop_after) and resumed at a different
// --threads produces aggregates bit-identical to the uninterrupted run
// and byte-identical telemetry artifacts.  Also pins resume-from-final
// (every task restored, none recomputed), that a checkpointed run is
// bit-identical to a checkpoint-off run, that the journal itself is
// byte-identical at any --threads (a single task's campaigns running side
// by side included) and across an in-place resume, and that a journal cut
// at or just before any record boundary resumes to the uninterrupted
// result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "scenario/run.hpp"
#include "sim/random.hpp"
#include "snapshot/checkpoint.hpp"
#include "tests/support/campaign_equal.hpp"
#include "tests/support/deployment_equal.hpp"

namespace nbmg::scenario {
namespace {

struct Shape {
    std::size_t strata;
    std::size_t stop_threads;    // threads of the interrupted run
    std::size_t resume_threads;  // threads of the resumed run
};

/// A small random workload: population and grid scale drawn from `rng`,
/// trace+metrics telemetry on (in-memory artifacts compared byte for
/// byte), strata from the shape under test.
ScenarioSpec random_spec(sim::RandomStream& rng, bool multicell,
                         const Shape& shape) {
    ScenarioSpec spec;
    spec.name = "checkpoint-property";
    spec.device_count = static_cast<std::size_t>(rng.uniform_int(30, 80));
    spec.runs = static_cast<std::size_t>(rng.uniform_int(4, 8));
    spec.payload_bytes = rng.uniform_int(20, 120) * 1024;
    spec.base_seed = rng.next_u64();
    spec.config.strata = shape.strata;
    if (multicell) {
        spec.topology = TopologySpec{.cells = static_cast<std::size_t>(rng.uniform_int(2, 4))};
    }
    spec.telemetry = {.trace = true, .metrics = true};
    return spec;
}

std::uint64_t total_tasks(const ScenarioSpec& spec) {
    return static_cast<std::uint64_t>(spec.runs) * spec.cell_count();
}

void expect_results_equal(const ScenarioResult& a, const ScenarioResult& b) {
    test_support::expect_deployment_results_equal(a.deployment(), b.deployment());
    ASSERT_TRUE(a.telemetry.has_value());
    ASSERT_TRUE(b.telemetry.has_value());
    EXPECT_EQ(a.telemetry->trace_jsonl.str(), b.telemetry->trace_jsonl.str());
    EXPECT_EQ(a.telemetry->timeline_json.str(), b.telemetry->timeline_json.str());
    ASSERT_TRUE(a.telemetry->metrics.has_value());
    ASSERT_TRUE(b.telemetry->metrics.has_value());
    EXPECT_EQ(a.telemetry->metrics->to_csv(), b.telemetry->metrics->to_csv());
}

class CheckpointResumeProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(CheckpointResumeProperty, InterruptedResumeMatchesUninterrupted) {
    const Shape shape = GetParam();
    sim::RandomStream rng{sim::derive_seed(20260808, "checkpoint-property",
                                           shape.strata * 100 +
                                               shape.stop_threads * 10 +
                                               shape.resume_threads)};
    for (const bool multicell : {false, true}) {
        const ScenarioSpec base = random_spec(rng, multicell, shape);
        const std::string snap = testing::TempDir() + "checkpoint_property_" +
                                 std::to_string(shape.strata) + "_" +
                                 std::to_string(shape.stop_threads) + "_" +
                                 std::to_string(shape.resume_threads) + "_" +
                                 (multicell ? "mc" : "sc") + ".bin";
        std::remove(snap.c_str());

        // Reference: the uninterrupted, checkpoint-off run.
        ScenarioSpec full = base;
        full.threads = shape.stop_threads;
        const ScenarioResult expected = run_scenario(full);

        // Interrupted: stop after roughly half the grid.
        const std::uint64_t budget = std::max<std::uint64_t>(
            1, total_tasks(base) / 2);
        ScenarioSpec interrupted = base;
        interrupted.threads = shape.stop_threads;
        interrupted.checkpoint = {.out = snap, .stop_after = budget};
        bool stopped = false;
        try {
            (void)run_scenario(interrupted);
        } catch (const snapshot::CheckpointStop& stop) {
            stopped = true;
            EXPECT_GE(stop.completed(), budget);
        }
        ASSERT_TRUE(stopped) << "stop budget " << budget << " never fired";

        // Resumed at a different thread count: bit-identical to the
        // uninterrupted run.
        ScenarioSpec resumed = base;
        resumed.threads = shape.resume_threads;
        resumed.checkpoint.resume = snap;
        const ScenarioResult actual = run_scenario(resumed);
        expect_results_equal(actual, expected);

        // The resumed run left a complete snapshot behind (save_final on
        // its default checkpoint.out = "" writes nothing; re-point it).
        ScenarioSpec refreshed = base;
        refreshed.threads = shape.resume_threads;
        refreshed.checkpoint = {.out = snap, .resume = snap};
        const ScenarioResult again = run_scenario(refreshed);
        expect_results_equal(again, expected);

        // Resume-from-final: every slot restores, nothing recomputes, and
        // the aggregates still match bit for bit.
        ScenarioSpec from_final = base;
        from_final.threads = 1;
        from_final.checkpoint.resume = snap;
        expect_results_equal(run_scenario(from_final), expected);

        std::remove(snap.c_str());
    }
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A multicell spec of 8-32 (run, cell) tasks, strata 1.
ScenarioSpec journal_spec() {
    sim::RandomStream rng{sim::derive_seed(20261017, "checkpoint-journal", 0)};
    return random_spec(rng, true, Shape{1, 1, 1});
}

/// The journal an uninterrupted run of `spec` at `threads` leaves at `path`.
std::vector<std::uint8_t> uninterrupted_journal(const std::string& path,
                                                std::size_t threads,
                                                ScenarioSpec spec = journal_spec()) {
    spec.threads = threads;
    spec.checkpoint = {.out = path};
    (void)run_scenario(spec);
    return read_bytes(path);
}

TEST(CheckpointJournalTest, FinalJournalIsByteIdenticalAcrossThreads) {
    // The multicell grid at 8 threads, and one run on one cell at 4: there
    // the task's campaigns run side by side, and its one record (the totals
    // and every filled sink, in slot order) is still written after they
    // join.
    sim::RandomStream rng{sim::derive_seed(20261018, "checkpoint-journal", 1)};
    ScenarioSpec single_task = random_spec(rng, false, Shape{1, 1, 1});
    single_task.runs = 1;
    const std::pair<ScenarioSpec, std::size_t> cases[] = {{journal_spec(), 8},
                                                          {single_task, 4}};
    const std::string path = testing::TempDir() + "checkpoint_journal_threads.bin";
    for (const auto& [spec, threads] : cases) {
        const std::vector<std::uint8_t> serial = uninterrupted_journal(path, 1, spec);
        ASSERT_FALSE(serial.empty());
        EXPECT_EQ(uninterrupted_journal(path, threads, spec), serial)
            << spec.cell_count() << " cells, " << spec.runs << " runs";
    }
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, InPlaceResumeLeavesTheUninterruptedJournal) {
    const std::string path = testing::TempDir() + "checkpoint_journal_in_place.bin";
    const std::vector<std::uint8_t> expected = uninterrupted_journal(path, 1);
    std::remove(path.c_str());

    ScenarioSpec interrupted = journal_spec();
    interrupted.threads = 8;
    interrupted.checkpoint = {.out = path,
                              .stop_after = std::max<std::uint64_t>(
                                  1, total_tasks(interrupted) / 2)};
    EXPECT_THROW((void)run_scenario(interrupted), snapshot::CheckpointStop);

    ScenarioSpec resumed = journal_spec();
    resumed.threads = 2;
    resumed.checkpoint = {.out = path, .resume = path};
    (void)run_scenario(resumed);
    EXPECT_EQ(read_bytes(path), expected);
    std::remove(path.c_str());
}

TEST(CheckpointJournalTest, ResumeFromAnyRecordCutMatchesUninterrupted) {
    const std::string path = testing::TempDir() + "checkpoint_journal_source.bin";
    const std::string cut_path = testing::TempDir() + "checkpoint_journal_cut.bin";
    const std::vector<std::uint8_t> bytes = uninterrupted_journal(path, 4);
    ScenarioSpec full = journal_spec();
    full.threads = 4;
    const ScenarioResult expected = run_scenario(full);

    // Frame ends: after magic + version, each section adds its (u32 id,
    // u64 length) prefix and its payload.  The first is the header's.
    std::vector<std::uint64_t> ends;
    std::uint64_t offset = 12;
    for (const snapshot::Section& section : snapshot::read_snapshot_file(path)) {
        offset += 12 + section.payload.size();
        ends.push_back(offset);
    }
    ASSERT_EQ(ends.back(), bytes.size());
    ASSERT_EQ(ends.size(), total_tasks(full) + 1);

    std::vector<std::uint64_t> cuts{ends.front()};
    for (std::size_t record = 1; record < ends.size(); ++record) {
        cuts.push_back(ends[record] - 1);  // tears this record
        cuts.push_back(ends[record]);
    }
    for (const std::uint64_t cut : cuts) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        std::FILE* file = std::fopen(cut_path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, file), cut);
        std::fclose(file);
        ScenarioSpec resumed = journal_spec();
        resumed.threads = 2;
        resumed.checkpoint.resume = cut_path;
        expect_results_equal(run_scenario(resumed), expected);
    }
    std::remove(path.c_str());
    std::remove(cut_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndStrata, CheckpointResumeProperty,
    ::testing::Values(Shape{1, 1, 8}, Shape{1, 8, 1}, Shape{8, 1, 8},
                      Shape{8, 8, 8}),
    [](const ::testing::TestParamInfo<Shape>& info) {
        return "strata" + std::to_string(info.param.strata) + "_stop" +
               std::to_string(info.param.stop_threads) + "_resume" +
               std::to_string(info.param.resume_threads);
    });

}  // namespace
}  // namespace nbmg::scenario
