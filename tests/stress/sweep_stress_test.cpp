// High-contention sweep stress: purpose-built to exercise the worker
// pool under ThreadSanitizer (the NBMG_SANITIZE=thread leg of
// ci/verify.sh) and to pin the repo's one non-negotiable invariant while
// doing so — campaigns are bit-identical at any --threads.
//
// The citywide presets are the heaviest real workloads: 16 cells x runs
// (run, cell) event loops fanned over 8 workers, per-cell RNG streams,
// and the in-order Summary::merge reduction.  Scaled-down device counts
// keep the suite CTest-fast unsanitized (~seconds) while every pool
// hand-off, slot write and reduction edge still executes; TSan watches
// the interleavings, the EXPECTs watch the bits.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/sweep.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "tests/support/deployment_equal.hpp"

namespace nbmg {
namespace {

constexpr std::size_t kStressThreads = 8;

/// Keeps the busy-wait loop below alive without volatile arithmetic.
inline void benchmark_do_not_optimize(std::uint64_t& value) {
    asm volatile("" : "+r"(value));
}

/// Scales a citywide preset down to stress-test size: full 16-cell
/// topology (the contention comes from many concurrent (run, cell)
/// cells, not from device count) with a small per-cell population.
scenario::ScenarioSpec stress_spec(const char* preset, std::size_t threads) {
    scenario::ScenarioSpec spec = scenario::Registry::instance().preset(preset);
    spec.device_count = 320;
    spec.runs = 3;
    spec.threads = threads;
    return spec;
}

class CitywidePresetStressTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CitywidePresetStressTest, EightThreadsBitIdenticalToSerial) {
    const scenario::ScenarioResult serial =
        scenario::run_scenario(stress_spec(GetParam(), 1));
    const scenario::ScenarioResult fanned =
        scenario::run_scenario(stress_spec(GetParam(), kStressThreads));
    test_support::expect_deployment_results_equal(fanned.deployment(),
                                                  serial.deployment());
    ASSERT_EQ(fanned.is_coordinated(), serial.is_coordinated());
}

INSTANTIATE_TEST_SUITE_P(CitywidePresets, CitywidePresetStressTest,
                         ::testing::Values("citywide", "citywide-staggered",
                                           "citywide-backhaul"),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

// Pool-level hammering: thousands of near-empty tasks maximize handout
// contention on the atomic work counter and the join path — the exact
// code TSan must see clean before the paging-strata split lands.
TEST(WorkerPoolStressTest, TinyTaskFloodDeterministicAndComplete) {
    constexpr std::size_t kTasks = 20'000;
    for (int round = 0; round < 3; ++round) {
        std::atomic<std::uint64_t> touched{0};
        const std::vector<std::uint64_t> out = core::sweep_indexed(
            kTasks, kStressThreads, [&](std::size_t i) {
                touched.fetch_add(1, std::memory_order_relaxed);
                return static_cast<std::uint64_t>(i) * 2654435761u;
            });
        ASSERT_EQ(touched.load(), kTasks);
        ASSERT_EQ(out.size(), kTasks);
        for (std::size_t i = 0; i < kTasks; ++i) {
            ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * 2654435761u);
        }
    }
}

TEST(WorkerPoolStressTest, UnevenTasksReduceInIndexOrder) {
    // Tasks with wildly uneven cost finish out of order across workers;
    // the reduction below must still see slots in index order.  A
    // non-commutative fold (hash chaining) catches any reordering.
    constexpr std::size_t kTasks = 512;
    auto chain = [](std::uint64_t acc, std::uint64_t v) {
        acc ^= v + 0x9e3779b97f4a7c15ull + (acc << 6) + (acc >> 2);
        return acc;
    };
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kTasks; ++i) {
        expected = chain(expected, i * i);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                      kStressThreads}) {
        const std::vector<std::uint64_t> out =
            core::sweep_indexed(kTasks, threads, [](std::size_t i) {
                // Spin proportional to a sawtooth so neighbors differ.
                std::uint64_t sink = 0;
                for (std::size_t k = 0; k < (i % 97) * 50; ++k) {
                    sink = sink * 6364136223846793005ull + k;
                }
                benchmark_do_not_optimize(sink);
                return static_cast<std::uint64_t>(i) * i;
            });
        const std::uint64_t folded =
            std::accumulate(out.begin(), out.end(), std::uint64_t{0}, chain);
        ASSERT_EQ(folded, expected) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace nbmg
