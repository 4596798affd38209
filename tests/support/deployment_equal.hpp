// Shared bit-exact comparison helpers for deployment-layer results, used
// by every golden/determinism suite that pins "aggregates are
// bit-identical" (tests/multicell/deployment_test.cpp,
// tests/multicell/coordinator_test.cpp,
// tests/scenario/scenario_golden_test.cpp, ...).  One superset comparison —
// stats, per-cell aggregates, RACH histogram quantiles, spans — so a field
// added to DeploymentResult only needs remembering here, not in per-suite
// copies that drift apart.
#pragma once

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "multicell/deployment.hpp"

namespace nbmg::test_support {

/// Bit-exact equality of every stats::Summary in a MechanismStats
/// (stats::Summary::operator== compares the accumulator state itself).
inline void expect_mechanism_stats_equal(const core::MechanismStats& a,
                                         const core::MechanismStats& b) {
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_TRUE(a.light_sleep_increase == b.light_sleep_increase);
    EXPECT_TRUE(a.connected_increase == b.connected_increase);
    EXPECT_TRUE(a.transmissions == b.transmissions);
    EXPECT_TRUE(a.transmissions_per_device == b.transmissions_per_device);
    EXPECT_TRUE(a.bytes_ratio == b.bytes_ratio);
    EXPECT_TRUE(a.recovery_transmissions == b.recovery_transmissions);
    EXPECT_TRUE(a.unreceived_devices == b.unreceived_devices);
    EXPECT_TRUE(a.mean_connected_seconds == b.mean_connected_seconds);
    EXPECT_TRUE(a.mean_light_sleep_seconds == b.mean_light_sleep_seconds);
    EXPECT_TRUE(a.completion_p99_ms == b.completion_p99_ms);
    EXPECT_TRUE(a.redelivery_bytes == b.redelivery_bytes);
    EXPECT_TRUE(a.stranded_devices == b.stranded_devices);
}

/// Full bit-exact equality of two DeploymentResults: fleet and per-cell
/// aggregates, cell-load samples, RACH percentiles across cells, and the
/// recorded per-(run, cell) spans.
inline void expect_deployment_results_equal(const multicell::DeploymentResult& a,
                                            const multicell::DeploymentResult& b) {
    expect_mechanism_stats_equal(a.unicast, b.unicast);
    ASSERT_EQ(a.mechanisms.size(), b.mechanisms.size());
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        expect_mechanism_stats_equal(a.mechanisms[m], b.mechanisms[m]);
    }
    ASSERT_EQ(a.cell_count(), b.cell_count());
    for (std::size_t c = 0; c < a.cell_count(); ++c) {
        EXPECT_EQ(a.cells[c].cell, b.cells[c].cell);
        EXPECT_TRUE(a.cells[c].devices == b.cells[c].devices);
        expect_mechanism_stats_equal(a.cells[c].unicast, b.cells[c].unicast);
        ASSERT_EQ(a.cells[c].mechanisms.size(), b.cells[c].mechanisms.size());
        for (std::size_t m = 0; m < a.cells[c].mechanisms.size(); ++m) {
            expect_mechanism_stats_equal(a.cells[c].mechanisms[m],
                                              b.cells[c].mechanisms[m]);
        }
    }
    EXPECT_TRUE(a.cell_load == b.cell_load);
    EXPECT_EQ(a.empty_cell_runs, b.empty_cell_runs);
    EXPECT_EQ(a.rach_collision_across_cells.count(),
              b.rach_collision_across_cells.count());
    for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
        EXPECT_EQ(a.rach_collision_across_cells.quantile(q),
                  b.rach_collision_across_cells.quantile(q));
    }
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].devices, b.spans[i].devices);
        EXPECT_EQ(a.spans[i].horizon_ms, b.spans[i].horizon_ms);
    }
}

}  // namespace nbmg::test_support
