// Determinism contracts of the deployment engine:
//  - results are bit-identical under any worker-thread count, including
//    when spare workers run a task's strata,
//  - shared populations are validated and bit-identical to regeneration.
// The 1-cell deployment's single-cell goldens are pinned in
// tests/scenario/scenario_golden_test.cpp.
#include "multicell/deployment.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "tests/support/deployment_equal.hpp"
#include "traffic/population.hpp"

namespace nbmg::multicell {
namespace {

using test_support::expect_deployment_results_equal;
using test_support::expect_mechanism_stats_equal;

DeploymentSetup small_setup() {
    DeploymentSetup setup;
    setup.profile = traffic::massive_iot_city();
    setup.device_count = 60;
    setup.payload_bytes = 20 * 1024;
    setup.runs = 3;
    setup.base_seed = 42;
    setup.threads = 1;
    return setup;
}

TEST(DeploymentTest, CellSeedRootDegeneratesToBaseSeed) {
    EXPECT_EQ(cell_seed_root(42, 1, 0), 42u);
    EXPECT_NE(cell_seed_root(42, 2, 0), 42u);
    EXPECT_NE(cell_seed_root(42, 2, 0), cell_seed_root(42, 2, 1));
}

TEST(DeploymentTest, ThreadCountInvarianceAtFourCells) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 120;
    setup.topology = CellTopology::uniform(4);
    setup.assignment = AssignmentPolicy::uniform_hash;

    setup.threads = 1;
    const DeploymentResult serial = run_deployment(setup);
    setup.threads = 4;
    expect_deployment_results_equal(run_deployment(setup), serial);
}

TEST(DeploymentTest, SpareWorkersRunStrataBitIdentically) {
    // One run on two cells at 8 threads: the grid has 2 tasks, so each
    // task's 8 strata get 4 workers.
    DeploymentSetup setup = small_setup();
    setup.device_count = 200;
    setup.runs = 1;
    setup.config.strata = 8;
    setup.topology = CellTopology::uniform(2);

    setup.threads = 1;
    const DeploymentResult serial = run_deployment(setup);
    setup.threads = 8;
    expect_deployment_results_equal(run_deployment(setup), serial);
}

TEST(DeploymentTest, SharedPopulationsBitIdenticalToRegeneration) {
    DeploymentSetup setup = small_setup();
    setup.topology = CellTopology::uniform(3);
    const DeploymentResult fresh = run_deployment(setup);

    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs, setup.base_seed);
    expect_deployment_results_equal(run_deployment(setup), fresh);
}

TEST(DeploymentTest, CellLoadAccountsEveryDevice) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 90;
    setup.topology = CellTopology::hotspot(5, 1.0);
    setup.assignment = AssignmentPolicy::hotspot;
    const DeploymentResult result = run_deployment(setup);
    // cell_load has one sample per (run, cell); the per-run samples sum to
    // the fleet size, so the overall mean is fleet / cells.
    EXPECT_EQ(result.cell_load.count(),
              static_cast<std::uint64_t>(setup.runs * 5));
    EXPECT_DOUBLE_EQ(result.cell_load.mean() * 5.0,
                     static_cast<double>(setup.device_count));
}

TEST(DeploymentTest, ManyCellsFewDevicesSkipsEmptyCells) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 8;
    setup.runs = 2;
    setup.topology = CellTopology::uniform(32);
    const DeploymentResult result = run_deployment(setup);
    EXPECT_GT(result.empty_cell_runs, 0u);
    // Fleet-wide samples still exist for every run.
    EXPECT_EQ(result.unicast.stats.transmissions.count(),
              static_cast<std::uint64_t>(setup.runs));
}

TEST(DeploymentTest, PagingCapacityOverrideApplies) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 150;
    setup.runs = 2;
    setup.topology = CellTopology::uniform(2);
    // Choke cell 1's paging channel: page records per PO drops to 1, so the
    // same camped population needs more paging messages there.
    setup.topology.cells[1].max_page_records_override = 1;
    const DeploymentResult choked = run_deployment(setup);

    DeploymentSetup plain = setup;
    plain.topology.cells[1].max_page_records_override = 0;
    const DeploymentResult baseline = run_deployment(plain);

    // The choked cell's aggregates must differ from the unconstrained run —
    // DA-SC is the sensitive mechanism (its DRX-reconfiguration pages slip
    // when occasions fill up); cell 0 is untouched.
    expect_mechanism_stats_equal(choked.cells[0].unicast.stats,
                                 baseline.cells[0].unicast.stats);
    expect_mechanism_stats_equal(choked.cells[0].mechanisms[1].stats,
                                 baseline.cells[0].mechanisms[1].stats);
    EXPECT_NE(choked.cells[1].mechanisms[1].stats.mean_connected_seconds.mean(),
              baseline.cells[1].mechanisms[1].stats.mean_connected_seconds.mean());
}

TEST(DeploymentTest, InvalidSetupsThrow) {
    DeploymentSetup setup = small_setup();
    setup.runs = 0;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.device_count = 0;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.topology.cells.clear();
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // Shared populations with the wrong provenance.
    setup = small_setup();
    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs, setup.base_seed + 1);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs - 1, setup.base_seed);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // class_affinity requires class indices alongside the shared specs.
    setup = small_setup();
    setup.assignment = AssignmentPolicy::class_affinity;
    auto stripped = std::make_shared<core::ComparisonPopulations>(
        *core::generate_comparison_populations(setup.profile, setup.device_count,
                                               setup.runs, setup.base_seed));
    stripped->class_indices.clear();
    setup.populations = stripped;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);
}

}  // namespace
}  // namespace nbmg::multicell
