// Determinism contracts of the deployment engine:
//  - results are bit-identical under any worker-thread count, including
//    when spare workers run a task's strata,
//  - shared populations are validated and bit-identical to regeneration,
//  - the fleet's count-valued totals are the sums of its cells',
//  - a restored checkpoint slot whose device count or horizon disagrees
//    with its cell's shard is refused.
// The 1-cell deployment's single-cell goldens are pinned in
// tests/scenario/scenario_golden_test.cpp.
#include "multicell/deployment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "snapshot/checkpoint.hpp"
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
    EXPECT_EQ(result.unicast.transmissions.count(),
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
    expect_mechanism_stats_equal(choked.cells[0].unicast,
                                 baseline.cells[0].unicast);
    expect_mechanism_stats_equal(choked.cells[0].mechanisms[1],
                                 baseline.cells[0].mechanisms[1]);
    EXPECT_NE(choked.cells[1].mechanisms[1].mean_connected_seconds.mean(),
              baseline.cells[1].mechanisms[1].mean_connected_seconds.mean());
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

TEST(DeploymentTest, FleetCountsAreSumsOfCellCounts) {
    // Outage (with self-healing onto the survivors), churn, and more cells
    // than the fleet fills, so some (run, cell) pairs are empty.
    DeploymentSetup setup = small_setup();
    setup.device_count = 48;
    setup.topology = CellTopology::uniform(24);
    setup.config.churn = faults::ChurnSpec{2.0, 120'000};
    setup.cell_down = faults::OutageSpec{1, 60'000};
    const DeploymentResult result = run_deployment(setup);
    ASSERT_GT(result.empty_cell_runs, 0u);

    using Field = stats::Summary core::MechanismStats::*;
    const Field counts[] = {&core::MechanismStats::transmissions,
                            &core::MechanismStats::recovery_transmissions,
                            &core::MechanismStats::unreceived_devices,
                            &core::MechanismStats::stranded_devices,
                            &core::MechanismStats::redelivery_bytes};
    double stranded = 0.0;
    for (std::size_t slot = 0; slot <= setup.mechanisms.size(); ++slot) {
        const auto pick = [slot](const auto& aggregates) -> const core::MechanismStats& {
            return slot == 0 ? aggregates.unicast : aggregates.mechanisms[slot - 1];
        };
        for (const Field field : counts) {
            const stats::Summary& fleet = pick(result).*field;
            double cell_sum = 0.0;
            std::uint64_t cell_samples = 0;
            for (const CellAggregates& cell : result.cells) {
                cell_sum += (pick(cell).*field).sum();
                cell_samples += (pick(cell).*field).count();
            }
            EXPECT_EQ(std::llround(cell_sum), std::llround(fleet.sum())) << "slot " << slot;
            EXPECT_EQ(fleet.count(), setup.runs) << "slot " << slot;
            EXPECT_EQ(cell_samples, setup.runs * 24 - result.empty_cell_runs)
                << "slot " << slot;
        }
        stranded += pick(result).stranded_devices.sum();
    }
    EXPECT_GT(stranded, 0.0);  // the outage hit devices
}

/// Rewrites the u64 at `offset` of one slot's blob in a saved snapshot.
void rewrite_slot_u64(const std::string& from, const std::string& to,
                      std::uint64_t slot, std::size_t offset, std::uint64_t value) {
    std::vector<snapshot::Section> sections = snapshot::read_snapshot_file(from);
    for (snapshot::Section& section : sections) {
        if (section.id != 2) continue;  // the slot table (snapshot/checkpoint.cpp)
        snapshot::Reader r(section.payload, "slot table");
        snapshot::Writer w;
        const std::uint64_t count = r.take_u64();
        w.put_u64(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t index = r.take_u64();
            std::vector<std::uint8_t> blob = r.take_blob();
            if (index == slot) {
                snapshot::Writer patch;
                patch.put_u64(value);
                std::copy(patch.buffer().begin(), patch.buffer().end(),
                          blob.begin() + static_cast<std::ptrdiff_t>(offset));
            }
            w.put_u64(index);
            w.put_blob(blob);
        }
        section.payload = w.take();
    }
    snapshot::write_snapshot_file(to, sections);
}

TEST(DeploymentTest, RestoredSlotMustMatchItsShard) {
    // A snapshot has no checksum: a slot's device count and horizon are
    // checked against the shard this run assigns to its cell, and every
    // campaign's device count against the slot's.
    DeploymentSetup setup = small_setup();
    setup.device_count = 120;
    setup.runs = 2;
    setup.topology = CellTopology::uniform(4);
    const snapshot::CheckpointHeader header{7, setup.runs, 4, setup.mechanisms.size() + 1};
    const std::string saved = testing::TempDir() + "deployment_slot_saved.bin";
    const std::string tampered = testing::TempDir() + "deployment_slot_tampered.bin";
    snapshot::CheckpointContext writer(header, saved, 0, 0);
    setup.checkpoint = &writer;
    const DeploymentResult baseline = run_deployment(setup);
    writer.save_final();
    const auto resume = [&](const std::string& path) {
        snapshot::CheckpointContext checkpoint(header, "", 0, 0);
        checkpoint.load(path);
        setup.checkpoint = &checkpoint;
        return run_deployment(setup);
    };
    // Untouched, and with slot 1's device count rewritten to its own value,
    // the snapshot resumes to the uninterrupted result.
    expect_deployment_results_equal(resume(saved), baseline);
    rewrite_slot_u64(saved, tampered, 1, 0, baseline.spans[1].devices);
    expect_deployment_results_equal(resume(tampered), baseline);

    // Blob layout: u64 devices at offset 0, i64 horizon_ms at 8, then slot
    // 0's totals, whose first field (offset 16) is its device count.
    const std::uint64_t horizon = static_cast<std::uint64_t>(baseline.spans[1].horizon_ms);
    const std::pair<std::size_t, std::uint64_t> tamperings[] = {
        {0, 0}, {0, 7}, {0, 100'000}, {8, horizon + 1}, {16, 0}};
    for (const auto& [offset, value] : tamperings) {
        rewrite_slot_u64(saved, tampered, 1, offset, value);
        EXPECT_THROW((void)resume(tampered), snapshot::SnapshotError)
            << "offset " << offset << " value " << value;
    }
    std::remove(saved.c_str());
    std::remove(tampered.c_str());
}

}  // namespace
}  // namespace nbmg::multicell
