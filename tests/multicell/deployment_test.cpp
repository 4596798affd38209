// Determinism contracts of the deployment engine:
//  - results are bit-identical under any worker-thread count, including
//    when spare workers run a task's strata or its campaigns side by side
//    (trace and metrics byte-identical too, an outage's recovery included),
//  - task_threads gives spare workers to strata first, then to campaigns,
//    and never more than the pool,
//  - class-affinity assignment reads each generated device's class,
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "snapshot/checkpoint.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"
#include "tests/support/deployment_equal.hpp"
#include "tests/support/same_render.hpp"
#include "traffic/population.hpp"

namespace nbmg::multicell {
namespace {

using test_support::expect_deployment_results_equal;
using test_support::expect_mechanism_stats_equal;
using test_support::same_render;

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

/// A run's result with the trace and metrics CSV a collector attached to
/// it rendered.
struct Observed {
    DeploymentResult result;
    std::string trace;
    std::string metrics;
};

Observed run_observed(DeploymentSetup setup) {
    telemetry::Collector collector{{.trace = true, .metrics = true},
                                   setup.runs,
                                   setup.topology.cell_count(),
                                   {"unicast", "dr-sc", "da-sc", "dr-si"}};
    setup.telemetry = &collector;
    Observed out{run_deployment(setup), {}, {}};
    out.trace = telemetry::trace_jsonl(collector);
    out.metrics = telemetry::metrics_table(collector).to_csv();
    return out;
}

void expect_observed_equal(const Observed& got, const Observed& want) {
    expect_deployment_results_equal(got.result, want.result);
    EXPECT_TRUE(same_render(got.trace, want.trace));
    EXPECT_TRUE(same_render(got.metrics, want.metrics));
}

TEST(DeploymentTest, SpareWorkersRunCampaignsBitIdentically) {
    // One run on one cell: the grid has 1 task, so from 2 threads on its
    // four campaign slots (the reference and the three mechanisms) run
    // side by side, each writing its own collector sink.
    DeploymentSetup setup = small_setup();
    setup.device_count = 300;
    setup.runs = 1;
    const Observed serial = run_observed(setup);
    ASSERT_FALSE(serial.trace.empty());
    for (const std::size_t threads : {2, 3, 4, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        setup.threads = threads;
        expect_observed_equal(run_observed(setup), serial);
    }
}

TEST(DeploymentTest, SpareWorkersRunOutageRecoveryBitIdentically) {
    // Two cells, one run, 8 threads: each task gets 4 spare workers, so
    // the down cell runs its four campaigns, and their recovery passes, at
    // once.
    DeploymentSetup setup = small_setup();
    setup.device_count = 300;
    setup.runs = 1;
    setup.topology = CellTopology::uniform(2);
    setup.cell_down = faults::OutageSpec{1, 60'000};
    const Observed serial = run_observed(setup);
    double stranded = serial.result.unicast.stranded_devices.sum();
    for (const core::MechanismStats& m : serial.result.mechanisms) {
        stranded += m.stranded_devices.sum();
    }
    ASSERT_GT(stranded, 0.0);  // the outage hit devices
    setup.threads = 8;
    expect_observed_equal(run_observed(setup), serial);
}

TEST(DeploymentTest, TaskThreadsGiveStrataThenCampaignsTheSpareWorkers) {
    struct Case {
        std::size_t workers, tasks, campaigns, strata;
        TaskThreads want;
    };
    const Case cases[] = {
        {4, 1, 2, 1, {2, 1}},    // one DR-SI cell: the reference runs beside it
        {4, 1, 2, 8, {1, 4}},    // megacell: the strata fill the spare workers
        {8, 1, 4, 2, {4, 2}},
        {8, 2, 4, 1, {4, 1}},
        {4, 3, 4, 1, {1, 1}},    // 4 / 3 leaves one worker per task
        {4, 150, 4, 1, {1, 1}},  // a full grid runs every slot inline
    };
    for (const Case& c : cases) {
        const TaskThreads got = task_threads(c.workers, c.tasks, c.campaigns, c.strata);
        EXPECT_TRUE(got == c.want) << c.workers << " workers, " << c.tasks << " tasks, "
                                   << c.campaigns << " campaigns, " << c.strata
                                   << " strata -> (" << got.campaigns << ", "
                                   << got.strata << ")";
    }
    for (std::size_t workers = 1; workers <= 9; ++workers) {
        for (std::size_t tasks = 1; tasks <= 9; ++tasks) {
            for (std::size_t campaigns = 1; campaigns <= 5; ++campaigns) {
                for (std::size_t strata = 1; strata <= 32; strata *= 2) {
                    const TaskThreads t = task_threads(workers, tasks, campaigns, strata);
                    EXPECT_GE(t.campaigns, 1u);
                    EXPECT_LE(t.campaigns, campaigns);
                    EXPECT_GE(t.strata, 1u);
                    EXPECT_LE(t.strata, strata);
                    EXPECT_LE(tasks * t.campaigns * t.strata, std::max(tasks, workers))
                        << workers << " workers, " << tasks << " tasks";
                }
            }
        }
    }
}

TEST(DeploymentTest, ClassAffinityLoadsArePinnedAndThreadInvariant) {
    // The engine generates each run's fleet inside its shard task and hands
    // the devices' profile classes to the class-affinity policy.  The
    // per-cell loads (summed over the 3 runs) were recorded when fleets and
    // classes were pre-generated outside the engine; their skew (a uniform
    // hash gives 87/84/87/102) is the classes at work.
    DeploymentSetup setup = small_setup();
    setup.device_count = 120;
    setup.topology = CellTopology::uniform(4);
    setup.assignment = AssignmentPolicy::class_affinity;
    const DeploymentResult serial = run_deployment(setup);
    const double pinned[] = {43.0, 17.0, 182.0, 118.0};
    ASSERT_EQ(serial.cell_count(), std::size(pinned));
    for (std::size_t c = 0; c < serial.cell_count(); ++c) {
        EXPECT_EQ(serial.cells[c].devices.sum(), pinned[c]) << "cell " << c;
    }
    EXPECT_EQ(serial.mechanisms.front().transmissions.sum(), 238.0);

    setup.threads = 4;
    expect_deployment_results_equal(run_deployment(setup), serial);
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

/// Rewrites the u64 at `offset` of one slot's blob in a saved journal and
/// re-seals the record's checksum, so only the semantic checks can object.
void rewrite_slot_u64(const std::string& from, const std::string& to,
                      std::uint64_t slot, std::size_t offset, std::uint64_t value) {
    std::vector<snapshot::Section> sections = snapshot::read_snapshot_file(from);
    for (snapshot::Section& section : sections) {
        if (section.id != snapshot::kJournalRecordSection) continue;
        // Record payload: u64 slot, the blob, u64 FNV-1a over both.
        std::vector<std::uint8_t>& payload = section.payload;
        snapshot::Reader r(payload, "slot record");
        if (r.take_u64() != slot) continue;
        snapshot::Writer patch;
        patch.put_u64(value);
        std::copy(patch.buffer().begin(), patch.buffer().end(),
                  payload.begin() + 8 + static_cast<std::ptrdiff_t>(offset));
        snapshot::Writer seal;
        seal.put_u64(snapshot::fnv1a64(std::span(payload).first(payload.size() - 8)));
        std::copy(seal.buffer().begin(), seal.buffer().end(), payload.end() - 8);
    }
    snapshot::write_snapshot_file(to, sections);
}

TEST(DeploymentTest, RestoredSlotMustMatchItsShard) {
    // A record checksum catches damage, not a crafted record: a slot's
    // device count and horizon are checked against the shard this run
    // assigns to its cell, and every campaign's device count against the
    // slot's.
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
