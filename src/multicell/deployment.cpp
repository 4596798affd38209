#include "multicell/deployment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/planners.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "telemetry/collector.hpp"

namespace nbmg::multicell {
namespace {

/// Raw totals of one executed campaign on one cell in one run.  Cell
/// totals are summed (in cell order) into fleet totals before any ratio is
/// formed, so fleet aggregates are genuine fleet-level numbers rather than
/// means of per-cell ratios.
struct CellRunTotals {
    std::size_t devices = 0;
    std::size_t transmissions = 0;
    std::size_t recovery_transmissions = 0;
    std::size_t unreceived = 0;
    double light_sleep_ms = 0.0;
    double connected_ms = 0.0;
    std::int64_t bytes_on_air = 0;
    std::uint64_t rach_attempts = 0;
    std::uint64_t rach_collisions = 0;
    std::size_t stranded = 0;
    std::int64_t redelivery_bytes = 0;
    double completion_p99_ms = 0.0;

    void accumulate(const CellRunTotals& other) noexcept {
        devices += other.devices;
        transmissions += other.transmissions;
        recovery_transmissions += other.recovery_transmissions;
        unreceived += other.unreceived;
        light_sleep_ms += other.light_sleep_ms;
        connected_ms += other.connected_ms;
        bytes_on_air += other.bytes_on_air;
        rach_attempts += other.rach_attempts;
        rach_collisions += other.rach_collisions;
        stranded += other.stranded;
        redelivery_bytes += other.redelivery_bytes;
        // Cells run independent campaigns on a shared wall clock, so the
        // fleet's completion tail is bounded by the slowest cell's tail —
        // a max, not a sum.
        completion_p99_ms = std::max(completion_p99_ms, other.completion_p99_ms);
    }
};

CellRunTotals totals_from(const core::CampaignResult& result) {
    CellRunTotals t;
    t.devices = result.devices.size();
    t.transmissions = result.total_transmissions();
    t.recovery_transmissions = result.recovery_transmissions;
    t.unreceived = result.devices.size() - result.received_count();
    t.light_sleep_ms = core::total_light_sleep_ms(result);
    t.connected_ms = core::total_connected_ms(result);
    t.bytes_on_air = result.bytes_on_air;
    t.rach_attempts = result.rach_attempts;
    t.rach_collisions = result.rach_collisions;
    t.stranded = result.stranded;
    t.redelivery_bytes = result.redelivery_bytes;
    t.completion_p99_ms = core::completion_p99_ms(result);
    return t;
}

/// Self-healing pass of the down cell: every device its stopped campaign
/// left without the payload is deterministically re-assigned to a
/// surviving cell (the existing assignment machinery over the reduced
/// topology; class_affinity re-hashes uniformly because the fleet's class
/// indices do not survive the shard) and served by an analytic serialized
/// unicast re-delivery there — one re-attach exchange plus the payload
/// airtime per adopted device, queued per neighbor from the outage
/// instant.  Adjusts the totals in place: re-delivered devices stop
/// counting as unreceived, their bytes and completion instants join the
/// tallies, and `stranded` keeps the outage's raw hit count.  The
/// redelivery records go to the campaign's own sink, config.telemetry.
void apply_outage_recovery(CellRunTotals& t, const DeploymentSetup& setup,
                           const core::CampaignConfig& config,
                           const core::CampaignResult& result) {
    std::vector<nbiot::UeSpec> stranded_specs;
    for (const core::DeviceOutcome& d : result.devices) {
        if (!d.received) stranded_specs.push_back(d.spec);
    }
    if (stranded_specs.empty()) return;

    CellTopology survivors;
    for (const CellSite& site : setup.topology.cells) {
        if (site.id == setup.cell_down->cell) continue;
        CellSite s = site;
        s.id = static_cast<std::uint32_t>(survivors.cells.size());
        survivors.cells.push_back(s);
    }
    if (survivors.cells.empty()) return;  // nobody left to heal into

    const AssignmentPolicy policy =
        setup.assignment == AssignmentPolicy::class_affinity
            ? AssignmentPolicy::uniform_hash
            : setup.assignment;
    const DeviceAssignment assignment =
        assign_devices(survivors, stranded_specs, {}, policy, setup.base_seed);

    std::vector<std::int64_t> completion;
    completion.reserve(result.devices.size());
    for (const core::DeviceOutcome& d : result.devices) {
        if (d.received && d.released_at) completion.push_back(d.released_at->count());
    }

    const nbiot::RadioModel radio(config.radio);
    const std::int64_t reattach_ms = config.rach.attempt_active_time().count() +
                                     config.timing.rrc_setup.count() +
                                     config.timing.rrc_release.count();
    const std::int64_t reattach_bytes = config.sizes.rach_exchange +
                                        config.sizes.rrc_setup_exchange +
                                        config.sizes.rrc_release;
    std::vector<std::int64_t> feed_clock(survivors.cells.size(),
                                         setup.cell_down->at_ms);
    for (std::size_t i = 0; i < stranded_specs.size(); ++i) {
        const std::uint32_t target = assignment.cell_of_device[i];
        feed_clock[target] +=
            reattach_ms +
            radio.downlink_airtime(result.payload_bytes, stranded_specs[i].ce_level)
                .count();
        completion.push_back(feed_clock[target]);
        t.redelivery_bytes += result.payload_bytes;
        t.bytes_on_air += result.payload_bytes + reattach_bytes;
        NBMG_TELEMETRY_EMIT(config.telemetry, telemetry::EventKind::redelivery,
                            feed_clock[target], stranded_specs[i].device.value,
                            result.payload_bytes, 1);
    }
    t.unreceived -= stranded_specs.size();
    t.completion_p99_ms = core::nearest_rank_p99(completion);
}

/// One (run, cell) contribution: every campaign, executed on this cell's
/// camped devices only.
struct CellRunOutcome {
    std::size_t devices = 0;  // 0 = empty cell, nothing executed
    std::int64_t horizon_ms = 0;
    /// Slot 0 is the unicast reference, slot m + 1 is setup.mechanisms[m].
    std::vector<CellRunTotals> campaigns;
};

/// The mechanism campaign `slot` runs (see CellRunOutcome::campaigns).
core::MechanismKind slot_kind(const DeploymentSetup& setup, std::size_t slot) {
    return slot == 0 ? core::MechanismKind::unicast : setup.mechanisms[slot - 1];
}

/// The aggregates of campaign `slot` in a DeploymentResult or CellAggregates.
template <class Aggregates>
core::MechanismStats& slot_stats(Aggregates& aggregates, std::size_t slot) {
    return slot == 0 ? aggregates.unicast : aggregates.mechanisms[slot - 1];
}

CellRunOutcome run_cell(const DeploymentSetup& setup,
                        std::span<const nbiot::UeSpec> specs,
                        const core::CampaignConfig& config,
                        std::uint64_t cell_root, std::size_t run,
                        std::size_t cell, std::size_t strata_threads) {
    CellRunOutcome out;
    out.devices = specs.size();
    out.campaigns.resize(setup.mechanisms.size() + 1);
    if (specs.empty()) return out;

    // One horizon and one execution seed shared by every campaign of this
    // cell's run.
    const sim::RngFactory rng_factory(cell_root);
    const nbiot::SimTime horizon =
        core::recommended_horizon(specs, config, setup.payload_bytes);
    out.horizon_ms = horizon.count();
    const std::uint64_t run_seed = sim::derive_seed(cell_root, "run", run);

    // The down cell's campaigns stop at the outage and hand their
    // incomplete devices to the surviving cells.
    const bool outage_here =
        setup.cell_down && config.outage_at_ms >= 1 &&
        setup.cell_down->cell == cell && setup.cell_down->at_ms < out.horizon_ms;

    for (std::size_t slot = 0; slot < out.campaigns.size(); ++slot) {
        const auto mechanism = core::make_mechanism(slot_kind(setup, slot));
        // The reference plans on its own stream, even when a mechanism slot
        // also runs unicast.
        sim::RandomStream plan_rng =
            rng_factory.stream(slot == 0 ? "plan-unicast" : mechanism->name(), run);
        // Telemetry: each (run, cell, campaign) writes its own pre-allocated
        // collector slot; the pointer is the only config field that differs.
        core::CampaignConfig campaign_config = config;
        if (setup.telemetry != nullptr) {
            campaign_config.telemetry = setup.telemetry->sink(run, cell, slot);
        }
        const core::MulticastPlan plan =
            mechanism->plan(specs, campaign_config, plan_rng);
        const core::CampaignResult result =
            core::CampaignRunner(campaign_config, strata_threads)
                .run(plan, specs, setup.payload_bytes, horizon, run_seed);
        out.campaigns[slot] = totals_from(result);
        if (outage_here) {
            apply_outage_recovery(out.campaigns[slot], setup, campaign_config, result);
        }
    }
    return out;
}

void put_totals(snapshot::Writer& w, const CellRunTotals& t) {
    w.put_u64(t.devices);
    w.put_u64(t.transmissions);
    w.put_u64(t.recovery_transmissions);
    w.put_u64(t.unreceived);
    w.put_f64(t.light_sleep_ms);
    w.put_f64(t.connected_ms);
    w.put_i64(t.bytes_on_air);
    w.put_u64(t.rach_attempts);
    w.put_u64(t.rach_collisions);
    w.put_u64(t.stranded);
    w.put_i64(t.redelivery_bytes);
    w.put_f64(t.completion_p99_ms);
}

CellRunTotals take_totals(snapshot::Reader& r) {
    CellRunTotals t;
    t.devices = r.take_u64();
    t.transmissions = r.take_u64();
    t.recovery_transmissions = r.take_u64();
    t.unreceived = r.take_u64();
    t.light_sleep_ms = r.take_f64();
    t.connected_ms = r.take_f64();
    t.bytes_on_air = r.take_i64();
    t.rach_attempts = r.take_u64();
    t.rach_collisions = r.take_u64();
    t.stranded = r.take_u64();
    t.redelivery_bytes = r.take_i64();
    t.completion_p99_ms = r.take_f64();
    return t;
}

/// Checkpoint slot blob of one (run, cell) task: the raw campaign totals
/// — the reference's, the mechanism count, then the mechanisms' — plus,
/// when a collector is attached, the sinks this task filled.
std::vector<std::uint8_t> encode_cell_outcome(const DeploymentSetup& setup,
                                              std::size_t run, std::size_t cell,
                                              const CellRunOutcome& out) {
    snapshot::Writer w;
    w.put_u64(out.devices);
    w.put_i64(out.horizon_ms);
    put_totals(w, out.campaigns.front());
    w.put_u64(out.campaigns.size() - 1);
    for (const CellRunTotals& t : std::span(out.campaigns).subspan(1)) put_totals(w, t);
    w.put_u8(setup.telemetry != nullptr ? 1 : 0);
    if (setup.telemetry != nullptr) {
        for (std::size_t slot = 0; slot < out.campaigns.size(); ++slot) {
            snapshot::put_sink(w, *setup.telemetry->sink(run, cell, slot));
        }
    }
    return w.take();
}

/// Inverse of encode_cell_outcome; also restores the task's collector
/// sinks.  The journal's record checksum catches damage, not a crafted
/// record, so the slot's device counts and horizon are checked against
/// `specs`, the shard this run assigns to the cell, under the cell's
/// `config`.  Runs inside the sweep worker that owns
/// this grid slot, so the sink writes stay single-writer.
CellRunOutcome decode_cell_outcome(const DeploymentSetup& setup, std::size_t run,
                                   std::size_t cell,
                                   std::span<const nbiot::UeSpec> specs,
                                   const core::CampaignConfig& config,
                                   const std::vector<std::uint8_t>& blob) {
    const std::string label = "checkpoint slot (run " + std::to_string(run) +
                              ", cell " + std::to_string(cell) + ")";
    snapshot::Reader r(blob, label);
    CellRunOutcome out;
    out.devices = r.take_u64();
    out.horizon_ms = r.take_i64();
    out.campaigns.push_back(take_totals(r));
    const std::uint64_t mechanism_count = r.take_u64();
    if (mechanism_count != setup.mechanisms.size()) {
        throw snapshot::SnapshotError(
            label + ": " + std::to_string(mechanism_count) +
            " mechanisms in snapshot, setup has " +
            std::to_string(setup.mechanisms.size()));
    }
    for (std::size_t m = 0; m < mechanism_count; ++m) {
        out.campaigns.push_back(take_totals(r));
    }
    const std::int64_t horizon_ms =
        specs.empty()
            ? 0
            : core::recommended_horizon(specs, config, setup.payload_bytes).count();
    if (out.devices != specs.size() || out.horizon_ms != horizon_ms ||
        !std::ranges::all_of(out.campaigns, [&](const CellRunTotals& t) {
            return t.devices == out.devices;
        })) {
        throw snapshot::SnapshotError(
            label + ": device counts or horizon disagree with the cell's shard (" +
            std::to_string(specs.size()) + " devices over " +
            std::to_string(horizon_ms) + " ms)");
    }
    const bool had_telemetry = r.take_u8() != 0;
    if (had_telemetry != (setup.telemetry != nullptr)) {
        throw snapshot::SnapshotError(
            label + ": telemetry attachment differs from the checkpointed run");
    }
    if (setup.telemetry != nullptr) {
        for (std::size_t slot = 0; slot < out.campaigns.size(); ++slot) {
            snapshot::restore_sink(r, *setup.telemetry->sink(run, cell, slot));
        }
    }
    r.expect_end();
    return out;
}

/// Merges one run's totals `m` of a campaign into `into`, against the
/// same-scope unicast reference `u`: core::relative_uptime /
/// bandwidth_comparison applied to the summed totals, including their
/// zero-baseline guards.  The `reference` itself (m = u) takes no increase
/// samples and a bytes ratio of exactly 1.  Every sample is merged as a
/// one-sample stats::Summary: the merge path rounds differently from
/// Summary::add, and the pinned single-cell goldens are defined by it.
void merge_run(core::MechanismStats& into, const CellRunTotals& m,
               const CellRunTotals& u, bool reference) {
    const auto merge = [](stats::Summary& summary, double sample) {
        stats::Summary one;
        one.add(sample);
        summary.merge(one);
    };
    const double n = static_cast<double>(m.devices);
    if (!reference) {
        merge(into.light_sleep_increase,
              u.light_sleep_ms > 0.0 ? m.light_sleep_ms / u.light_sleep_ms - 1.0 : 0.0);
        merge(into.connected_increase,
              u.connected_ms > 0.0 ? m.connected_ms / u.connected_ms - 1.0 : 0.0);
    }
    merge(into.transmissions, static_cast<double>(m.transmissions));
    merge(into.transmissions_per_device, static_cast<double>(m.transmissions) / n);
    const double bytes_ratio =
        u.bytes_on_air > 0
            ? static_cast<double>(m.bytes_on_air) / static_cast<double>(u.bytes_on_air)
            : 0.0;
    merge(into.bytes_ratio, reference ? 1.0 : bytes_ratio);
    merge(into.recovery_transmissions, static_cast<double>(m.recovery_transmissions));
    merge(into.unreceived_devices, static_cast<double>(m.unreceived));
    merge(into.mean_connected_seconds, m.connected_ms / n / 1000.0);
    merge(into.mean_light_sleep_seconds, m.light_sleep_ms / n / 1000.0);
    merge(into.completion_p99_ms, m.completion_p99_ms);
    merge(into.redelivery_bytes, static_cast<double>(m.redelivery_bytes));
    merge(into.stranded_devices, static_cast<double>(m.stranded));
}

}  // namespace

std::uint64_t cell_seed_root(std::uint64_t base_seed, std::size_t cell_count,
                             std::uint32_t cell) noexcept {
    return cell_count == 1 ? base_seed : sim::derive_seed(base_seed, "cell", cell);
}

DeploymentResult run_deployment(const DeploymentSetup& setup) {
    if (setup.runs == 0 || setup.device_count == 0) {
        throw std::invalid_argument("run_deployment: empty setup");
    }
    if (!setup.topology.valid()) {
        throw std::invalid_argument("run_deployment: invalid topology");
    }

    const std::size_t cells = setup.topology.cell_count();

    // Per-cell campaign configs (paging-capacity overrides).
    std::vector<core::CampaignConfig> cell_configs(cells, setup.config);
    for (std::size_t c = 0; c < cells; ++c) {
        const int override_records = setup.topology.cells[c].max_page_records_override;
        if (override_records > 0) {
            cell_configs[c].paging.max_page_records = override_records;
        }
    }
    if (setup.cell_down) {
        if (!setup.cell_down->valid() || setup.cell_down->cell >= cells) {
            throw std::invalid_argument(
                "run_deployment: faults.cell_down names cell " +
                std::to_string(setup.cell_down->cell) + " of " +
                std::to_string(cells) + " (or a non-positive outage time)");
        }
        cell_configs[setup.cell_down->cell].outage_at_ms = setup.cell_down->at_ms;
    }

    // Phase 1 — generate every run's fleet and shard it into per-cell spec
    // slices (local dense device ids, fleet order preserved within a cell).
    // The fleet depends only on (base seed, run) and assignment hashes IMSIs
    // against the base seed, so the map is independent of the thread count.
    struct RunShards {
        std::vector<std::vector<nbiot::UeSpec>> cell_specs;
    };
    const std::vector<RunShards> shards = core::sweep_indexed(
        setup.runs, setup.threads, [&](std::size_t run) {
            RunShards out;
            out.cell_specs.resize(cells);
            const std::vector<traffic::GeneratedDevice> population = core::run_population(
                setup.profile, setup.device_count, setup.base_seed, run);
            const std::vector<nbiot::UeSpec> fleet = traffic::to_specs(population);
            std::vector<std::uint32_t> classes;
            if (setup.assignment == AssignmentPolicy::class_affinity) {
                classes.reserve(population.size());
                for (const traffic::GeneratedDevice& device : population) {
                    classes.push_back(static_cast<std::uint32_t>(device.class_index));
                }
            }
            const DeviceAssignment assignment = assign_devices(
                setup.topology, fleet, classes, setup.assignment, setup.base_seed);
            for (std::size_t c = 0; c < cells; ++c) {
                out.cell_specs[c].reserve(assignment.cell_sizes[c]);
            }
            for (std::size_t d = 0; d < fleet.size(); ++d) {
                std::vector<nbiot::UeSpec>& bucket =
                    out.cell_specs[assignment.cell_of_device[d]];
                nbiot::UeSpec spec = fleet[d];
                spec.device =
                    nbiot::DeviceId{static_cast<std::uint32_t>(bucket.size())};
                bucket.push_back(spec);
            }
            return out;
        });

    // Phase 2 — every (run, cell) campaign is an independent event loop;
    // fan the whole grid across the pool.  Grid tasks take the workers
    // first; when there are fewer tasks than workers, the spare ones run
    // each task's strata, so the pool is never oversubscribed.
    const std::size_t tasks = setup.runs * cells;
    const std::size_t workers = core::resolve_threads(setup.threads);
    const std::size_t strata_threads = tasks >= workers ? 1 : workers / tasks;
    const std::vector<CellRunOutcome> outcomes = core::sweep_indexed(
        tasks, setup.threads, [&](std::size_t slot) {
            const std::size_t run = slot / cells;
            const std::size_t cell = slot % cells;
            snapshot::CheckpointContext* const checkpoint = setup.checkpoint;
            if (checkpoint != nullptr) {
                if (const std::vector<std::uint8_t>* blob =
                        checkpoint->restored(slot)) {
                    return decode_cell_outcome(setup, run, cell,
                                               shards[run].cell_specs[cell],
                                               cell_configs[cell], *blob);
                }
                // Once the stop budget fired, remaining slots return a
                // dummy: the pending CheckpointStop unwinds the sweep
                // before any outcome is reduced.
                if (checkpoint->stopping()) return CellRunOutcome{};
            }
            CellRunOutcome out = run_cell(
                setup, shards[run].cell_specs[cell], cell_configs[cell],
                cell_seed_root(setup.base_seed, cells,
                               static_cast<std::uint32_t>(cell)),
                run, cell, strata_threads);
            if (checkpoint != nullptr) {
                checkpoint->complete_slot(
                    slot, encode_cell_outcome(setup, run, cell, out),
                    out.horizon_ms);
            }
            return out;
        });

    // Phase 3 — reduce in (run, cell, slot) order on this thread.
    DeploymentResult result;
    for (const core::MechanismKind kind : setup.mechanisms) {
        result.mechanisms.emplace_back().kind = kind;
    }
    result.cells.resize(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        result.cells[c].cell = static_cast<std::uint32_t>(c);
        result.cells[c].mechanisms = result.mechanisms;
    }

    result.spans.reserve(outcomes.size());
    for (const CellRunOutcome& outcome : outcomes) {
        result.spans.push_back(CellRunSpan{outcome.devices, outcome.horizon_ms});
    }

    const std::size_t slots = setup.mechanisms.size() + 1;
    std::vector<CellRunTotals> fleet(slots);
    for (std::size_t run = 0; run < setup.runs; ++run) {
        fleet.assign(slots, CellRunTotals{});
        for (std::size_t c = 0; c < cells; ++c) {
            const CellRunOutcome& outcome = outcomes[run * cells + c];
            CellAggregates& agg = result.cells[c];
            result.cell_load.add(static_cast<double>(outcome.devices));
            agg.devices.add(static_cast<double>(outcome.devices));
            if (outcome.devices == 0) {
                ++result.empty_cell_runs;
                continue;
            }
            const std::vector<CellRunTotals>& t = outcome.campaigns;
            for (std::size_t slot = 0; slot < slots; ++slot) {
                fleet[slot].accumulate(t[slot]);
                merge_run(slot_stats(agg, slot), t[slot], t[0], slot == 0);
                if (t[slot].rach_attempts > 0) {
                    result.rach_collision_across_cells.add(
                        static_cast<double>(t[slot].rach_collisions) /
                        static_cast<double>(t[slot].rach_attempts));
                }
            }
        }
        for (std::size_t slot = 0; slot < slots; ++slot) {
            merge_run(slot_stats(result, slot), fleet[slot], fleet[0], slot == 0);
        }
    }
    return result;
}

}  // namespace nbmg::multicell
