#include "scenario/run.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "scenario/keys.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "snapshot/checkpoint.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"

namespace nbmg::scenario {
namespace {

/// Writes a telemetry artifact through write(stream); an empty path means
/// "keep it in-memory only".  Failures throw ScenarioError so shells exit
/// with a diagnostic instead of silently dropping the artifact.
void write_artifact(const std::string& path,
                    const std::function<void(std::ostream&)>& write) {
    if (path.empty()) return;
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) {
        throw ScenarioError("cannot open telemetry output file '" + path +
                            "' for writing");
    }
    write(file);
    file.flush();
    if (!file) {
        throw ScenarioError("write to telemetry output file '" + path +
                            "' failed");
    }
}

}  // namespace

struct DeferredText::State {
    std::once_flag rendered;
    std::function<std::string()> render;
    std::string text;
};

DeferredText::DeferredText(std::function<std::string()> render)
    : state_(std::make_shared<State>()) {
    state_->render = std::move(render);
}

const std::string& DeferredText::str() const {
    static const std::string empty;
    if (!state_) return empty;
    std::call_once(state_->rendered, [&] { state_->text = state_->render(); });
    return state_->text;
}

stats::Table ScenarioResult::summary_table() const {
    return core::mechanism_summary_table(outcome.unicast, outcome.mechanisms);
}

std::string ScenarioResult::summary_csv() const { return summary_table().to_csv(); }

stats::Table ScenarioResult::coordination_table() const {
    if (!coordination) {
        throw std::logic_error(
            "ScenarioResult::coordination_table: scenario ran without a "
            "coordinator");
    }
    const multicell::CoordinationAggregates& agg = *coordination;
    stats::Table table({"time-axis metric", "mean", "min", "max"});
    const auto row = [&](const char* metric, const stats::Summary& summary,
                         double factor, int precision) {
        table.add_row(
            {metric, stats::Table::cell(summary.mean() * factor, precision),
             stats::Table::cell(summary.min() * factor, precision),
             stats::Table::cell(summary.max() * factor, precision)});
    };
    row("city completion (s)", agg.completion_ms, 1e-3, 1);
    row("start spread (s)", agg.start_spread_ms, 1e-3, 1);
    row("peak concurrent cells", agg.peak_concurrent_cells, 1.0, 0);
    row("backhaul busy (s)", agg.backhaul_busy_ms, 1e-3, 1);
    row("backhaul utilization", agg.backhaul_utilization, 1.0, 3);
    row("redelivered (KB)", agg.redelivered_bytes, 1.0 / 1024.0, 1);
    return table;
}

std::string ScenarioResult::coordination_csv() const {
    return coordination_table().to_csv();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
    spec.validate();
    ScenarioResult result;
    result.spec = spec;

    // The collector is sized up front — runs x cells x (mechanisms + 1)
    // pre-allocated campaign slots (0 = unicast), plus one city sink per
    // run — so the sweeps write disjoint slots lock-free and the exporters
    // iterate them in deterministic order.  The telemetry report keeps it.
    std::shared_ptr<telemetry::Collector> collector;
    if (spec.telemetry.enabled()) {
        telemetry::TelemetryConfig config;
        config.trace = spec.telemetry.trace;
        config.metrics = spec.telemetry.metrics;
        config.bucket_ms = spec.telemetry.bucket_ms;
        std::vector<std::string> labels;
        labels.reserve(spec.mechanisms.size() + 1);
        labels.push_back(
            Registry::instance().mechanism_name(core::MechanismKind::unicast));
        for (const core::MechanismKind kind : spec.mechanisms) {
            labels.push_back(Registry::instance().mechanism_name(kind));
        }
        collector = std::make_shared<telemetry::Collector>(config, spec.runs, spec.cell_count(),
                                                           std::move(labels));
    }

    // The checkpoint context (if any) is shared by every sweep worker; the
    // engine consults it at (run, cell) task boundaries.
    std::optional<snapshot::CheckpointContext> checkpoint;
    if (spec.checkpoint.enabled()) {
        snapshot::CheckpointHeader header;
        header.fingerprint = spec_fingerprint(spec);
        header.runs = spec.runs;
        header.cells = spec.cell_count();
        header.campaigns = spec.mechanisms.size() + 1;
        checkpoint.emplace(header, spec.checkpoint.out,
                           spec.checkpoint.every_ms, spec.checkpoint.stop_after);
        if (!spec.checkpoint.resume.empty()) {
            checkpoint->load(spec.checkpoint.resume);
        }
    }

    multicell::DeploymentSetup setup = to_deployment_setup(spec);
    setup.telemetry = collector.get();
    if (checkpoint) setup.checkpoint = &*checkpoint;
    result.outcome = multicell::run_deployment(setup);
    if (spec.coordinator) {
        result.coordination = multicell::coordinate_deployment(
            result.outcome, *spec.coordinator, setup.payload_bytes, setup.telemetry,
            setup.base_seed);
    }
    // Leave a complete snapshot behind on normal completion, so a
    // time-sharded driver may treat "finished" and "stopped" uniformly.
    if (checkpoint) checkpoint->save_final();

    if (collector) {
        TelemetryReport report;
        report.config = spec.telemetry;
        report.collector = collector;
        if (spec.telemetry.trace) {
            report.trace_jsonl = DeferredText([collector, threads = spec.threads] {
                return telemetry::trace_jsonl(*collector, threads);
            });
            report.timeline_json = DeferredText([collector, coordination = result.coordination] {
                return telemetry::timeline_json(*collector, coordination ? &*coordination : nullptr);
            });
        }
        if (spec.telemetry.metrics) {
            report.metrics = telemetry::metrics_table(*collector);
        }
        write_artifact(spec.telemetry.trace_out, [&](std::ostream& out) {
            telemetry::write_trace_jsonl(out, *collector, spec.threads);
        });
        if (report.metrics) {
            write_artifact(spec.telemetry.metrics_out,
                           [&](std::ostream& out) { out << report.metrics->to_csv(); });
        }
        write_artifact(spec.telemetry.timeline_out,
                       [&](std::ostream& out) { out << report.timeline_json.str(); });
        result.telemetry = std::move(report);
    }
    return result;
}

ScenarioResult run_scenario_or_exit(const ScenarioSpec& spec) {
    try {
        return run_scenario(spec);
    } catch (const snapshot::CheckpointStop& stop) {
        // A deliberate mid-flight stop, not an error: report where the
        // snapshot landed and exit 3 so drivers can tell "resume me" from
        // usage failures (2) and success (0).
        std::fprintf(stderr, "%s\n", stop.what());
        std::exit(3);
    } catch (const snapshot::SnapshotError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
    } catch (const ScenarioError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
    }
    std::exit(2);
}

}  // namespace nbmg::scenario
