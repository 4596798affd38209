#include "scenario/spec.hpp"

#include <cmath>
#include <stdexcept>

#include "scenario/keys.hpp"

namespace nbmg::scenario {

multicell::CellTopology TopologySpec::realize() const {
    switch (kind) {
        case Kind::uniform: return multicell::CellTopology::uniform(cells);
        case Kind::hotspot:
            return multicell::CellTopology::hotspot(cells, hotspot_exponent);
    }
    return multicell::CellTopology::uniform(cells);
}

void ScenarioSpec::validate() const {
    if (device_count < 1 || device_count > kMaxDevices) {
        throw std::invalid_argument("scenario '" + name + "': devices must be in [1, " +
                                    std::to_string(kMaxDevices) + "]");
    }
    if (runs < 1 || runs > kMaxRuns) {
        throw std::invalid_argument("scenario '" + name + "': runs must be in [1, " +
                                    std::to_string(kMaxRuns) + "]");
    }
    if (payload_bytes <= 0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': payload must be >= 1 byte");
    }
    if (!profile.valid()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': invalid population profile '" +
                                    profile.name + "'");
    }
    if (!std::isfinite(profile.batch_mean) || profile.batch_mean < 1.0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': batch_mean must be finite and >= 1");
    }
    if (!std::isfinite(config.page_miss_prob) ||
        !std::isfinite(config.background_ra_per_second)) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': campaign config rates must be finite");
    }
    if (config.strata < 1 || config.strata > core::kMaxStrata) {
        throw std::invalid_argument("scenario '" + name + "': strata must be in [1, " +
                                    std::to_string(core::kMaxStrata) + "]");
    }
    if (!config.churn.valid()) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': invalid churn (leave_rate must be finite and >= 0; enabled "
            "churn needs rejoin_ms >= 1)");
    }
    if (!config.valid()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': invalid campaign config");
    }
    if (mechanisms.empty()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': mechanism list must not be empty");
    }
    if (topology) {
        if (topology->cells < 1 || topology->cells > kMaxCells) {
            throw std::invalid_argument("scenario '" + name + "': cells must be in [1, " +
                                        std::to_string(kMaxCells) + "]");
        }
        if (!(topology->hotspot_exponent >= 0.0) ||
            !std::isfinite(topology->hotspot_exponent)) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': hotspot_exponent must be finite and >= 0");
        }
        if (!topology->realize().valid()) {
            throw std::invalid_argument("scenario '" + name +
                                        "': invalid cell topology");
        }
    }
    if (coordinator) {
        if (!topology) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': coordinator requires a multicell topology (cells)");
        }
        if (!coordinator->valid()) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': invalid coordinator (policy-scoped knobs: stagger_ms >= 0 "
                "needs fixed-stagger, finite backhaul_kbps > 0 and loss_prob "
                "in [0, 1) need backhaul)");
        }
    }
    if (cell_down) {
        if (!topology) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': faults.cell_down requires a multicell topology (cells)");
        }
        if (!cell_down->valid()) {
            throw std::invalid_argument(
                "scenario '" + name + "': faults.cell_down time must be >= 1 ms");
        }
        if (cell_down->cell >= topology->cells) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': faults.cell_down names cell " +
                std::to_string(cell_down->cell) + " but the topology has " +
                std::to_string(topology->cells) + " cells");
        }
    }
    if (telemetry.bucket_ms < 1) {
        throw std::invalid_argument("scenario '" + name +
                                    "': telemetry.bucket_ms must be >= 1");
    }
    if ((!telemetry.trace_out.empty() || !telemetry.timeline_out.empty()) &&
        !telemetry.trace) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': trace_out/timeline_out need trace collection enabled "
            "(telemetry = trace or full)");
    }
    if (!telemetry.metrics_out.empty() && !telemetry.metrics) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': metrics_out needs metrics collection enabled "
            "(telemetry = metrics or full)");
    }
    if (checkpoint.every_ms < 0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': checkpoint.every_ms must be >= 0");
    }
    if ((checkpoint.every_ms != 0 || checkpoint.stop_after != 0) &&
        checkpoint.out.empty()) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': checkpoint.every_ms/checkpoint.stop_after need a snapshot "
            "path (checkpoint.out)");
    }
}

std::string ScenarioSpec::to_file_text() const {
    return "# nbmg scenario file (key = value; '#' starts a comment)\n" +
           key_lines(*this, /*results_only=*/false);
}

multicell::DeploymentSetup to_deployment_setup(const ScenarioSpec& spec) {
    multicell::DeploymentSetup setup;
    setup.profile = spec.profile;
    setup.device_count = spec.device_count;
    setup.payload_bytes = spec.payload_bytes;
    setup.config = spec.config;
    setup.runs = spec.runs;
    setup.base_seed = spec.base_seed;
    setup.threads = spec.threads;
    setup.mechanisms = spec.mechanisms;
    setup.assignment = spec.assignment;
    setup.topology = spec.topology ? spec.topology->realize()
                                   : multicell::CellTopology::uniform(1);
    setup.cell_down = spec.cell_down;
    return setup;
}

}  // namespace nbmg::scenario
