#include "scenario/spec.hpp"

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
    const auto refuse = [this](const std::string& why) {
        throw std::invalid_argument("scenario '" + name + "': " + why);
    };
    if (const Refusal refusal = refused_row(*this, [](std::size_t) { return true; })) {
        // A row sharing a field (payload_kb) names the field's own key.
        const KeyRow& row = *refusal.row;
        refuse(std::string("key '") + (row.same_as != nullptr ? row.same_as : row.key) +
               "': " + refusal.reason);
    }
    // The rules no row carries: the profile's class table, the deep
    // campaign config only code can set, and the grid's cell weights.
    if (!profile.valid()) refuse("invalid population profile '" + profile.name + "'");
    if (!config.valid()) refuse("invalid campaign config");
    if (topology && !topology->realize().valid()) refuse("invalid cell topology");
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
