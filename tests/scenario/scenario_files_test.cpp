// The checked-in example scenarios (examples/scenarios/) parse, and each
// reloads from its own to_file_text unchanged.  fig6a.scenario is the
// built-in fig6a preset apart from its description, as its header says.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace nbmg::scenario {
namespace {

std::vector<std::filesystem::path> scenario_files() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(NBMG_SCENARIO_DIR)) {
        if (entry.path().extension() == ".scenario") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ScenarioFilesTest, EveryCheckedInFileParsesAndRoundTrips) {
    const std::vector<std::filesystem::path> files = scenario_files();
    ASSERT_FALSE(files.empty()) << NBMG_SCENARIO_DIR;
    for (const std::filesystem::path& path : files) {
        ScenarioSpec spec;
        ASSERT_NO_THROW(spec = load_scenario_file(path.string())) << path;
        const std::string text = spec.to_file_text();
        EXPECT_EQ(parse_scenario_text(text, path.string()).to_file_text(), text) << path;
    }
}

TEST(ScenarioFilesTest, Fig6aFileIsTheFig6aPreset) {
    ScenarioSpec spec =
        load_scenario_file(std::string(NBMG_SCENARIO_DIR) + "/fig6a.scenario");
    const ScenarioSpec preset = Registry::instance().preset("fig6a");
    spec.description = preset.description;
    EXPECT_EQ(spec.to_file_text(), preset.to_file_text());
}

}  // namespace
}  // namespace nbmg::scenario
