// ScenarioSpec: plain-data defaults, validation, scenario-file
// serialization round trips, and the conversion to the engine's
// DeploymentSetup.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>

#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace nbmg::scenario {
namespace {

// A spec is plain data: designated initializers name any subset of its
// members, every other member keeps its default.
static_assert(std::is_aggregate_v<ScenarioSpec>);

ScenarioSpec small_spec() {
    return ScenarioSpec{.name = "unit",
                        .device_count = 40,
                        .payload_bytes = 20 * 1024,
                        .runs = 3,
                        .base_seed = 7,
                        .threads = 2};
}

TopologySpec hotspot(std::size_t cells, double exponent) {
    return TopologySpec{
        .cells = cells, .kind = TopologySpec::Kind::hotspot, .hotspot_exponent = exponent};
}

TEST(ScenarioSpecTest, DesignatedInitializerKeepsTheDefaults) {
    const ScenarioSpec spec = small_spec();
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.device_count, 40u);
    EXPECT_EQ(spec.runs, 3u);
    EXPECT_EQ(spec.base_seed, 7u);
    EXPECT_EQ(spec.threads, 2u);
    EXPECT_EQ(spec.payload_bytes, 20 * 1024);
    EXPECT_EQ(spec.profile.name, "massive_iot_city");
    EXPECT_FALSE(spec.is_multicell());
    EXPECT_EQ(spec.cell_count(), 1u);
    const std::vector<core::MechanismKind> expected{core::MechanismKind::dr_sc,
                                                    core::MechanismKind::da_sc,
                                                    core::MechanismKind::dr_si};
    EXPECT_EQ(spec.mechanisms, expected);
    EXPECT_FALSE(spec.telemetry.enabled());
    EXPECT_FALSE(spec.checkpoint.enabled());
    EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpecTest, WithCellsEngagesMulticellAndSingleCellClearsIt) {
    ScenarioSpec spec{.topology = TopologySpec{.cells = 16}};
    EXPECT_TRUE(spec.is_multicell());
    EXPECT_EQ(spec.cell_count(), 16u);
    EXPECT_EQ(spec.topology->kind, TopologySpec::Kind::uniform);
    spec.topology.reset();
    EXPECT_FALSE(spec.is_multicell());
    EXPECT_EQ(spec.cell_count(), 1u);
}

TEST(ScenarioSpecTest, FileTextKeepsFullDoublePrecision) {
    ScenarioSpec spec = small_spec();
    spec.config.page_miss_prob = 0.0123456789;
    spec.config.background_ra_per_second = 1.0 / 3.0;
    spec.topology = hotspot(4, 0.1234567890123);
    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "precision");
    EXPECT_EQ(parsed.config.page_miss_prob, spec.config.page_miss_prob);
    EXPECT_EQ(parsed.config.background_ra_per_second,
              spec.config.background_ra_per_second);
    EXPECT_EQ(parsed.topology->hotspot_exponent,
              spec.topology->hotspot_exponent);
}

TEST(ScenarioSpecTest, WithHotspotRealizesZipfTopology) {
    const ScenarioSpec spec{.topology = hotspot(8, 1.0)};
    ASSERT_TRUE(spec.is_multicell());
    const multicell::CellTopology topology = spec.topology->realize();
    ASSERT_EQ(topology.cell_count(), 8u);
    EXPECT_GT(topology.cells.front().weight, topology.cells.back().weight);
}

TEST(ScenarioSpecTest, ValidationNamesTheOffendingField) {
    EXPECT_THROW(
        {
            try {
                ScenarioSpec{.device_count = 0}.validate();
            } catch (const std::invalid_argument& error) {
                EXPECT_NE(std::string(error.what()).find("devices"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{.runs = 0}.validate(), std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{.payload_bytes = 0}.validate(), std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{.mechanisms = {}}.validate(), std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{.topology = hotspot(4, -1.0)}.validate(),
                 std::invalid_argument);
    // A hand-built spec meets the same bounds as the `cells`, `devices`
    // and `runs` keys: the cap passes, one more throws.
    EXPECT_NO_THROW(ScenarioSpec{.topology = TopologySpec{.cells = kMaxCells}}.validate());
    EXPECT_THROW(ScenarioSpec{.topology = TopologySpec{.cells = kMaxCells + 1}}.validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(ScenarioSpec{.device_count = kMaxDevices}.validate());
    try {
        ScenarioSpec{.device_count = kMaxDevices + 1}.validate();
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("devices must be in [1, 10000000]"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_NO_THROW(ScenarioSpec{.runs = kMaxRuns}.validate());
    try {
        ScenarioSpec{.runs = kMaxRuns + 1}.validate();
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("runs must be in [1, 100000]"),
                  std::string::npos)
            << error.what();
    }
}

multicell::CoordinatorSpec stagger(std::int64_t ms) {
    return {.policy = multicell::StartPolicy::fixed_stagger, .stagger_ms = ms};
}

multicell::CoordinatorSpec backhaul(double kbps, double loss = 0.0) {
    return {.policy = multicell::StartPolicy::backhaul_budgeted,
            .backhaul_kbps = kbps,
            .loss_prob = loss};
}

TEST(ScenarioSpecTest, CoordinatorValidation) {
    ScenarioSpec staggered = small_spec();
    staggered.topology = TopologySpec{.cells = 4};
    staggered.coordinator = stagger(20'000);
    EXPECT_NO_THROW(staggered.validate());
    ScenarioSpec budgeted = staggered;
    budgeted.coordinator = backhaul(64.0, 0.25);
    EXPECT_NO_THROW(budgeted.validate());

    // A coordinator needs a grid to schedule.
    ScenarioSpec gridless = staggered;
    gridless.topology.reset();
    EXPECT_THROW(gridless.validate(), std::invalid_argument);
    // Policy-scoped knobs must be consistent: a stagger under the backhaul
    // policy, and a backhaul loss without a backhaul feed.
    ScenarioSpec inconsistent = budgeted;
    inconsistent.coordinator->stagger_ms = 5'000;
    EXPECT_THROW(inconsistent.validate(), std::invalid_argument);
    ScenarioSpec stranded_loss = staggered;
    stranded_loss.coordinator->loss_prob = 0.1;
    EXPECT_THROW(stranded_loss.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, CoordinatorKeysSerializeAndReparse) {
    ScenarioSpec spec = small_spec();
    spec.topology = hotspot(6, 0.5);
    spec.coordinator = stagger(45'000);
    ScenarioSpec parsed = parse_scenario_text(spec.to_file_text(), "staggered");
    ASSERT_TRUE(parsed.is_coordinated());
    EXPECT_EQ(parsed.coordinator->policy, multicell::StartPolicy::fixed_stagger);
    EXPECT_EQ(parsed.coordinator->stagger_ms, 45'000);

    spec.topology = TopologySpec{.cells = 3};
    spec.coordinator = backhaul(0.125);
    parsed = parse_scenario_text(spec.to_file_text(), "backhaul");
    ASSERT_TRUE(parsed.is_coordinated());
    EXPECT_EQ(parsed.coordinator->policy,
              multicell::StartPolicy::backhaul_budgeted);
    EXPECT_EQ(parsed.coordinator->backhaul_kbps, 0.125);
}

TEST(ScenarioSpecTest, TelemetryOutputsNeedTheirModes) {
    ScenarioSpec spec = small_spec();
    spec.telemetry = {.trace = true, .trace_out = "t.jsonl"};
    EXPECT_NO_THROW(spec.validate());
    spec.telemetry = {.trace = true,
                      .metrics = true,
                      .trace_out = "t.jsonl",
                      .metrics_out = "m.csv",
                      .timeline_out = "tl.json"};
    EXPECT_TRUE(spec.telemetry.enabled());
    EXPECT_NO_THROW(spec.validate());

    // Paths without the matching mode are rejected.
    ScenarioSpec orphan = small_spec();
    orphan.telemetry.trace_out = "t.jsonl";
    EXPECT_THROW(orphan.validate(), std::invalid_argument);
    ScenarioSpec orphan_metrics = small_spec();
    orphan_metrics.telemetry = {.trace = true, .metrics_out = "m.csv"};
    EXPECT_THROW(orphan_metrics.validate(), std::invalid_argument);

    ScenarioSpec bad_bucket = small_spec();
    bad_bucket.telemetry.bucket_ms = 0;
    EXPECT_THROW(bad_bucket.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, TelemetryKeysSerializeAndReparse) {
    ScenarioSpec spec = small_spec();
    spec.telemetry = {.trace = true,
                      .metrics = true,
                      .bucket_ms = 250,
                      .trace_out = "out/t.jsonl",
                      .metrics_out = "out/m.csv",
                      .timeline_out = "out/tl.json"};
    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "telemetry");
    EXPECT_EQ(parsed.telemetry, spec.telemetry);

    // A disabled telemetry block serializes to nothing.
    const std::string text = small_spec().to_file_text();
    EXPECT_EQ(text.find("telemetry"), std::string::npos) << text;
}

TEST(ScenarioSpecTest, FileTextRoundTripsDeclarativeSpecs) {
    ScenarioSpec spec = small_spec();
    spec.config.inactivity_timer = nbiot::SimTime{20'000};
    spec.config.page_miss_prob = 0.25;
    spec.config.paging.max_page_records = 4;
    spec.topology = hotspot(12, 0.8);
    spec.assignment = multicell::AssignmentPolicy::class_affinity;

    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "round-trip");
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.profile.name, spec.profile.name);
    EXPECT_EQ(parsed.device_count, spec.device_count);
    EXPECT_EQ(parsed.payload_bytes, spec.payload_bytes);
    EXPECT_EQ(parsed.runs, spec.runs);
    EXPECT_EQ(parsed.base_seed, spec.base_seed);
    EXPECT_EQ(parsed.threads, spec.threads);
    EXPECT_EQ(parsed.mechanisms, spec.mechanisms);
    EXPECT_EQ(parsed.config.inactivity_timer, spec.config.inactivity_timer);
    EXPECT_EQ(parsed.config.page_miss_prob, spec.config.page_miss_prob);
    EXPECT_EQ(parsed.config.paging.max_page_records,
              spec.config.paging.max_page_records);
    ASSERT_TRUE(parsed.is_multicell());
    EXPECT_EQ(parsed.topology->cells, 12u);
    EXPECT_EQ(parsed.topology->kind, TopologySpec::Kind::hotspot);
    EXPECT_EQ(parsed.topology->hotspot_exponent, 0.8);
    EXPECT_EQ(parsed.assignment, multicell::AssignmentPolicy::class_affinity);
}

TEST(ScenarioSpecTest, FileTextRejectsSilentlyDroppableState) {
    // Deep config structs have no file keys; serializing a spec that
    // changed them would reload a different experiment.
    ScenarioSpec deep_config = small_spec();
    deep_config.config.rach.num_preambles = 12;
    EXPECT_THROW((void)deep_config.to_file_text(), std::invalid_argument);

    // Same for per-class profile edits hiding under a builtin name.
    ScenarioSpec edited_profile = small_spec();
    edited_profile.profile.classes.front().share *= 2.0;
    EXPECT_THROW((void)edited_profile.to_file_text(), std::invalid_argument);

    // batch_mean alone is expressible and must stay serializable.
    ScenarioSpec batched = small_spec();
    batched.profile.batch_mean = 3.5;
    const ScenarioSpec parsed =
        parse_scenario_text(batched.to_file_text(), "batch");
    EXPECT_EQ(parsed.profile.batch_mean, 3.5);
}

TEST(ScenarioSpecTest, FileTextRefusesTextAFileCannotCarry) {
    // A line break would smuggle a key into the file (this name reloads as
    // a 4-cell spec); surrounding whitespace is trimmed on reload.
    EXPECT_THROW((void)ScenarioSpec{.name = "x\ncells = 4"}.to_file_text(),
                 std::invalid_argument);
    EXPECT_THROW((void)ScenarioSpec{.name = "x\ry"}.to_file_text(), std::invalid_argument);
    EXPECT_THROW((void)ScenarioSpec{.description = " padded"}.to_file_text(),
                 std::invalid_argument);
    const ScenarioSpec padded_path{.telemetry = {.trace = true, .trace_out = "t.jsonl "}};
    EXPECT_THROW((void)padded_path.to_file_text(), std::invalid_argument);
    EXPECT_THROW((void)ScenarioSpec{.checkpoint = {.out = "a\nb"}}.to_file_text(),
                 std::invalid_argument);
    // Inner whitespace survives the trip.
    const ScenarioSpec spaced{.name = "two words"};
    EXPECT_EQ(parse_scenario_text(spaced.to_file_text()).name, "two words");
}

TEST(ScenarioSpecTest, ValidationRejectsNonFiniteKnobs) {
    const double nan = std::nan("");
    ScenarioSpec spec = small_spec();
    spec.profile.batch_mean = nan;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec = small_spec();
    spec.config.background_ra_per_second =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, FileTextRejectsUnregisteredProfileAndStrandedCoordinator) {
    ScenarioSpec custom_profile = small_spec();
    custom_profile.profile.name = "bespoke";
    EXPECT_THROW((void)custom_profile.to_file_text(), std::invalid_argument);

    // A coordinator stranded without a grid must not silently vanish on
    // the way to a file.
    ScenarioSpec stranded = small_spec();
    stranded.coordinator = stagger(1'000);
    EXPECT_THROW((void)stranded.to_file_text(), std::invalid_argument);
}

TEST(ScenarioSpecTest, EveryShippedPresetSerializesAndReparses) {
    for (const std::string& name : Registry::instance().preset_names()) {
        const ScenarioSpec preset = Registry::instance().preset(name);
        const ScenarioSpec parsed =
            parse_scenario_text(preset.to_file_text(), name);
        EXPECT_EQ(parsed.device_count, preset.device_count) << name;
        EXPECT_EQ(parsed.runs, preset.runs) << name;
        EXPECT_EQ(parsed.mechanisms, preset.mechanisms) << name;
        EXPECT_EQ(parsed.is_multicell(), preset.is_multicell()) << name;
    }
}

TEST(ScenarioAdapterTest, SingleCellSpecMapsToOneCellDeployment) {
    const multicell::DeploymentSetup setup = to_deployment_setup(small_spec());
    EXPECT_EQ(setup.topology.cell_count(), 1u);
}

}  // namespace
}  // namespace nbmg::scenario
