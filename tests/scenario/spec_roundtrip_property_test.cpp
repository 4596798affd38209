// Property battery: randomly generated ScenarioSpecs round-trip through
// to_file_text -> parse_scenario_text bit-identically.
//
// The generator (seeded mt19937_64, fixed seed: the battery is
// deterministic) draws every file-expressible knob — profile, batch_mean,
// devices/payload/runs/seed/threads, mechanism lists, the shallow campaign
// config keys, telemetry, multicell topology + assignment, the
// coordinator.* keys in every policy shape, churn.*, faults.cell_down,
// faults.backhaul_loss and checkpoint.*.  Two invariants per spec:
//  1. the reloaded spec re-serializes to the exact same text (the strict
//     form of round-trip identity: any field the parser dropped or
//     defaulted differently would change the second serialization), and
//  2. the reloaded fields equal the originals (catches the degenerate
//     failure where both serializations lose the same field).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace nbmg::scenario {
namespace {

class SpecGenerator {
public:
    explicit SpecGenerator(std::uint64_t seed) : rng_(seed) {}

    ScenarioSpec next() {
        ScenarioSpec spec{.name = "prop-" + std::to_string(counter_++)};
        if (chance(0.5)) {
            spec.description = "generated round-trip spec";
        }
        const std::vector<std::string> profiles =
            Registry::instance().profile_names();
        spec.profile = Registry::instance().profile(profiles[index(profiles.size())]);
        if (chance(0.3)) {
            spec.profile.batch_mean = uniform(1.0, 8.0);
        }
        spec.device_count = 1 + index(5'000);
        spec.payload_bytes = 1 + static_cast<std::int64_t>(index(1 << 22));
        spec.runs = 1 + index(200);
        spec.base_seed = rng_();
        spec.threads = index(9);  // 0 = hardware concurrency
        spec.mechanisms = mechanisms();

        // Shallow campaign-config keys (the file-expressible subset).
        spec.config.inactivity_timer =
            nbiot::SimTime{1 + static_cast<std::int64_t>(index(60'000))};
        spec.config.ra_guard =
            nbiot::SimTime{static_cast<std::int64_t>(index(10'000))};
        spec.config.include_inactivity_tail = chance(0.5);
        if (chance(0.5)) spec.config.page_miss_prob = uniform(0.0, 0.999);
        spec.config.max_page_attempts = 1 + static_cast<int>(index(9));
        if (chance(0.5)) {
            spec.config.background_ra_per_second = uniform(0.0, 50.0);
        }
        spec.config.paging.max_page_records = 1 + static_cast<int>(index(16));
        spec.config.sc_ptm_mcch_period =
            nbiot::SimTime{1 + static_cast<std::int64_t>(index(40'000))};
        if (chance(0.5)) spec.config.strata = 1 + index(core::kMaxStrata);

        if (chance(0.4)) {
            TelemetrySpec& telemetry = spec.telemetry;
            telemetry.trace = chance(0.6);
            telemetry.metrics = chance(0.6);
            if (telemetry.enabled() && chance(0.5)) {
                telemetry.bucket_ms = 1 + static_cast<std::int64_t>(index(600'000));
            }
            if (telemetry.trace && chance(0.5)) {
                telemetry.trace_out = "out/t" + std::to_string(index(9)) + ".jsonl";
            }
            if (telemetry.trace && chance(0.5)) telemetry.timeline_out = "out/tl.json";
            if (telemetry.metrics && chance(0.5)) telemetry.metrics_out = "out/m.csv";
        }

        if (chance(0.6)) {
            const std::size_t cells = 1 + index(64);
            spec.topology = TopologySpec{.cells = cells};
            if (chance(0.5)) {
                spec.topology->kind = TopologySpec::Kind::hotspot;
                spec.topology->hotspot_exponent = uniform(0.0, 3.0);
            }
            switch (index(3)) {
                case 0: spec.assignment = multicell::AssignmentPolicy::uniform_hash; break;
                case 1: spec.assignment = multicell::AssignmentPolicy::hotspot; break;
                default: spec.assignment = multicell::AssignmentPolicy::class_affinity; break;
            }
            if (chance(0.6)) {
                using multicell::StartPolicy;
                switch (index(3)) {
                    case 0: spec.coordinator = multicell::CoordinatorSpec{}; break;
                    case 1:
                        spec.coordinator = {
                            .policy = StartPolicy::fixed_stagger,
                            .stagger_ms = static_cast<std::int64_t>(index(600'000))};
                        break;
                    default:
                        spec.coordinator = {.policy = StartPolicy::backhaul_budgeted,
                                            .backhaul_kbps = uniform(0.001, 65'536.0)};
                        if (chance(0.5)) spec.coordinator->loss_prob = uniform(0.0, 0.99);
                        break;
                }
            }
            if (chance(0.3)) {
                spec.cell_down = faults::OutageSpec{
                    index(cells), 1 + static_cast<std::int64_t>(index(3'600'000))};
            }
        }
        if (chance(0.3)) {
            spec.config.churn.leave_rate = uniform(0.01, 10.0);
            spec.config.churn.rejoin_ms = 1 + static_cast<std::int64_t>(index(600'000));
        }
        if (chance(0.3)) {
            spec.checkpoint.out = "out/c" + std::to_string(index(9)) + ".snap";
            if (chance(0.5)) {
                spec.checkpoint.every_ms = 1 + static_cast<std::int64_t>(index(600'000));
            }
            if (chance(0.5)) spec.checkpoint.stop_after = 1 + index(100);
        }
        if (chance(0.2)) spec.checkpoint.resume = "out/prev.snap";
        return spec;
    }

private:
    bool chance(double p) { return uniform(0.0, 1.0) < p; }
    std::size_t index(std::size_t bound) {
        return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng_);
    }
    double uniform(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng_);
    }
    std::vector<core::MechanismKind> mechanisms() {
        static const std::vector<core::MechanismKind> all{
            core::MechanismKind::dr_sc, core::MechanismKind::da_sc,
            core::MechanismKind::dr_si, core::MechanismKind::unicast,
            core::MechanismKind::sc_ptm};
        // A non-empty subset in canonical order, picked by a random mask.
        std::vector<core::MechanismKind> out;
        const std::size_t mask = 1 + index((1u << all.size()) - 1);
        for (std::size_t m = 0; m < all.size(); ++m) {
            if ((mask >> m) & 1u) out.push_back(all[m]);
        }
        return out;
    }

    std::mt19937_64 rng_;
    std::size_t counter_ = 0;
};

void expect_specs_equal(const ScenarioSpec& parsed, const ScenarioSpec& spec) {
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.description, spec.description);
    EXPECT_EQ(parsed.profile.name, spec.profile.name);
    EXPECT_EQ(parsed.profile.batch_mean, spec.profile.batch_mean);
    EXPECT_EQ(parsed.device_count, spec.device_count);
    EXPECT_EQ(parsed.payload_bytes, spec.payload_bytes);
    EXPECT_EQ(parsed.runs, spec.runs);
    EXPECT_EQ(parsed.base_seed, spec.base_seed);
    EXPECT_EQ(parsed.threads, spec.threads);
    EXPECT_EQ(parsed.mechanisms, spec.mechanisms);
    EXPECT_EQ(parsed.config.inactivity_timer, spec.config.inactivity_timer);
    EXPECT_EQ(parsed.config.ra_guard, spec.config.ra_guard);
    EXPECT_EQ(parsed.config.include_inactivity_tail,
              spec.config.include_inactivity_tail);
    EXPECT_EQ(parsed.config.page_miss_prob, spec.config.page_miss_prob);
    EXPECT_EQ(parsed.config.max_page_attempts, spec.config.max_page_attempts);
    EXPECT_EQ(parsed.config.background_ra_per_second,
              spec.config.background_ra_per_second);
    EXPECT_EQ(parsed.config.paging.max_page_records,
              spec.config.paging.max_page_records);
    EXPECT_EQ(parsed.config.sc_ptm_mcch_period, spec.config.sc_ptm_mcch_period);
    EXPECT_EQ(parsed.config.strata, spec.config.strata);
    EXPECT_EQ(parsed.config.churn, spec.config.churn);
    EXPECT_EQ(parsed.cell_down, spec.cell_down);
    EXPECT_EQ(parsed.checkpoint, spec.checkpoint);
    ASSERT_EQ(parsed.is_multicell(), spec.is_multicell());
    if (spec.is_multicell()) {
        EXPECT_EQ(parsed.topology->cells, spec.topology->cells);
        EXPECT_EQ(parsed.topology->kind, spec.topology->kind);
        if (spec.topology->kind == TopologySpec::Kind::hotspot) {
            EXPECT_EQ(parsed.topology->hotspot_exponent,
                      spec.topology->hotspot_exponent);
        }
        EXPECT_EQ(parsed.assignment, spec.assignment);
    }
    EXPECT_EQ(parsed.telemetry, spec.telemetry);
    ASSERT_EQ(parsed.is_coordinated(), spec.is_coordinated());
    if (spec.is_coordinated()) {
        EXPECT_EQ(parsed.coordinator->policy, spec.coordinator->policy);
        EXPECT_EQ(parsed.coordinator->stagger_ms, spec.coordinator->stagger_ms);
        EXPECT_EQ(parsed.coordinator->backhaul_kbps,
                  spec.coordinator->backhaul_kbps);
        EXPECT_EQ(parsed.coordinator->loss_prob, spec.coordinator->loss_prob);
    }
}

TEST(SpecRoundTripPropertyTest, RandomSpecsRoundTripBitIdentically) {
    SpecGenerator generator(20'260'728);
    for (int i = 0; i < 300; ++i) {
        const ScenarioSpec spec = generator.next();
        ASSERT_NO_THROW(spec.validate()) << spec.name;

        const std::string text = spec.to_file_text();
        ScenarioSpec parsed;
        ASSERT_NO_THROW(parsed = parse_scenario_text(text, spec.name))
            << spec.name << "\n"
            << text;
        EXPECT_EQ(parsed.to_file_text(), text) << spec.name;
        expect_specs_equal(parsed, spec);
    }
}

TEST(SpecRoundTripPropertyTest, CoordinatedPresetsRoundTripThroughFiles) {
    // The shipped coordinated presets are the user-visible instances of
    // the property above; pin them by name so a preset edit that breaks
    // serialization fails here, not in a user's saved file.
    for (const char* name : {"citywide-staggered", "citywide-backhaul"}) {
        const ScenarioSpec preset = Registry::instance().preset(name);
        ASSERT_TRUE(preset.is_coordinated()) << name;
        const ScenarioSpec parsed =
            parse_scenario_text(preset.to_file_text(), name);
        expect_specs_equal(parsed, preset);
        EXPECT_EQ(parsed.to_file_text(), preset.to_file_text()) << name;
    }
}

}  // namespace
}  // namespace nbmg::scenario
