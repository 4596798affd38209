// Registry contract: built-ins are present, the preset table is pinned
// entry by entry, unknown lookups list the available names, and every
// shipped preset runs a 10-device smoke through run_scenario under CTest.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/keys.hpp"
#include "scenario/run.hpp"

namespace nbmg::scenario {
namespace {

TEST(RegistryTest, BuiltinMechanismsResolve) {
    const Registry& registry = Registry::instance();
    EXPECT_EQ(registry.mechanism("dr-sc"), core::MechanismKind::dr_sc);
    EXPECT_EQ(registry.mechanism("da-sc"), core::MechanismKind::da_sc);
    EXPECT_EQ(registry.mechanism("dr-si"), core::MechanismKind::dr_si);
    EXPECT_EQ(registry.mechanism("unicast"), core::MechanismKind::unicast);
    EXPECT_EQ(registry.mechanism("sc-ptm"), core::MechanismKind::sc_ptm);
    EXPECT_EQ(registry.mechanism_name(core::MechanismKind::dr_sc), "dr-sc");
    EXPECT_FALSE(registry.find_mechanism("DR-SC").has_value());  // exact spelling
}

TEST(RegistryTest, BuiltinProfilesAndPresetsPresent) {
    const Registry& registry = Registry::instance();
    EXPECT_TRUE(registry.has_profile("massive_iot_city"));
    EXPECT_TRUE(registry.has_profile("meter_heavy"));
    for (const char* name :
         {"fig6a", "fig6b", "fig7", "ablation-setcover", "ablation-ti",
          "ablation-drx-mix", "ablation-contention", "ablation-scptm",
          "ablation-battery", "quickstart", "firmware-campaign",
          "mechanism-tradeoffs", "citywide", "multicell-scaling"}) {
        EXPECT_TRUE(registry.has_preset(name)) << name;
        EXPECT_NO_THROW(registry.preset(name).validate()) << name;
    }
    // The presets named in the acceptance criteria keep their shapes.
    EXPECT_FALSE(registry.preset("fig6a").is_multicell());
    EXPECT_EQ(registry.preset("citywide").cell_count(), 16u);
}

// Every preset's name, description and results fingerprint (FNV-1a64
// over its results rows, scenario/keys.hpp), in table order, recorded
// before the presets became one table.  A change here changes what a
// shipped workload runs.
struct PinnedPreset {
    const char* name;
    const char* description;
    std::uint64_t fingerprint;
};
constexpr PinnedPreset kPinnedPresets[] = {
    {"fig6a", "Fig. 6(a): relative light-sleep uptime increase vs unicast", 0x55056a7fa11968f9ULL},
    {"fig6b", "Fig. 6(b): relative connected-mode uptime increase (payload sweep base)", 0xeb80733fa84a85fbULL},
    {"fig7", "Fig. 7: DR-SC multicast transmissions vs device count", 0x8b94954a6e1626beULL},
    {"ablation-setcover", "A1: greedy vs first-fit/random/exact on DR-SC window instances", 0x3c1fbb45a2806e58ULL},
    {"ablation-ti", "A2: inactivity-timer (TI) sweep base point", 0xa62aded521ac0210ULL},
    {"ablation-drx-mix", "A3: DRX-mix sensitivity of DR-SC transmissions", 0x2f870420539b5bb0ULL},
    {"ablation-contention", "A4: paging capacity, RACH load and page-loss stress (DR-SI)", 0x05c7c92b0b5e639fULL},
    {"ablation-scptm", "A5: SC-PTM standing-cost baseline vs on-demand", 0x82aef4eeb9d141cbULL},
    {"ablation-battery", "A6: battery-life projection per mechanism", 0x397b543be468f838ULL},
    {"smoke", "40-device CI smoke of all three mechanisms", 0x5f592631905771efULL},
    {"quickstart", "one small campaign per mechanism, narrated", 0xe93baf544fc12b49ULL},
    {"firmware-campaign", "DA-SC firmware rollout for a metering fleet", 0x00139ccfdcac52cdULL},
    {"mechanism-tradeoffs", "payload x TI recommendation sweep base point", 0x34370d6490a1f852ULL},
    {"citywide", "one fleet campaign sharded over a 16-cell city grid", 0x5bdee97c0ff4c9aaULL},
    {"citywide-staggered", "citywide fleet with 30 s staggered per-cell campaign starts", 0x997494d2cfcde2edULL},
    {"citywide-backhaul", "citywide 1 MB rollout gated by a 512 KB/s central eNB feed", 0x8a3a0c317e67798bULL},
    {"megacell", "one 10^6-device cell split into 8 paging-frame strata (DR-SI)", 0x9adf4c0a072e3472ULL},
    {"churn", "single-cell campaign under device churn (leave/rejoin point processes)", 0xb94af9b068d96210ULL},
    {"outage", "4-cell rollout with cell 1 dying mid-campaign; stranded devices self-heal onto the survivors", 0xbb447a984c8846daULL},
    {"multicell-scaling", "fixed fleet sharded over up to 64 cells (scaling sweep base)", 0x92a35f3a6599a252ULL},
};

TEST(RegistryTest, PresetTableIsPinned) {
    const std::vector<Registry::PresetEntry>& presets = Registry::instance().presets();
    ASSERT_EQ(presets.size(), std::size(kPinnedPresets));
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const Registry::PresetEntry& entry = presets[i];
        const PinnedPreset& pinned = kPinnedPresets[i];
        SCOPED_TRACE(pinned.name);
        EXPECT_EQ(entry.name, pinned.name);
        EXPECT_EQ(entry.spec.name, pinned.name);  // the entry name fills the spec's
        EXPECT_EQ(entry.description, pinned.description);
        EXPECT_EQ(spec_fingerprint(entry.spec), pinned.fingerprint);
    }
}

TEST(RegistryTest, UnknownLookupsListAvailableNames) {
    const Registry& registry = Registry::instance();
    try {
        (void)registry.preset("figure-8");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("unknown preset 'figure-8'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("fig6a"), std::string::npos) << what;
        EXPECT_NE(what.find("citywide"), std::string::npos) << what;
    }
    try {
        (void)registry.mechanism("carrier-pigeon");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("dr-sc"), std::string::npos);
    }
}

TEST(RegistrySmokeTest, EveryShippedPresetRunsATenDeviceSmoke) {
    for (const Registry::PresetEntry& entry : Registry::instance().presets()) {
        ScenarioSpec spec = entry.spec;
        spec.device_count = 10;
        spec.runs = 1;
        spec.threads = 1;
        SCOPED_TRACE(entry.name);
        const ScenarioResult result = run_scenario(spec);
        EXPECT_EQ(result.deployment().cell_count(), spec.cell_count());
        EXPECT_EQ(result.mechanism_count(), spec.mechanisms.size());
        // Delivery is mandatory: stress shows up as recovery transmissions,
        // never as lost devices.  Fault-injection presets are the exception
        // by design — a device that churns away inside its final paging
        // window has no in-horizon page left, and an outage strands devices
        // until the self-healing pass re-delivers (which zeroes unreceived
        // but stretches the completion tail).
        const bool faulted =
            spec.config.churn.enabled() || spec.cell_down.has_value();
        for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
            if (!faulted) {
                EXPECT_EQ(result.mechanism_stats(m).unreceived_devices.mean(),
                          0.0);
            }
            EXPECT_GE(result.mechanism_stats(m).completion_p99_ms.mean(), 0.0);
        }
        EXPECT_GT(result.unicast_stats().transmissions.mean(), 0.0);
        // The common report surface renders for single-cell and multicell
        // presets alike.
        const stats::Table table = result.summary_table();
        EXPECT_EQ(table.rows(), spec.mechanisms.size() + 1);
        EXPECT_FALSE(result.summary_csv().empty());
    }
}

}  // namespace
}  // namespace nbmg::scenario
