// Regression pins for the experiment drivers: a single-cell scenario
// (run_scenario on the 1-cell deployment) and the DR-SC transmission sweep
// must reproduce the seed implementation's aggregates to the last bit.  The
// golden values below were recorded from the pre-optimization (PR 1)
// kernels; any drift means a hot-path rewrite changed observable
// behaviour.  The summary table's text is pinned on hand-built stats.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "scenario/run.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

scenario::ScenarioSpec golden_spec() {
    return scenario::ScenarioSpec{.profile = traffic::massive_iot_city(),
                                  .device_count = 40,
                                  .payload_bytes = 20 * 1024,
                                  .runs = 3,
                                  .base_seed = 42,
                                  .threads = 1};
}

TEST(ExperimentRegressionTest, ComparisonMatchesPinnedGolden) {
    const scenario::ScenarioResult outcome = scenario::run_scenario(golden_spec());

    EXPECT_DOUBLE_EQ(outcome.unicast_stats().transmissions.mean(), 40.0);
    EXPECT_DOUBLE_EQ(outcome.unicast_stats().mean_connected_seconds.mean(),
                     6.9429999999999996);
    EXPECT_DOUBLE_EQ(outcome.unicast_stats().mean_light_sleep_seconds.mean(),
                     7.2290000000000001);

    ASSERT_EQ(outcome.mechanism_count(), 3u);
    const MechanismStats& dr_sc = outcome.mechanism_stats(0);
    EXPECT_EQ(dr_sc.kind, MechanismKind::dr_sc);
    EXPECT_DOUBLE_EQ(dr_sc.light_sleep_increase.mean(), 0.0);
    EXPECT_DOUBLE_EQ(dr_sc.connected_increase.mean(), 0.57560372557491968);
    EXPECT_DOUBLE_EQ(dr_sc.transmissions.mean(), 20.666666666666668);
    EXPECT_DOUBLE_EQ(dr_sc.bytes_ratio.mean(), 0.52180354267310791);
    EXPECT_DOUBLE_EQ(dr_sc.recovery_transmissions.mean(), 0.0);
    EXPECT_DOUBLE_EQ(dr_sc.unreceived_devices.mean(), 0.0);

    const MechanismStats& da_sc = outcome.mechanism_stats(1);
    EXPECT_EQ(da_sc.kind, MechanismKind::da_sc);
    EXPECT_DOUBLE_EQ(da_sc.light_sleep_increase.mean(), 1.8914472369133142);
    EXPECT_DOUBLE_EQ(da_sc.connected_increase.mean(), 1.1269095971962166);
    EXPECT_DOUBLE_EQ(da_sc.transmissions.mean(), 1.0);
    EXPECT_DOUBLE_EQ(da_sc.bytes_ratio.mean(), 0.040175523349436387);

    const MechanismStats& dr_si = outcome.mechanism_stats(2);
    EXPECT_EQ(dr_si.kind, MechanismKind::dr_si);
    EXPECT_DOUBLE_EQ(dr_si.light_sleep_increase.mean(), 0.0064479289371293103);
    EXPECT_DOUBLE_EQ(dr_si.connected_increase.mean(), 0.99505497143405841);
    EXPECT_DOUBLE_EQ(dr_si.transmissions.mean(), 1.0);
    EXPECT_DOUBLE_EQ(dr_si.bytes_ratio.mean(), 0.035542673107890499);
}

TEST(ExperimentRegressionTest, DrscTransmissionPointMatchesPinnedGolden) {
    const CampaignConfig config;
    const TransmissionSweepPoint point = drsc_transmission_point(
        traffic::massive_iot_city(), 120, config, 4, 42, 1);
    EXPECT_DOUBLE_EQ(point.transmissions.mean(), 65.75);
    EXPECT_DOUBLE_EQ(point.transmissions_per_device.mean(), 0.54791666666666672);
}

stats::Summary samples(std::initializer_list<double> values) {
    stats::Summary summary;
    for (const double v : values) summary.add(v);
    return summary;
}

TEST(ExperimentRegressionTest, SummaryTableTextIsPinned) {
    // The reference row prints "-" in the three vs-unicast columns because
    // it is the reference, not because of its kind: a mechanism slot that
    // also runs unicast keeps its numbers.  p99 is shown in s (/1000),
    // redelivered bytes in KB (/1024), percentages at 2 decimals.
    MechanismStats reference;
    reference.transmissions = samples({300.0});
    reference.transmissions_per_device = samples({1.0});
    reference.bytes_ratio = samples({1.0});
    reference.recovery_transmissions = samples({2.0, 4.0});
    reference.unreceived_devices = samples({1.0});
    reference.completion_p99_ms = samples({11'300.0});
    reference.redelivery_bytes = samples({3'072.0});
    reference.stranded_devices = samples({5.0});

    MechanismStats dr_sc;
    dr_sc.kind = MechanismKind::dr_sc;
    dr_sc.light_sleep_increase = samples({0.0123});
    dr_sc.connected_increase = samples({0.2, 0.25});
    dr_sc.transmissions = samples({139.0, 141.0});
    dr_sc.transmissions_per_device = samples({0.4667});
    dr_sc.bytes_ratio = samples({0.468});
    dr_sc.recovery_transmissions = samples({0.0});
    dr_sc.unreceived_devices = samples({0.0});
    dr_sc.completion_p99_ms = samples({20'600.0, 20'800.0});
    dr_sc.redelivery_bytes = samples({0.0});
    dr_sc.stranded_devices = samples({0.0});

    MechanismStats unicast_mechanism = reference;
    unicast_mechanism.light_sleep_increase = samples({0.0});
    unicast_mechanism.connected_increase = samples({0.0});

    const MechanismStats mechanisms[] = {dr_sc, unicast_mechanism};
    EXPECT_EQ(mechanism_summary_table(reference, mechanisms).to_csv(),
              std::string{"mechanism,transmissions,tx/device,light-sleep vs unicast,"
                          "connected vs unicast,bytes vs unicast,recovery tx,"
                          "unreceived,p99 completion (s),redelivered (KB),stranded\n"
                          "Unicast,300.0,1.000,-,-,-,3.0,1.0,11.3,3.0,5.0\n"
                          "DR-SC,140.0,0.467,1.23%,22.50%,0.468,0.0,0.0,20.7,0.0,0.0\n"
                          "Unicast,300.0,1.000,0.00%,0.00%,1.000,3.0,1.0,11.3,3.0,5.0\n"});
}

}  // namespace
}  // namespace nbmg::core
