// Failure-injection layer: spec validity, the strict "cell@t" spelling,
// the Ue power_off/power_on contract, and campaign-level churn/outage
// effects — including the faults-off identity (a config that spells out
// disabled faults is bit-identical to one that never mentions them).
#include "faults/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/campaign.hpp"
#include "core/planners.hpp"
#include "nbiot/cell.hpp"
#include "nbiot/ue.hpp"
#include "tests/support/campaign_equal.hpp"
#include "traffic/population.hpp"

namespace nbmg::faults {
namespace {

using nbiot::SimTime;

TEST(ChurnSpecTest, DefaultIsDisabledAndValid) {
    const ChurnSpec churn;
    EXPECT_FALSE(churn.enabled());
    EXPECT_TRUE(churn.valid());
}

TEST(ChurnSpecTest, ValidityBoundaries) {
    ChurnSpec churn;
    churn.leave_rate = 2.0;
    churn.rejoin_ms = 0;  // enabled churn needs a rejoin delay
    EXPECT_TRUE(churn.enabled());
    EXPECT_FALSE(churn.valid());
    churn.rejoin_ms = 1;
    EXPECT_TRUE(churn.valid());
    churn.leave_rate = -0.5;
    EXPECT_FALSE(churn.valid());
    churn.leave_rate = std::nan("");
    EXPECT_FALSE(churn.valid());
    churn.leave_rate = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(churn.valid());
}

TEST(ChurnSpecTest, MeanLeaveGapInvertsTheHourlyRate) {
    ChurnSpec churn;
    churn.leave_rate = 2.0;  // two departures per device-hour
    EXPECT_DOUBLE_EQ(churn.mean_leave_gap_ms(), 1'800'000.0);
}

TEST(OutageSpecTest, ValidityRequiresPositiveInstant) {
    EXPECT_FALSE((OutageSpec{0, 0}.valid()));
    EXPECT_FALSE((OutageSpec{3, -5}.valid()));
    EXPECT_TRUE((OutageSpec{3, 1}.valid()));
}

TEST(OutageSpecTest, ParseCellDownAcceptsStrictSpelling) {
    const auto outage = parse_cell_down("3@600000");
    ASSERT_TRUE(outage.has_value());
    EXPECT_EQ(outage->cell, 3u);
    EXPECT_EQ(outage->at_ms, 600'000);
    const auto zero_cell = parse_cell_down("0@1");
    ASSERT_TRUE(zero_cell.has_value());
    EXPECT_EQ(zero_cell->cell, 0u);
    EXPECT_EQ(zero_cell->at_ms, 1);
}

TEST(OutageSpecTest, FormatRoundTrips) {
    const OutageSpec outage{7, 120'000};
    const auto parsed = parse_cell_down(format_cell_down(outage));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, outage);
}

TEST(OutageSpecTest, ParseCellDownRejectsMalformedSpellings) {
    for (const char* text :
         {"", "3", "@5", "3@", "3@0", "-1@5", "3@-7", "x@5", "3@1x", "0x3@5",
          "3@0x10", " 3@5", "3@5 ", "3@@5", "3@6e5", "3.0@5"}) {
        EXPECT_FALSE(parse_cell_down(text).has_value()) << "'" << text << "'";
    }
}

// --- Ue power cycle ------------------------------------------------------

class UePowerTest : public ::testing::Test {
protected:
    UePowerTest() : cell_(1234, nbiot::PagingConfig{}, nbiot::RachConfig{},
                          nbiot::TimingModel{}) {}

    nbiot::Ue& make_ue(nbiot::DrxCycle cycle, std::uint64_t imsi = 777'000'111) {
        return cell_.add_ue(nbiot::UeSpec{
            nbiot::DeviceId{static_cast<std::uint32_t>(cell_.ue_count())},
            nbiot::Imsi{imsi}, cycle, nbiot::CeLevel::ce0});
    }

    /// Drains the queue, then closes every UE's PO ledger, as a campaign
    /// does once its event loop ends.
    void run() {
        cell_.simulation().queue().run_all();
        for (std::uint32_t i = 0; i < cell_.ue_count(); ++i) {
            cell_.ue(nbiot::DeviceId{i}).finish_monitoring();
        }
    }

    nbiot::Cell cell_;
    nbiot::TimingModel timing_{};
};

TEST_F(UePowerTest, PowerOffFreezesAccountingAndListening) {
    nbiot::Ue& ue = make_ue(nbiot::drx::seconds_2_56());
    const SimTime horizon{60'000};
    ue.start_monitoring(horizon);
    ue.power_off();
    run();
    EXPECT_FALSE(ue.powered());
    EXPECT_EQ(ue.po_count(), 0u);
    EXPECT_EQ(ue.energy().uptime(nbiot::PowerState::po_monitor), SimTime{0});
    const SimTime po =
        cell_.paging().phase(ue.imsi(), ue.current_cycle()).first_at_or_after(SimTime{0});
    EXPECT_FALSE(ue.listening_at(po));
}

TEST_F(UePowerTest, PowerOnChargesReattachAndResumesMonitoring) {
    nbiot::Ue& ue = make_ue(nbiot::drx::seconds_2_56());
    const SimTime horizon{120'000};
    const SimTime rejoin{30'000};
    ue.start_monitoring(horizon);
    ue.power_off();
    cell_.simulation().queue().schedule_at(rejoin, [&] { ue.power_on(); });
    run();
    EXPECT_TRUE(ue.powered());
    EXPECT_EQ(ue.state(), nbiot::UeState::idle);
    EXPECT_EQ(ue.current_cycle(), ue.original_cycle());
    // One clean RACH exchange plus RRC setup/release, charged analytically.
    EXPECT_EQ(ue.energy().uptime(nbiot::PowerState::rach),
              cell_.rach().config().attempt_active_time());
    EXPECT_EQ(ue.energy().uptime(nbiot::PowerState::connected_signaling),
              timing_.rrc_setup + timing_.rrc_release);
    // PO monitoring resumes from the rejoin instant, not from zero.
    const std::int64_t expected = cell_.paging()
                                      .phase(ue.imsi(), ue.current_cycle())
                                      .count_in_range(rejoin + SimTime{1}, horizon);
    EXPECT_EQ(static_cast<std::int64_t>(ue.po_count()), expected);
    EXPECT_GT(expected, 0);
}

TEST_F(UePowerTest, DoublePowerTransitionsThrow) {
    nbiot::Ue& ue = make_ue(nbiot::drx::seconds_2_56());
    ue.start_monitoring(SimTime{60'000});
    EXPECT_THROW(ue.power_on(), std::logic_error);  // already on
    ue.power_off();
    EXPECT_THROW(ue.power_off(), std::logic_error);  // already off
    ue.power_on();
    EXPECT_THROW(ue.power_on(), std::logic_error);
}

TEST_F(UePowerTest, HaltMonitoringClosesTheLedgerWithoutPoweringOff) {
    nbiot::Ue& ue = make_ue(nbiot::drx::seconds_2_56());
    ue.start_monitoring(SimTime{60'000});
    ue.halt_monitoring();
    run();
    EXPECT_TRUE(ue.powered());
    EXPECT_EQ(ue.po_count(), 0u);
    EXPECT_EQ(ue.energy().uptime(nbiot::PowerState::po_monitor), SimTime{0});
}

// --- campaign-level effects ---------------------------------------------

std::vector<nbiot::UeSpec> make_population(std::size_t n, std::uint64_t seed) {
    sim::RandomStream rng{seed};
    return traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), n, rng));
}

core::CampaignResult run_campaign(core::MechanismKind kind,
                                  std::span<const nbiot::UeSpec> devices,
                                  const core::CampaignConfig& config,
                                  std::uint64_t seed = 7) {
    return core::plan_and_run(*core::make_mechanism(kind), devices, config,
                              100 * 1024, seed);
}

SimTime total_uptime(const core::CampaignResult& result,
                     nbiot::PowerState state) {
    SimTime total{0};
    for (const core::DeviceOutcome& device : result.devices) {
        total = total + device.energy.uptime(state);
    }
    return total;
}

TEST(FaultsCampaignTest, ExplicitFaultsOffIsBitIdenticalToDefault) {
    const auto devices = make_population(60, 11);
    const core::CampaignConfig plain;
    core::CampaignConfig spelled_out;
    spelled_out.churn = ChurnSpec{};  // leave_rate 0: disabled
    spelled_out.outage_at_ms = -1;
    const core::CampaignResult a =
        run_campaign(core::MechanismKind::dr_sc, devices, plain);
    const core::CampaignResult b =
        run_campaign(core::MechanismKind::dr_sc, devices, spelled_out);
    test_support::expect_campaign_results_equal(a, b);
    EXPECT_EQ(a.churn_leaves, 0u);
    EXPECT_EQ(a.stranded, 0u);
    EXPECT_EQ(a.redelivery_bytes, 0);
}

TEST(FaultsCampaignTest, ChurnRecordsLeavesAndReattachSignaling) {
    const auto devices = make_population(60, 11);
    core::CampaignConfig faulted;
    faulted.churn.leave_rate = 50.0;  // aggressive: hourly-scale horizons
    faulted.churn.rejoin_ms = 60'000;
    const core::CampaignResult churned =
        run_campaign(core::MechanismKind::dr_sc, devices, faulted);
    const core::CampaignResult baseline = run_campaign(
        core::MechanismKind::dr_sc, devices, core::CampaignConfig{});
    EXPECT_GT(churned.churn_leaves, 0u);
    // Horizons are derived from the population and payload only, so the
    // comparison axis is unchanged by churn.
    EXPECT_EQ(churned.observation_horizon, baseline.observation_horizon);
    // Every rejoin pays one clean RACH exchange, so total RACH uptime
    // strictly exceeds the faults-off run's.
    EXPECT_GT(total_uptime(churned, nbiot::PowerState::rach),
              total_uptime(baseline, nbiot::PowerState::rach));
}

TEST(FaultsCampaignTest, VanishingLeaveRateCompletesWithoutLeaves) {
    // At 1e-300 leaves per hour every gap is past INT64_MAX ms: each draw
    // means no leave inside the horizon, never a leave cast into the past.
    const auto devices = make_population(20, 11);
    core::CampaignConfig faulted;
    faulted.churn.leave_rate = 1e-300;
    faulted.churn.rejoin_ms = 120'000;
    const core::CampaignResult result =
        run_campaign(core::MechanismKind::dr_sc, devices, faulted);
    EXPECT_EQ(result.churn_leaves, 0u);
}

TEST(FaultsCampaignTest, ChurnedDeliveryMissesCountRedeliveryBytes) {
    const auto devices = make_population(300, 5);
    core::CampaignConfig faulted;
    // Moderate churn: devices survive to their next paging occasion after
    // rejoin, so a missed shared delivery is actually recovered (extreme
    // rates just keep re-departing before the recovery page can land).
    faulted.churn.leave_rate = 30.0;
    faulted.churn.rejoin_ms = 120'000;
    const core::CampaignResult result =
        run_campaign(core::MechanismKind::da_sc, devices, faulted);
    EXPECT_GT(result.churn_leaves, 0u);
    // With departures this dense some device misses the shared bearer and
    // is re-served by a dedicated copy, which is fault overhead.
    EXPECT_GT(result.redelivery_bytes, 0);
    EXPECT_EQ(result.redelivery_bytes % result.payload_bytes, 0);
}

TEST(FaultsCampaignTest, OutageStrandsIncompleteDevices) {
    const auto devices = make_population(60, 11);
    core::CampaignConfig faulted;
    faulted.outage_at_ms = 60'000;  // long before eDRX tails complete
    const core::CampaignResult result =
        run_campaign(core::MechanismKind::dr_sc, devices, faulted);
    EXPECT_GT(result.stranded, 0u);
    std::size_t unreceived = 0;
    for (const core::DeviceOutcome& device : result.devices) {
        unreceived += device.received ? 0 : 1;
    }
    EXPECT_EQ(result.stranded, unreceived);
    EXPECT_LT(result.received_count(), devices.size());
    // The horizon is derived before the outage fires, so the comparison
    // axis is the same one a healthy run would report.
    const core::CampaignResult healthy = run_campaign(
        core::MechanismKind::dr_sc, devices, core::CampaignConfig{});
    EXPECT_EQ(result.observation_horizon, healthy.observation_horizon);
}

}  // namespace
}  // namespace nbmg::faults
