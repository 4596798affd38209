// Campaign runner behaviour: delivery guarantees, uptime bucket semantics,
// every device's PO ledger closing at the horizon or the outage, recovery
// under failure injection, and the bandwidth accounting.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "core/planners.hpp"
#include "core/report.hpp"
#include "traffic/firmware.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

using nbiot::SimTime;

constexpr std::int64_t kPayload = 100 * 1024;

std::vector<nbiot::UeSpec> make_population(std::size_t n, std::uint64_t seed) {
    sim::RandomStream rng{seed};
    return traffic::to_specs(
        traffic::generate_population(traffic::massive_iot_city(), n, rng));
}

CampaignResult run(MechanismKind kind, std::span<const nbiot::UeSpec> devices,
                   const CampaignConfig& config, std::uint64_t seed = 7,
                   std::int64_t payload = kPayload) {
    return plan_and_run(*make_mechanism(kind), devices, config, payload, seed);
}

TEST(CampaignRunnerTest, InvalidConfigRejected) {
    CampaignConfig config;
    config.page_miss_prob = 1.0;
    EXPECT_THROW(CampaignRunner{config}, std::invalid_argument);
}

TEST(CampaignRunnerTest, AllMechanismsDeliverToEveryDevice) {
    const auto devices = make_population(80, 3);
    const CampaignConfig config;
    for (const MechanismKind kind :
         {MechanismKind::unicast, MechanismKind::dr_sc, MechanismKind::da_sc,
          MechanismKind::dr_si, MechanismKind::sc_ptm}) {
        const CampaignResult result = run(kind, devices, config);
        EXPECT_TRUE(result.all_received()) << to_string(kind);
        EXPECT_EQ(result.devices.size(), devices.size());
        EXPECT_EQ(result.unserved, 0u);
    }
}

TEST(CampaignRunnerTest, SingleTransmissionForDaScAndDrSi) {
    const auto devices = make_population(60, 4);
    const CampaignConfig config;
    EXPECT_EQ(run(MechanismKind::da_sc, devices, config).total_transmissions(), 1u);
    EXPECT_EQ(run(MechanismKind::dr_si, devices, config).total_transmissions(), 1u);
    EXPECT_EQ(run(MechanismKind::sc_ptm, devices, config).total_transmissions(), 1u);
}

TEST(CampaignRunnerTest, UnicastTransmitsOncePerDevice) {
    const auto devices = make_population(60, 4);
    const CampaignConfig config;
    const CampaignResult result = run(MechanismKind::unicast, devices, config);
    EXPECT_EQ(result.total_transmissions(), devices.size());
}

TEST(CampaignRunnerTest, DrScLightSleepExactlyMatchesUnicast) {
    // The paper's headline Fig. 6(a) claim: DR-SC costs no extra POs.
    const auto devices = make_population(100, 5);
    const CampaignConfig config;
    const CampaignResult unicast = run(MechanismKind::unicast, devices, config);
    const CampaignResult dr_sc = run(MechanismKind::dr_sc, devices, config);
    ASSERT_EQ(unicast.devices.size(), dr_sc.devices.size());
    for (std::size_t i = 0; i < unicast.devices.size(); ++i) {
        EXPECT_EQ(dr_sc.devices[i].energy.uptime(nbiot::PowerState::po_monitor),
                  unicast.devices[i].energy.uptime(nbiot::PowerState::po_monitor))
            << "device " << i;
    }
}

TEST(CampaignRunnerTest, ConnectedUptimeOrderingMatchesPaper) {
    // Large population so the paper's expected ordering dominates the
    // per-device position-sampling noise of the waits.
    const auto devices = make_population(600, 6);
    const CampaignConfig config;
    const CampaignResult unicast = run(MechanismKind::unicast, devices, config);
    const CampaignResult dr_sc = run(MechanismKind::dr_sc, devices, config);
    const CampaignResult da_sc = run(MechanismKind::da_sc, devices, config);
    const CampaignResult dr_si = run(MechanismKind::dr_si, devices, config);
    const double base = total_connected_ms(unicast);
    EXPECT_GT(total_connected_ms(dr_sc), base);
    EXPECT_GT(total_connected_ms(dr_si), total_connected_ms(dr_sc));
    EXPECT_GT(total_connected_ms(da_sc), total_connected_ms(dr_si))
        << "DA-SC has the longest connected uptime (Fig. 6b)";
}

TEST(CampaignRunnerTest, DaScLightSleepExceedsUnicast) {
    const auto devices = make_population(120, 6);
    const CampaignConfig config;
    const CampaignResult unicast = run(MechanismKind::unicast, devices, config);
    const CampaignResult da_sc = run(MechanismKind::da_sc, devices, config);
    EXPECT_GT(total_light_sleep_ms(da_sc), total_light_sleep_ms(unicast));
}

TEST(CampaignRunnerTest, DrSiLightSleepOnlyExtensionDecode) {
    const auto devices = make_population(100, 8);
    const CampaignConfig config;
    const CampaignResult unicast = run(MechanismKind::unicast, devices, config);
    const CampaignResult dr_si = run(MechanismKind::dr_si, devices, config);
    const double delta = total_light_sleep_ms(dr_si) - total_light_sleep_ms(unicast);
    EXPECT_GE(delta, 0.0);
    // At most one extension decode extra per device.
    EXPECT_LE(delta, static_cast<double>(devices.size() *
                                         static_cast<std::size_t>(
                                             config.timing.mltc_extension_extra.count())));
}

TEST(CampaignRunnerTest, ScPtmMonitoringDwarfsOnDemandLightSleep) {
    // The reason [3] exists: SC-PTM devices monitor the SC-MCCH forever.
    const auto devices = make_population(60, 9);
    const CampaignConfig config;
    const CampaignResult dr_si = run(MechanismKind::dr_si, devices, config);
    const CampaignResult sc_ptm = run(MechanismKind::sc_ptm, devices, config);
    EXPECT_GT(total_light_sleep_ms(sc_ptm), 2.0 * total_light_sleep_ms(dr_si));
    // But SC-PTM receives in idle mode: no RACH at all.
    EXPECT_EQ(sc_ptm.rach_attempts, 0u);
}

TEST(CampaignRunnerTest, RelativeIncreaseShrinksWithPayload) {
    const auto devices = make_population(80, 10);
    const CampaignConfig config;
    auto increase = [&](std::int64_t payload) {
        const auto unicast_plan = UnicastBaseline{};
        const CampaignResult u =
            plan_and_run(unicast_plan, devices, config, payload, 3);
        const DaScMechanism da{};
        const CampaignResult m = plan_and_run(da, devices, config, payload, 3);
        return relative_uptime(m, u).connected_increase;
    };
    const double small = increase(traffic::firmware_100kb().bytes);
    const double large = increase(traffic::firmware_1mb().bytes);
    EXPECT_GT(small, large) << "overhead must become negligible for big payloads";
    EXPECT_LT(large, 0.05);
}

TEST(CampaignRunnerTest, ObservationHorizonRecordedAndRespected) {
    const auto devices = make_population(40, 2);
    const CampaignConfig config;
    const CampaignResult result = run(MechanismKind::unicast, devices, config);
    EXPECT_EQ(result.observation_horizon,
              recommended_horizon(devices, config, kPayload));
    // Light-sleep POs scale with the horizon: every device has po_count >=
    // horizon / cycle (within one).
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const auto expected = result.observation_horizon.count() /
                              devices[i].cycle.period_ms();
        EXPECT_NEAR(static_cast<double>(result.devices[i].po_count),
                    static_cast<double>(expected), 2.0);
    }
}

TEST(CampaignRunnerTest, BytesOnAirScaleWithTransmissions) {
    const auto devices = make_population(100, 12);
    const CampaignConfig config;
    const CampaignResult unicast = run(MechanismKind::unicast, devices, config);
    const CampaignResult dr_sc = run(MechanismKind::dr_sc, devices, config);
    const CampaignResult da_sc = run(MechanismKind::da_sc, devices, config);
    EXPECT_LT(dr_sc.bytes_on_air, unicast.bytes_on_air);
    EXPECT_LT(da_sc.bytes_on_air, dr_sc.bytes_on_air);
    EXPECT_GE(da_sc.bytes_on_air, kPayload);
}

TEST(CampaignRunnerTest, PagingEntriesTrackPlanEntries) {
    const auto devices = make_population(100, 12);
    const CampaignConfig config;
    const CampaignResult da_sc = run(MechanismKind::da_sc, devices, config);
    // DA-SC pages adjusted devices twice, natural devices once.
    EXPECT_GE(da_sc.paging_entries, devices.size());
    EXPECT_LE(da_sc.paging_entries, 2 * devices.size());
    EXPECT_GT(da_sc.paging_messages, 0u);
    EXPECT_LE(da_sc.paging_messages, da_sc.paging_entries);
}

TEST(CampaignRunnerTest, InactivityTailChargedWhenEnabled) {
    const auto devices = make_population(30, 13);
    CampaignConfig with_tail;
    with_tail.include_inactivity_tail = true;
    CampaignConfig without;
    const CampaignResult a = run(MechanismKind::unicast, devices, with_tail);
    const CampaignResult b = run(MechanismKind::unicast, devices, without);
    const double delta = total_connected_ms(a) - total_connected_ms(b);
    const double expected = static_cast<double>(devices.size()) *
                            static_cast<double>(with_tail.inactivity_timer.count());
    EXPECT_NEAR(delta, expected, expected * 0.05);
}

TEST(CampaignRunnerTest, DeterministicForSameSeed) {
    const auto devices = make_population(60, 14);
    const CampaignConfig config;
    const CampaignResult a = run(MechanismKind::dr_si, devices, config, 99);
    const CampaignResult b = run(MechanismKind::dr_si, devices, config, 99);
    EXPECT_EQ(total_connected_ms(a), total_connected_ms(b));
    EXPECT_EQ(a.rach_attempts, b.rach_attempts);
    EXPECT_EQ(a.bytes_on_air, b.bytes_on_air);
}

TEST(CampaignRunnerTest, RachContentionRecordsCollisions) {
    // All DR-SI devices wake inside one TI window: heavy RACH contention.
    const auto devices = make_population(400, 15);
    const CampaignConfig config;
    const CampaignResult result = run(MechanismKind::dr_si, devices, config);
    EXPECT_GT(result.rach_collisions, 0u);
    EXPECT_TRUE(result.all_received()) << "retries must absorb the collisions";
}

// ------------------------------------------------- failure injection ------

// ------------------------------------------------------- PO ledgers ----

/// Runs `kind` and checks that every device's PO ledger closed at the
/// horizon, or just after the outage instant when the cell goes dark: its
/// po_count is the closed form of its own cycle over [1, bound), and its
/// po_monitor uptime is those POs plus, for SC-PTM, one SC-MCCH read at
/// each modification period boundary before the bound.  DA-SC's adjusted
/// devices change cycle mid-campaign and are left out.
void expect_po_ledgers_closed(MechanismKind kind, std::span<const nbiot::UeSpec> devices,
                              const CampaignConfig& config, SimTime horizon) {
    sim::RandomStream rng{11};
    const MulticastPlan plan = make_mechanism(kind)->plan(devices, config, rng);
    const CampaignResult result =
        CampaignRunner{config}.run(plan, devices, kPayload, horizon, 7);
    const bool outage =
        config.outage_at_ms >= 1 && SimTime{config.outage_at_ms} < horizon;
    const SimTime bound = outage ? SimTime{config.outage_at_ms + 1} : horizon;
    std::int64_t reads = 0;
    if (kind == MechanismKind::sc_ptm) {
        for (SimTime at = config.sc_ptm_mcch_period; at < bound;
             at += config.sc_ptm_mcch_period) {
            ++reads;
        }
    }
    const nbiot::PagingSchedule paging(config.paging);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (plan.schedules[i].adjustment) continue;
        const DeviceOutcome& outcome = result.devices[i];
        const std::int64_t pos =
            paging.phase(devices[i].imsi, devices[i].cycle).count_in_range(SimTime{1}, bound);
        EXPECT_EQ(static_cast<std::int64_t>(outcome.po_count), pos)
            << to_string(kind) << " device " << i;
        EXPECT_EQ(outcome.energy.uptime(nbiot::PowerState::po_monitor),
                  config.timing.po_monitor * (pos + reads))
            << to_string(kind) << " device " << i;
        ++checked;
    }
    EXPECT_GT(checked, 0u) << to_string(kind);
}

constexpr MechanismKind kLedgerKinds[] = {MechanismKind::unicast, MechanismKind::dr_sc,
                                          MechanismKind::dr_si, MechanismKind::sc_ptm,
                                          MechanismKind::da_sc};

TEST(CampaignLedgerTest, EveryDevicesPoLedgerClosesAtTheHorizon) {
    const auto devices = make_population(120, 12);
    const CampaignConfig config;
    const SimTime horizon = recommended_horizon(devices, config, kPayload);
    for (const MechanismKind kind : kLedgerKinds) {
        expect_po_ledgers_closed(kind, devices, config, horizon);
    }
}

TEST(CampaignLedgerTest, EveryDevicesPoLedgerClosesAtTheOutage) {
    const auto devices = make_population(120, 12);
    CampaignConfig config;
    const SimTime horizon = recommended_horizon(devices, config, kPayload);
    config.outage_at_ms = horizon.count() / 2;
    for (const MechanismKind kind : kLedgerKinds) {
        expect_po_ledgers_closed(kind, devices, config, horizon);
    }
}

TEST(CampaignLedgerTest, ScPtmReadsEveryMillisecondAreChargedInClosedForm) {
    // The modification period accepts 1 ms: 59,999 reads per device over a
    // 60 s horizon, 19,999 when the cell goes dark at 20 s.
    const auto devices = make_population(40, 13);
    CampaignConfig config;
    config.sc_ptm_mcch_period = SimTime{1};
    const SimTime horizon{60'000};
    expect_po_ledgers_closed(MechanismKind::sc_ptm, devices, config, horizon);
    config.outage_at_ms = 20'000;
    expect_po_ledgers_closed(MechanismKind::sc_ptm, devices, config, horizon);
}

TEST(FailureInjectionTest, PageLossIsRecoveredByRetries) {
    const auto devices = make_population(60, 16);
    CampaignConfig config;
    config.page_miss_prob = 0.3;
    config.max_page_attempts = 6;
    const CampaignResult result = run(MechanismKind::unicast, devices, config);
    EXPECT_TRUE(result.all_received());
    EXPECT_GT(result.paging_messages, devices.size())
        << "retries must show up as extra paging messages";
}

TEST(FailureInjectionTest, MulticastMissesTriggerRecoveryTransmissions) {
    const auto devices = make_population(80, 17);
    CampaignConfig config;
    config.page_miss_prob = 0.35;
    config.max_page_attempts = 1;  // no re-page before the transmission
    const CampaignResult result = run(MechanismKind::da_sc, devices, config);
    EXPECT_GT(result.recovery_transmissions, 0u)
        << "devices that missed the single multicast need recovery";
    EXPECT_TRUE(result.all_received());
    EXPECT_GT(result.total_transmissions(), 1u);
}

TEST(FailureInjectionTest, RecoveredDevicesFlagged) {
    const auto devices = make_population(80, 18);
    CampaignConfig config;
    config.page_miss_prob = 0.35;
    config.max_page_attempts = 1;
    const CampaignResult result = run(MechanismKind::dr_si, devices, config);
    std::size_t recovered = 0;
    for (const auto& d : result.devices) recovered += d.recovered ? 1 : 0;
    EXPECT_EQ(recovered, result.recovery_transmissions);
}

TEST(FailureInjectionTest, LossFreeRunsHaveNoRecovery) {
    const auto devices = make_population(80, 19);
    const CampaignConfig config;
    for (const MechanismKind kind :
         {MechanismKind::dr_sc, MechanismKind::da_sc, MechanismKind::dr_si}) {
        const CampaignResult result = run(kind, devices, config);
        EXPECT_EQ(result.recovery_transmissions, 0u) << to_string(kind);
    }
}

TEST(FailureInjectionTest, BackgroundRachLoadSlowsAccessButDelivers) {
    const auto devices = make_population(100, 20);
    CampaignConfig quiet;
    CampaignConfig busy;
    busy.background_ra_per_second = 40.0;
    const CampaignResult a = run(MechanismKind::dr_si, devices, quiet);
    const CampaignResult b = run(MechanismKind::dr_si, devices, busy);
    EXPECT_TRUE(b.all_received());
    EXPECT_GT(b.rach_collisions, a.rach_collisions);
}

// ------------------------------------------------------------- report -----

TEST(ReportTest, RelativeUptimeRequiresMatchingHorizons) {
    const auto devices = make_population(20, 21);
    const CampaignConfig config;
    const CampaignResult a = run(MechanismKind::unicast, devices, config);
    CampaignResult b = run(MechanismKind::dr_si, devices, config);
    b.observation_horizon += SimTime{1};
    EXPECT_THROW((void)relative_uptime(b, a), std::invalid_argument);
}

TEST(ReportTest, RelativeUptimeRequiresSamePopulation) {
    const auto devices = make_population(20, 21);
    const auto others = make_population(20, 22);
    const CampaignConfig config;
    const CampaignResult a = run(MechanismKind::unicast, devices, config);
    const CampaignResult b = run(MechanismKind::unicast, others, config);
    EXPECT_THROW((void)relative_uptime(b, a), std::invalid_argument);
}

TEST(ReportTest, SelfComparisonIsZero) {
    const auto devices = make_population(20, 23);
    const CampaignConfig config;
    const CampaignResult a = run(MechanismKind::unicast, devices, config);
    const RelativeUptime rel = relative_uptime(a, a);
    EXPECT_DOUBLE_EQ(rel.light_sleep_increase, 0.0);
    EXPECT_DOUBLE_EQ(rel.connected_increase, 0.0);
}

TEST(ReportTest, BandwidthComparisonMatchesCounts) {
    const auto devices = make_population(100, 24);
    const CampaignConfig config;
    const CampaignResult u = run(MechanismKind::unicast, devices, config);
    const CampaignResult m = run(MechanismKind::dr_sc, devices, config);
    const BandwidthComparison bw = bandwidth_comparison(m, u);
    EXPECT_EQ(bw.transmissions, m.total_transmissions());
    EXPECT_NEAR(bw.transmissions_per_device,
                static_cast<double>(m.total_transmissions()) / 100.0, 1e-12);
    EXPECT_NEAR(bw.savings_vs_unicast, 1.0 - bw.transmissions_per_device, 1e-12);
    EXPECT_GT(bw.bytes_on_air_ratio, 0.0);
    EXPECT_LT(bw.bytes_on_air_ratio, 1.0);
}

TEST(ReportTest, MeanHelpersConsistentWithTotals) {
    const auto devices = make_population(50, 25);
    const CampaignConfig config;
    const CampaignResult r = run(MechanismKind::dr_si, devices, config);
    EXPECT_NEAR(mean_connected_ms(r) * 50.0, total_connected_ms(r), 1e-6);
    EXPECT_NEAR(mean_light_sleep_ms(r) * 50.0, total_light_sleep_ms(r), 1e-6);
}

}  // namespace
}  // namespace nbmg::core
