// Planner invariants for all five mechanisms, including parameterized
// sweeps over populations and seeds (paper Sec. III semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "core/mechanism.hpp"
#include "core/planners.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

using nbiot::DrxCycle;
using nbiot::SimTime;

std::vector<nbiot::UeSpec> make_population(std::size_t n, std::uint64_t seed,
                                           const traffic::PopulationProfile& profile =
                                               traffic::massive_iot_city()) {
    sim::RandomStream rng{seed};
    return traffic::to_specs(traffic::generate_population(profile, n, rng));
}

MulticastPlan plan_with(MechanismKind kind, std::span<const nbiot::UeSpec> devices,
                        const CampaignConfig& config, std::uint64_t seed = 99) {
    sim::RandomStream rng{seed};
    return make_mechanism(kind)->plan(devices, config, rng);
}

// ------------------------------------------------------------- factory ----

TEST(MechanismFactoryTest, CreatesEveryKind) {
    for (const MechanismKind kind :
         {MechanismKind::dr_sc, MechanismKind::da_sc, MechanismKind::dr_si,
          MechanismKind::unicast, MechanismKind::sc_ptm}) {
        const auto mechanism = make_mechanism(kind);
        ASSERT_NE(mechanism, nullptr);
        EXPECT_EQ(mechanism->kind(), kind);
        EXPECT_FALSE(mechanism->name().empty());
    }
}

TEST(MechanismPropertiesTest, PaperTradeoffTable) {
    EXPECT_TRUE(standards_compliant(MechanismKind::dr_sc));
    EXPECT_TRUE(standards_compliant(MechanismKind::da_sc));
    EXPECT_FALSE(standards_compliant(MechanismKind::dr_si));
    EXPECT_TRUE(respects_drx(MechanismKind::dr_sc));
    EXPECT_FALSE(respects_drx(MechanismKind::da_sc));
    EXPECT_TRUE(respects_drx(MechanismKind::dr_si));
}

TEST(PopulationMaxCycleTest, MatchesManualScan) {
    const auto devices = make_population(200, 3);
    DrxCycle expect = devices.front().cycle;
    for (const auto& d : devices) expect = std::max(expect, d.cycle);
    EXPECT_EQ(population_max_cycle(devices), expect);
    EXPECT_THROW((void)population_max_cycle({}), std::invalid_argument);
}

// ------------------------------------------------- per-mechanism rules ----

class PlannerSweepTest
    : public ::testing::TestWithParam<std::tuple<MechanismKind, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(PlannerSweepTest, PlanSatisfiesInvariants) {
    const auto [kind, n, seed] = GetParam();
    const auto devices = make_population(n, seed);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(kind, devices, config, seed);
    EXPECT_NO_THROW(validate_plan(plan, devices));
    EXPECT_EQ(plan.kind, kind);
    for (const auto& s : plan.schedules) {
        EXPECT_TRUE(s.served()) << "default paging capacity must serve everyone";
    }
}

TEST_P(PlannerSweepTest, PlansAreDeterministicPerSeed) {
    const auto [kind, n, seed] = GetParam();
    const auto devices = make_population(n, seed);
    const CampaignConfig config;
    const MulticastPlan a = plan_with(kind, devices, config, 5);
    const MulticastPlan b = plan_with(kind, devices, config, 5);
    ASSERT_EQ(a.transmissions.size(), b.transmissions.size());
    for (std::size_t i = 0; i < a.transmissions.size(); ++i) {
        EXPECT_EQ(a.transmissions[i].start, b.transmissions[i].start);
        EXPECT_EQ(a.transmissions[i].devices.size(), b.transmissions[i].devices.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, PlannerSweepTest,
    ::testing::Combine(::testing::Values(MechanismKind::dr_sc, MechanismKind::da_sc,
                                         MechanismKind::dr_si, MechanismKind::unicast,
                                         MechanismKind::sc_ptm),
                       ::testing::Values(std::size_t{1}, std::size_t{25},
                                         std::size_t{150}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{17})));

// --------------------------------------------------------------- DR-SC ----

TEST(DrScPlanTest, EveryDeviceIsPagedAtOwnPoInsideItsWindow) {
    const auto devices = make_population(120, 4);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::dr_sc, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        ASSERT_TRUE(s.page_at.has_value());
        const auto& dev = devices[i];
        EXPECT_TRUE(paging.phase(dev.imsi, dev.cycle).is_po(*s.page_at))
            << "DR-SC must respect the device's own paging occasions";
        EXPECT_FALSE(s.adjustment.has_value());
        EXPECT_FALSE(s.mltc.has_value());
        const auto& tx = plan.transmissions[s.transmission];
        EXPECT_LT(*s.page_at, tx.start);
    }
}

TEST(DrScPlanTest, TransmissionCountSublinearInDevices) {
    const CampaignConfig config;
    const auto small = make_population(100, 11);
    const auto large = make_population(800, 11);
    const auto small_tx =
        plan_with(MechanismKind::dr_sc, small, config).transmissions.size();
    const auto large_tx =
        plan_with(MechanismKind::dr_sc, large, config).transmissions.size();
    EXPECT_LT(small_tx, 100u);
    EXPECT_LT(large_tx, 800u * small_tx / 100u)
        << "transmissions must grow slower than devices (paper Fig. 7)";
}

TEST(DrScPlanTest, SingleDeviceGetsOneTransmission) {
    const auto devices = make_population(1, 2);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::dr_sc, devices, config);
    EXPECT_EQ(plan.transmissions.size(), 1u);
}

TEST(DrScPlanTest, IdenticalImsiBatchSharesOneTransmission) {
    // Four devices with consecutive IMSIs and the same cycle: one window.
    std::vector<nbiot::UeSpec> devices;
    for (std::uint32_t i = 0; i < 4; ++i) {
        devices.push_back(nbiot::UeSpec{nbiot::DeviceId{i}, nbiot::Imsi{500'000 + i},
                                        nbiot::drx::seconds_2621_44(),
                                        nbiot::CeLevel::ce0});
    }
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::dr_sc, devices, config);
    EXPECT_EQ(plan.transmissions.size(), 1u);
    EXPECT_EQ(plan.transmissions.front().devices.size(), 4u);
}

/// A device's POs in [from, to), stepped one period at a time from its
/// first PO at or after `from`.
std::vector<SimTime> pos_in_range(const nbiot::PoPhase& phase, SimTime from, SimTime to) {
    std::vector<SimTime> out;
    if (from >= to) return out;
    for (SimTime po = phase.first_at_or_after(from); po < to; po += SimTime{phase.period}) {
        out.push_back(po);
    }
    return out;
}

/// (time, device) order.
bool event_before(const setcover::PoEvent& a, const setcover::PoEvent& b) {
    return std::tie(a.at, a.device) < std::tie(b.at, b.device);
}

/// The reference for dr_sc_po_events: each device's pos_in_range over
/// [0, horizon), concatenated in device order, then sorted into (time,
/// device) order.
std::vector<setcover::PoEvent> sorted_pos_in_range(std::span<const nbiot::UeSpec> devices,
                                                   const nbiot::PagingSchedule& paging,
                                                   SimTime horizon) {
    std::vector<setcover::PoEvent> events;
    for (const nbiot::UeSpec& dev : devices) {
        for (const SimTime po :
             pos_in_range(paging.phase(dev.imsi, dev.cycle), SimTime{0}, horizon)) {
            events.push_back({po, dev.device.value});
        }
    }
    std::sort(events.begin(), events.end(), event_before);
    return events;
}

TEST(DrScPoEventsTest, MatchesConcatenatedPosInRange) {
    sim::RandomStream gen{2024};
    const auto ladder = nbiot::drx_ladder();
    const std::int64_t longest = ladder.back().period_ms();
    // nB = T, T/2, 2T and 4T: every PO-offset formula branch.
    const std::pair<std::int64_t, std::int64_t> nb_ratios[] = {{1, 1}, {1, 2}, {2, 1}, {4, 1}};
    for (const auto& [nb_num, nb_den] : nb_ratios) {
        const nbiot::PagingSchedule paging(
            nbiot::PagingConfig{.nb_num = nb_num, .nb_den = nb_den});
        for (int trial = 0; trial < 4; ++trial) {
            // Every ladder cycle, twice, each time with a random IMSI.
            std::vector<nbiot::UeSpec> devices;
            for (std::uint32_t k = 0; k < 2 * ladder.size(); ++k) {
                devices.push_back({nbiot::DeviceId{k}, nbiot::Imsi{gen.next_u64()},
                                   ladder[k % ladder.size()], nbiot::CeLevel::ce0});
            }
            // DR-SC's own horizon, then one that is a multiple of no period
            // (every period is a whole number of 10 ms frames).  The events
            // come in strictly increasing (time, device) order.
            const std::int64_t odd = 10 * gen.uniform_int(1, longest / 5) + 3;
            for (const std::int64_t horizon : {2 * longest, odd}) {
                const std::vector<setcover::PoEvent> events =
                    dr_sc_po_events(devices, paging, SimTime{horizon});
                EXPECT_EQ(events, sorted_pos_in_range(devices, paging, SimTime{horizon}))
                    << "horizon " << horizon;
                EXPECT_EQ(std::adjacent_find(events.begin(), events.end(),
                                             [](const auto& a, const auto& b) {
                                                 return !event_before(a, b);
                                             }),
                          events.end())
                    << "horizon " << horizon;
            }
            // A horizon at or below a device's PO offset gives it no event;
            // one past the offset gives exactly the offset.
            for (const nbiot::UeSpec& dev : devices) {
                const SimTime offset = paging.po_offset(dev.imsi, dev.cycle);
                const std::span<const nbiot::UeSpec> one(&dev, 1);
                EXPECT_TRUE(dr_sc_po_events(one, paging, offset).empty());
                EXPECT_TRUE(dr_sc_po_events(one, paging, SimTime{0}).empty());
                EXPECT_EQ(dr_sc_po_events(one, paging, offset + SimTime{1}),
                          sorted_pos_in_range(one, paging, offset + SimTime{1}));
                EXPECT_EQ(dr_sc_po_events(one, paging, offset + SimTime{1}).size(), 1u);
            }
        }
    }
}

/// DR-SC plans one maxDRX of POs and folds the horizon's second copy: over
/// [0, 2 maxDRX) the events, in (time, device) order, are those of
/// [0, maxDRX) followed by the same events shifted by maxDRX.  Every cycle
/// up to maxDRX divides it, under every nB ratio.
TEST(DrScPoEventsTest, TwoMaxDrxHoldTwoCopiesOfOne) {
    sim::RandomStream gen{2025};
    const auto ladder = nbiot::drx_ladder();
    // (time, device) order as one integer key, times shifted by `shift`:
    // every time here stays below 2^32 ms.
    const auto sorted_keys = [](const std::vector<setcover::PoEvent>& events,
                                SimTime shift) {
        std::vector<std::uint64_t> keys;
        keys.reserve(events.size());
        for (const setcover::PoEvent& e : events) {
            keys.push_back(static_cast<std::uint64_t>((e.at + shift).count()) << 32 |
                           e.device);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    const std::pair<std::int64_t, std::int64_t> nb_ratios[] = {{1, 1}, {1, 2}, {2, 1}, {4, 1}};
    for (const auto& [nb_num, nb_den] : nb_ratios) {
        const nbiot::PagingSchedule paging(
            nbiot::PagingConfig{.nb_num = nb_num, .nb_den = nb_den});
        for (std::size_t top = 0; top < ladder.size(); ++top) {
            // maxDRX is ladder[top]: one device on every cycle up to it,
            // each with a random IMSI.
            std::vector<nbiot::UeSpec> devices;
            for (std::uint32_t k = 0; k <= top; ++k) {
                devices.push_back({nbiot::DeviceId{k}, nbiot::Imsi{gen.next_u64()}, ladder[k],
                                   nbiot::CeLevel::ce0});
            }
            const SimTime max_drx{ladder[top].period_ms()};
            const std::vector<setcover::PoEvent> one = dr_sc_po_events(devices, paging, max_drx);
            std::vector<std::uint64_t> expected = sorted_keys(one, SimTime{0});
            const std::vector<std::uint64_t> second = sorted_keys(one, max_drx);
            expected.insert(expected.end(), second.begin(), second.end());
            EXPECT_EQ(sorted_keys(dr_sc_po_events(devices, paging, 2 * max_drx), SimTime{0}),
                      expected)
                << "nB " << nb_num << "/" << nb_den << ", maxDRX " << max_drx.count();
        }
    }
}

/// The planner's call, one maxDRX period and two copies, covers exactly as
/// the flat call over the whole 2 maxDRX horizon does: the same windows,
/// device lists and tie-break draws on 20 city fleets.
TEST(DrScCoverTest, TwoCopiesOfOneMaxDrxEqualTheFlatHorizon) {
    const CampaignConfig config;
    const nbiot::PagingSchedule paging(config.paging);
    for (std::uint64_t fleet = 0; fleet < 20; ++fleet) {
        SCOPED_TRACE(::testing::Message() << "fleet " << fleet);
        const auto devices = make_population(300, 1'000 + fleet);
        const auto count = static_cast<std::uint32_t>(devices.size());
        const SimTime max_drx{population_max_cycle(devices).period_ms()};
        sim::RandomStream folded_rng{fleet};
        sim::RandomStream flat_rng{fleet};
        const setcover::WindowCoverResult folded = setcover::greedy_window_cover(
            dr_sc_po_events(devices, paging, max_drx), max_drx, 2, config.inactivity_timer,
            count, folded_rng);
        const setcover::WindowCoverResult flat = setcover::greedy_window_cover(
            dr_sc_po_events(devices, paging, 2 * max_drx), config.inactivity_timer, count,
            flat_rng);
        EXPECT_EQ(folded.uncoverable, flat.uncoverable);
        ASSERT_EQ(folded.windows.size(), flat.windows.size());
        for (std::size_t w = 0; w < flat.windows.size(); ++w) {
            EXPECT_EQ(folded.windows[w].start, flat.windows[w].start) << "window " << w;
            EXPECT_EQ(folded.windows[w].end, flat.windows[w].end) << "window " << w;
            EXPECT_EQ(folded.windows[w].devices, flat.windows[w].devices) << "window " << w;
        }
        EXPECT_EQ(folded_rng.next_u64(), flat_rng.next_u64());
    }
}

// --------------------------------------------------------------- DA-SC ----

TEST(DaScPlanTest, SingleTransmissionAfterReference) {
    const auto devices = make_population(120, 4);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    ASSERT_EQ(plan.transmissions.size(), 1u);
    const SimTime t = plan.planning_reference;
    EXPECT_GE(t, SimTime{2 * population_max_cycle(devices).period_ms()});
    EXPECT_EQ(plan.transmissions.front().start, t + config.ra_guard);
}

TEST(DaScPlanTest, DevicesWithNaturalPoInWindowAreNotAdjusted) {
    const auto devices = make_population(150, 6);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    const SimTime t = plan.planning_reference;
    const SimTime window_start = t - config.inactivity_timer;
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        const auto& dev = devices[i];
        if (paging.phase(dev.imsi, dev.cycle).has_in_range(window_start, t)) {
            EXPECT_FALSE(s.adjustment.has_value())
                << "natural-PO devices must keep their cycle (Sec. III-B)";
        } else {
            EXPECT_TRUE(s.adjustment.has_value());
        }
    }
}

TEST(DaScPlanTest, AdjustmentsAreShorterCyclesPagedBeforeWindow) {
    const auto devices = make_population(150, 6);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    const SimTime t = plan.planning_reference;
    const SimTime window_start = t - config.inactivity_timer;
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        if (!s.adjustment) continue;
        const auto& dev = devices[i];
        EXPECT_LT(s.adjustment->adapted_cycle, dev.cycle)
            << "DA-SC only decreases cycles";
        EXPECT_LT(s.adjustment->adjust_page_at, window_start)
            << "adaptation happens at the last PO before t - TI";
        EXPECT_TRUE(paging.phase(dev.imsi, dev.cycle).is_po(s.adjustment->adjust_page_at))
            << "the adjustment page rides a PO of the original cycle";
        ASSERT_TRUE(s.page_at.has_value());
        EXPECT_GE(*s.page_at, window_start);
        EXPECT_LT(*s.page_at, t);
    }
}

TEST(DaScPlanTest, AdaptedPoSitsOnBothGrids) {
    // Reproduction note R1: because the ladder nests under nB = T, the
    // adapted occasions simultaneously (a) satisfy the TS 36.304 congruence
    // of the adapted cycle and (b) repeat from the adjustment PO, exactly
    // as the paper's Fig. 5 draws them.  The two views are the same grid.
    const auto devices = make_population(100, 8);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        if (!s.adjustment) continue;
        const auto& dev = devices[i];
        EXPECT_TRUE(paging.phase(dev.imsi, s.adjustment->adapted_cycle).is_po(*s.page_at));
        const std::int64_t delta = (*s.page_at - s.adjustment->adjust_page_at).count();
        EXPECT_EQ(delta % s.adjustment->adapted_cycle.period_ms(), 0);
        EXPECT_GT(delta, 0);
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST(DaScPlanTest, WindowPagesSpreadAcrossWindow) {
    // The adapted-cycle page is placed on a uniformly chosen occasion in
    // the window, spreading the RACH load like DR-SI's random T322 expiry.
    const auto devices = make_population(300, 12);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    const nbiot::SimTime window_start =
        plan.planning_reference - config.inactivity_timer;
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& s : plan.schedules) {
        if (!s.adjustment) continue;
        sum += static_cast<double>((*s.page_at - window_start).count());
        ++count;
    }
    ASSERT_GT(count, 100u);
    const double mean_fraction =
        sum / static_cast<double>(count) /
        static_cast<double>(config.inactivity_timer.count());
    EXPECT_NEAR(mean_fraction, 0.5, 0.12);
}

// --------------------------------------------------------------- DR-SI ----

TEST(DrSiPlanTest, ExtensionOnlyForDevicesOutsideWindow) {
    const auto devices = make_population(150, 4);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::dr_si, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    const SimTime t = plan.planning_reference;
    const SimTime window_start = t - config.inactivity_timer;
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        const auto& dev = devices[i];
        if (paging.phase(dev.imsi, dev.cycle).has_in_range(window_start, t)) {
            EXPECT_TRUE(s.page_at.has_value());
            EXPECT_FALSE(s.mltc.has_value());
        } else {
            ASSERT_TRUE(s.mltc.has_value());
            EXPECT_FALSE(s.page_at.has_value());
        }
        EXPECT_FALSE(s.adjustment.has_value()) << "DR-SI never adjusts DRX";
    }
}

TEST(DrSiPlanTest, WakeTimesUniformInWindow) {
    const auto devices = make_population(300, 9);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::dr_si, devices, config);
    const SimTime t = plan.planning_reference;
    const SimTime window_start = t - config.inactivity_timer;
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& s : plan.schedules) {
        if (!s.mltc) continue;
        EXPECT_GE(s.mltc->wake_at, window_start);
        EXPECT_LT(s.mltc->wake_at, t);
        EXPECT_LT(s.mltc->notify_po_at, window_start)
            << "notification must precede the window";
        sum += static_cast<double>((s.mltc->wake_at - window_start).count());
        ++count;
    }
    ASSERT_GT(count, 50u);
    const double mean_fraction =
        sum / static_cast<double>(count) /
        static_cast<double>(config.inactivity_timer.count());
    EXPECT_NEAR(mean_fraction, 0.5, 0.1) << "T322 expiry ~ uniform in [t-TI, t)";
}

TEST(DrSiPlanTest, DifferentSeedsGiveDifferentWakeTimes) {
    const auto devices = make_population(100, 9);
    const CampaignConfig config;
    const MulticastPlan a = plan_with(MechanismKind::dr_si, devices, config, 1);
    const MulticastPlan b = plan_with(MechanismKind::dr_si, devices, config, 2);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.schedules.size(); ++i) {
        if (a.schedules[i].mltc && b.schedules[i].mltc) {
            any_diff |= a.schedules[i].mltc->wake_at != b.schedules[i].mltc->wake_at;
        }
    }
    EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------ baselines ----

TEST(UnicastPlanTest, EveryServedDeviceGetsAPrivateCopy) {
    // No shared transmission: each served device is sent its own copy when
    // it connects, so the plan is its schedules alone.
    const auto devices = make_population(80, 5);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::unicast, devices, config);
    EXPECT_TRUE(plan.transmissions.empty());
    for (const DeviceSchedule& s : plan.schedules) {
        ASSERT_TRUE(s.served());
        EXPECT_EQ(s.transmission, DeviceSchedule::kPrivate);
        EXPECT_FALSE(s.shared());
    }
}

TEST(UnicastPlanTest, PagesAtFirstPo) {
    const auto devices = make_population(80, 5);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::unicast, devices, config);
    const nbiot::PagingSchedule paging(config.paging);
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
        const DeviceSchedule& s = plan.schedules[i];
        const auto& dev = devices[i];
        ASSERT_TRUE(s.page_at.has_value());
        // First PO unless capacity deferred (rare at this size).
        EXPECT_LE(*s.page_at, paging.phase(dev.imsi, dev.cycle).first_at_or_after(SimTime{0}) +
                                  SimTime{3 * dev.cycle.period_ms()});
    }
}

TEST(ScPtmPlanTest, BroadcastToAllWithoutPaging) {
    const auto devices = make_population(60, 5);
    const CampaignConfig config;
    const MulticastPlan plan = plan_with(MechanismKind::sc_ptm, devices, config);
    ASSERT_EQ(plan.transmissions.size(), 1u);
    EXPECT_EQ(plan.transmissions.front().devices.size(), devices.size());
    for (const DeviceSchedule& schedule : plan.schedules) {
        EXPECT_FALSE(schedule.page_at || schedule.adjustment || schedule.mltc);
    }
    EXPECT_GT(plan.transmissions.front().start, config.sc_ptm_mcch_period);
}

// ----------------------------------------------------- validate_plan ------

TEST(ValidatePlanTest, CatchesDuplicateDeviceInTransmissions) {
    const auto devices = make_population(10, 1);
    const CampaignConfig config;
    MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    plan.transmissions.front().devices.push_back(plan.transmissions.front().devices[0]);
    EXPECT_THROW(validate_plan(plan, devices), std::logic_error);
}

TEST(ValidatePlanTest, CatchesScheduleCountMismatch) {
    const auto devices = make_population(10, 1);
    const CampaignConfig config;
    MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    plan.schedules.pop_back();
    EXPECT_THROW(validate_plan(plan, devices), std::logic_error);
}

TEST(ValidatePlanTest, CatchesExtraTransmissionForSingleTxKinds) {
    const auto devices = make_population(10, 1);
    const CampaignConfig config;
    MulticastPlan plan = plan_with(MechanismKind::dr_si, devices, config);
    plan.transmissions.push_back(PlannedTransmission{SimTime{1}, {}});
    EXPECT_THROW(validate_plan(plan, devices), std::logic_error);
}

TEST(ValidatePlanTest, PrivateCopiesAreUnicastsAlone) {
    // kPrivate appears only in unicast plans, every served unicast schedule
    // is kPrivate, and a unicast plan holds no shared transmission.
    const auto devices = make_population(10, 1);
    const CampaignConfig config;
    const MulticastPlan unicast = plan_with(MechanismKind::unicast, devices, config);
    ASSERT_NO_THROW(validate_plan(unicast, devices));

    MulticastPlan shared_copy = unicast;
    shared_copy.transmissions.push_back(PlannedTransmission{SimTime{1}, {nbiot::DeviceId{0}}});
    shared_copy.schedules[0].transmission = 0;
    EXPECT_THROW(validate_plan(shared_copy, devices), std::logic_error);

    MulticastPlan empty_transmission = unicast;
    empty_transmission.transmissions.push_back(PlannedTransmission{SimTime{1}, {}});
    EXPECT_THROW(validate_plan(empty_transmission, devices), std::logic_error);

    for (const MechanismKind kind : {MechanismKind::dr_sc, MechanismKind::da_sc,
                                     MechanismKind::dr_si, MechanismKind::sc_ptm}) {
        SCOPED_TRACE(to_string(kind));
        MulticastPlan plan = plan_with(kind, devices, config);
        ASSERT_NO_THROW(validate_plan(plan, devices));
        // Device 0 leaves its shared transmission for a private copy.
        for (PlannedTransmission& tx : plan.transmissions) {
            std::erase(tx.devices, nbiot::DeviceId{0});
        }
        plan.schedules[0].transmission = DeviceSchedule::kPrivate;
        EXPECT_THROW(validate_plan(plan, devices), std::logic_error);
    }
}

TEST(PlannerEdgeTest, EmptyPopulationThrows) {
    const CampaignConfig config;
    sim::RandomStream rng{1};
    for (const MechanismKind kind :
         {MechanismKind::dr_sc, MechanismKind::da_sc, MechanismKind::dr_si,
          MechanismKind::unicast, MechanismKind::sc_ptm}) {
        EXPECT_THROW((void)make_mechanism(kind)->plan({}, config, rng),
                     std::invalid_argument);
    }
}

TEST(PlannerEdgeTest, InvalidConfigThrows) {
    const auto devices = make_population(5, 1);
    CampaignConfig config;
    config.inactivity_timer = SimTime{0};
    sim::RandomStream rng{1};
    EXPECT_THROW((void)DrScMechanism{}.plan(devices, config, rng),
                 std::invalid_argument);
}

TEST(PlannerEdgeTest, AllShortCyclesNeedNoAdjustment) {
    std::vector<nbiot::UeSpec> devices;
    for (std::uint32_t i = 0; i < 20; ++i) {
        devices.push_back(nbiot::UeSpec{nbiot::DeviceId{i}, nbiot::Imsi{1'000 + 37 * i},
                                        nbiot::drx::seconds_2_56(),
                                        nbiot::CeLevel::ce0});
    }
    const CampaignConfig config;  // TI = 10 s > 2.56 s: PO always in window
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    for (const auto& s : plan.schedules) {
        EXPECT_FALSE(s.adjustment.has_value());
    }
}

TEST(PlannerEdgeTest, TinyPagingCapacityProducesUnservedNotCrash) {
    // 30 devices with identical paging occasions but capacity 1 per PO and
    // an extremely short window: some devices must become unserved.
    std::vector<nbiot::UeSpec> devices;
    for (std::uint32_t i = 0; i < 30; ++i) {
        devices.push_back(nbiot::UeSpec{nbiot::DeviceId{i},
                                        nbiot::Imsi{(std::uint64_t{1} << 20) * i + 5},
                                        nbiot::drx::seconds_10485_76(),
                                        nbiot::CeLevel::ce0});
    }
    CampaignConfig config;
    config.paging.max_page_records = 1;
    const MulticastPlan plan = plan_with(MechanismKind::da_sc, devices, config);
    EXPECT_NO_THROW(validate_plan(plan, devices));
    // All 30 share PO instants (same UE_ID mod everything); the single
    // transmission can still only be fed by limited paging slots.
    EXPECT_EQ(plan.schedules.size(), 30u);
}

}  // namespace
}  // namespace nbmg::core
