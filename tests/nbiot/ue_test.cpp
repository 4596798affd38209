// UE state-machine behaviour: PO monitoring, paging reactions, the DR-SI
// T322 path, DA-SC reconfiguration (anchored and formula models), the
// closed-form PO ledger's tie rule at a cycle change, its close after the
// event loop and its horizon-independent event count, and the uptime
// buckets each procedure charges.
#include "nbiot/ue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "nbiot/cell.hpp"

namespace nbmg::nbiot {
namespace {

class UeTest : public ::testing::Test {
protected:
    UeTest() : cell_(1234, PagingConfig{}, RachConfig{}, TimingModel{}) {}

    Ue& make_ue(DrxCycle cycle, std::uint64_t imsi = 777'000'111) {
        return cell_.add_ue(UeSpec{DeviceId{static_cast<std::uint32_t>(cell_.ue_count())},
                                   Imsi{imsi}, cycle, CeLevel::ce0});
    }

    SimTime po_of(const Ue& ue) {
        return cell_.paging()
            .phase(ue.imsi(), ue.current_cycle())
            .first_at_or_after(SimTime{0});
    }

    /// Drains the queue, then closes every UE's PO ledger, as a campaign
    /// does once its event loop ends.
    void run() {
        cell_.simulation().queue().run_all();
        for (std::uint32_t i = 0; i < cell_.ue_count(); ++i) {
            cell_.ue(DeviceId{i}).finish_monitoring();
        }
    }

    Cell cell_;
    TimingModel timing_{};
};

TEST_F(UeTest, MonitorsEveryPoUntilHorizon) {
    Ue& ue = make_ue(drx::seconds_20_48());
    const SimTime horizon{20'480 * 10 + 1'000};
    ue.start_monitoring(horizon);
    run();
    EXPECT_EQ(ue.po_count(), 10u);
    EXPECT_EQ(ue.energy().uptime(PowerState::po_monitor),
              SimTime{10 * timing_.po_monitor.count()});
    EXPECT_EQ(ue.energy().connected_uptime(), SimTime{0});
}

TEST_F(UeTest, PoCountMatchesScheduleCount) {
    Ue& ue = make_ue(drx::seconds_2_56(), 98'765);
    const SimTime horizon{60'000};
    ue.start_monitoring(horizon);
    run();
    EXPECT_EQ(static_cast<std::int64_t>(ue.po_count()),
              cell_.paging()
                  .phase(ue.imsi(), ue.current_cycle())
                  .count_in_range(SimTime{1}, horizon));
}

TEST_F(UeTest, PageNormalConnectsAndWaits) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{200'000});
    bool connected = false;
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime) { connected = true; };
    cell_.set_ue_hooks(std::move(hooks));

    const SimTime po = po_of(ue);
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_normal(); });
    run();
    EXPECT_TRUE(connected);
    EXPECT_EQ(ue.state(), UeState::connected_waiting);
    EXPECT_GT(ue.energy().uptime(PowerState::paging_rx).count(), 0);
    EXPECT_GT(ue.energy().uptime(PowerState::rach).count(), 0);
    EXPECT_GT(ue.energy().uptime(PowerState::connected_signaling).count(), 0);
    ASSERT_TRUE(ue.connected_at().has_value());
    EXPECT_GT(*ue.connected_at(), po);
}

TEST_F(UeTest, PageNormalWhileNotIdleThrows) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{200'000});
    const SimTime po = po_of(ue);
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_normal(); });
    run();
    ASSERT_EQ(ue.state(), UeState::connected_waiting);
    EXPECT_THROW(ue.page_normal(), std::logic_error);
}

TEST_F(UeTest, ReceptionChargesWaitRxAndRelease) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) {
        ue.begin_reception(at + SimTime{30'000}, SimTime{0});
    };
    bool released = false;
    hooks.on_released = [&](DeviceId, SimTime) { released = true; };
    cell_.set_ue_hooks(std::move(hooks));
    cell_.simulation().queue().schedule_at(po_of(ue), [&] { ue.page_normal(); });
    run();
    EXPECT_TRUE(released);
    EXPECT_TRUE(ue.payload_received());
    EXPECT_EQ(ue.state(), UeState::idle);
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_rx), SimTime{30'000});
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_wait), SimTime{0});
}

TEST_F(UeTest, WaitBucketCoversConnectedToReceptionGap) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    SimTime connected_at{0};
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) { connected_at = at; };
    cell_.set_ue_hooks(std::move(hooks));
    const SimTime po = po_of(ue);
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_normal(); });
    const SimTime tx_start = po + SimTime{8'000};
    cell_.simulation().queue().schedule_at(
        tx_start, [&] { ue.begin_reception(tx_start + SimTime{1'000}, SimTime{0}); });
    run();
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_wait), tx_start - connected_at);
}

TEST_F(UeTest, InactivityTailChargedAsWait) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) {
        ue.begin_reception(at + SimTime{1'000}, SimTime{10'000});
    };
    cell_.set_ue_hooks(std::move(hooks));
    cell_.simulation().queue().schedule_at(po_of(ue), [&] { ue.page_normal(); });
    run();
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_wait), SimTime{10'000});
}

TEST_F(UeTest, MltcSetsT322AndConnectsWithMulticastCause) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    const SimTime po = po_of(ue);
    const SimTime wake = po + SimTime{50'000};
    SimTime connected_at{0};
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) { connected_at = at; };
    cell_.set_ue_hooks(std::move(hooks));
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_mltc(wake); });
    run();
    EXPECT_GT(connected_at, wake);
    EXPECT_EQ(ue.last_cause(), EstablishmentCause::multicast_reception);
    // Extension decode costs more than a plain paging message.
    EXPECT_EQ(ue.energy().uptime(PowerState::paging_rx),
              timing_.paging_decode + timing_.mltc_extension_extra);
}

TEST_F(UeTest, MltcWakeInPastThrows) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    cell_.simulation().queue().schedule_at(po_of(ue),
                                           [&] { ue.page_mltc(SimTime{0}); });
    EXPECT_THROW(run(), std::logic_error);
}

TEST_F(UeTest, ReconfigAdjustsCycleAndReturnsToIdle) {
    Ue& ue = make_ue(drx::seconds_163_84());
    ue.start_monitoring(SimTime{800'000});
    const DrxCycle adapted = drx::seconds_10_24();
    cell_.simulation().queue().schedule_at(po_of(ue),
                                           [&] { ue.page_for_reconfig(adapted); });
    run();
    EXPECT_EQ(ue.state(), UeState::idle);
    EXPECT_EQ(ue.current_cycle(), adapted);
    EXPECT_EQ(ue.original_cycle(), drx::seconds_163_84());
    // Reconfig connection: paging + RACH + setup + reconfiguration + release.
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_signaling),
              timing_.rrc_setup + timing_.rrc_reconfiguration + timing_.rrc_release);
}

TEST_F(UeTest, AdaptedCycleIncreasesPoRate) {
    Ue& slow = make_ue(drx::seconds_163_84(), 111'222'333);
    Ue& adjusted = make_ue(drx::seconds_163_84(), 111'222'334);
    const SimTime horizon{800'000};
    slow.start_monitoring(horizon);
    adjusted.start_monitoring(horizon);
    cell_.simulation().queue().schedule_at(po_of(adjusted), [&] {
        adjusted.page_for_reconfig(drx::seconds_10_24());
    });
    run();
    EXPECT_GT(adjusted.po_count(), slow.po_count());
}

TEST_F(UeTest, ReconfigGridPassesThroughAdjustmentPo) {
    // Ladder nesting: the PO where the reconfiguration happened satisfies
    // the congruence of the (shorter) adapted cycle, so the adapted grid
    // repeats from that PO — exactly the paper's Fig. 5 picture.
    Ue& ue = make_ue(drx::seconds_163_84());
    ue.start_monitoring(SimTime{800'000});
    const SimTime po = po_of(ue);
    const DrxCycle adapted = drx::seconds_20_48();
    EXPECT_TRUE(cell_.paging().phase(ue.imsi(), adapted).is_po(po));
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_for_reconfig(adapted); });
    run();
    EXPECT_EQ(ue.current_cycle(), adapted);
    EXPECT_EQ(ue.next_po_at_or_after(po + SimTime{1}), po + adapted.period());
}

TEST_F(UeTest, RestoreAfterReceptionRestoresCycle) {
    Ue& ue = make_ue(drx::seconds_163_84());
    ue.start_monitoring(SimTime{1'600'000});
    const SimTime po = po_of(ue);
    const DrxCycle adapted = drx::seconds_20_48();
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_for_reconfig(adapted); });
    // Page it again on the anchored grid, then receive.
    const SimTime second_page = po + SimTime{3 * adapted.period_ms()};
    cell_.simulation().queue().schedule_at(second_page, [&] {
        ASSERT_TRUE(ue.listening_at(second_page));
        ue.page_normal();
    });
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) {
        ue.begin_reception(at + SimTime{5'000}, SimTime{0});
    };
    cell_.set_ue_hooks(std::move(hooks));
    run();
    EXPECT_TRUE(ue.payload_received());
    EXPECT_EQ(ue.current_cycle(), drx::seconds_163_84());
    // Restore adds a reconfiguration on top of setup (x2) + release (x2).
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_signaling),
              2 * timing_.rrc_setup + 2 * timing_.rrc_reconfiguration +
                  2 * timing_.rrc_release);
    // Back on the formula grid of the original cycle.
    EXPECT_TRUE(cell_.paging()
                    .phase(ue.imsi(), drx::seconds_163_84())
                    .is_po(ue.next_po_at_or_after(second_page + SimTime{1})));
}

TEST_F(UeTest, PoAtTheRestoreInstantCountsUnderTheAdaptedCycle) {
    // Tie rule (ue.hpp): a PO at the instant of a cycle change counts under
    // the old cycle.  Here the release that restores the original cycle
    // lands exactly on an adapted-cycle PO, after a 10 s inactivity tail
    // that outlasts the 2.56 s adapted cycle.  The same rule covers the
    // switch at the reconfiguration release.
    const DrxCycle original = drx::seconds_163_84();
    const DrxCycle adapted = drx::seconds_2_56();
    const SimTime tail{10'000};
    const SimTime restore_signaling = timing_.rrc_release + timing_.rrc_reconfiguration;
    const SimTime horizon{800'000};
    Ue& ue = make_ue(original);
    ue.start_monitoring(horizon);
    const PoPhase original_phase = cell_.paging().phase(ue.imsi(), original);
    const PoPhase adapted_phase = cell_.paging().phase(ue.imsi(), adapted);

    SimTime restore_at{0};
    std::vector<SimTime> releases;
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime at) {
        restore_at = adapted_phase.first_at_or_after(at + SimTime{1'000} + tail +
                                                     restore_signaling);
        ue.begin_reception(restore_at - tail - restore_signaling, tail);
    };
    hooks.on_released = [&](DeviceId, SimTime at) { releases.push_back(at); };
    cell_.set_ue_hooks(std::move(hooks));
    const SimTime po = po_of(ue);
    cell_.simulation().queue().schedule_at(po, [&] { ue.page_for_reconfig(adapted); });
    const SimTime second_page = po + SimTime{8 * adapted.period_ms()};
    cell_.simulation().queue().schedule_at(second_page, [&] {
        ASSERT_TRUE(ue.listening_at(second_page));
        ue.page_normal();
    });
    run();

    ASSERT_EQ(releases.size(), 2u);
    const SimTime reconfigured_at = releases[0];
    ASSERT_EQ(releases[1], restore_at);
    ASSERT_TRUE(adapted_phase.is_po(restore_at));
    EXPECT_EQ(ue.current_cycle(), original);
    const std::int64_t expected =
        original_phase.count_in_range(SimTime{1}, reconfigured_at + SimTime{1}) +
        adapted_phase.count_in_range(reconfigured_at + SimTime{1}, restore_at + SimTime{1}) +
        original_phase.count_in_range(restore_at + SimTime{1}, horizon);
    EXPECT_EQ(static_cast<std::int64_t>(ue.po_count()), expected);
    EXPECT_EQ(ue.energy().uptime(PowerState::po_monitor),
              timing_.po_monitor * static_cast<std::int64_t>(ue.po_count()));
}

/// Queue events one device executes when reconfigured from 163.84 s to
/// 2.56 s and then monitored to `horizon`.
std::uint64_t reconfigured_device_events(SimTime horizon) {
    Cell cell(1234, PagingConfig{}, RachConfig{}, TimingModel{});
    Ue& ue = cell.add_ue(
        UeSpec{DeviceId{0}, Imsi{777'000'111}, drx::seconds_163_84(), CeLevel::ce0});
    ue.start_monitoring(horizon);
    const SimTime po =
        cell.paging().phase(ue.imsi(), ue.current_cycle()).first_at_or_after(SimTime{0});
    cell.simulation().queue().schedule_at(
        po, [&] { ue.page_for_reconfig(drx::seconds_2_56()); });
    cell.simulation().queue().run_all();
    EXPECT_EQ(ue.current_cycle(), drx::seconds_2_56());
    return cell.simulation().queue().executed();
}

TEST(UeEventCountTest, ReconfiguredDeviceRunsTheSameEventsAtAnyHorizon) {
    // A per-occasion event chain would add one event per 2.56 s of
    // horizon; the closed-form ledger keeps the count fixed.
    EXPECT_EQ(reconfigured_device_events(SimTime{400'000}),
              reconfigured_device_events(SimTime{4'000'000}));
}

TEST(UeEventCountTest, IdleDeviceRunsNoQueueEvents) {
    // PO monitoring schedules nothing, not even at the horizon: the
    // ledger is settled in closed form when it closes.
    Cell cell(1234, PagingConfig{}, RachConfig{}, TimingModel{});
    Ue& ue = cell.add_ue(
        UeSpec{DeviceId{0}, Imsi{777'000'111}, drx::seconds_2_56(), CeLevel::ce0});
    const SimTime horizon{600'000};
    ue.start_monitoring(horizon);
    cell.simulation().queue().run_all();
    EXPECT_EQ(cell.simulation().queue().executed(), 0u);
    EXPECT_EQ(ue.po_count(), 0u);
    ue.finish_monitoring();
    EXPECT_EQ(static_cast<std::int64_t>(ue.po_count()),
              cell.paging().phase(ue.imsi(), ue.current_cycle()).count_in_range(SimTime{1},
                                                                               horizon));
    EXPECT_GT(ue.po_count(), 0u);
}

TEST_F(UeTest, CycleChangePastTheHorizonSettlesTheHorizonUnderTheOldCycle) {
    // A reconfiguration released after the horizon switches the cycle, but
    // every PO before the horizon is charged under the cycle that held
    // then: 163.84 s, not the adapted 2.56 s.
    const DrxCycle original = drx::seconds_163_84();
    Ue& ue = make_ue(original);
    const SimTime po = po_of(ue);
    const SimTime horizon = po + SimTime{3 * original.period_ms() + 1};
    ue.start_monitoring(horizon);
    cell_.simulation().queue().schedule_at(
        po + 4 * original.period(), [&] { ue.page_for_reconfig(drx::seconds_2_56()); });
    run();
    ASSERT_EQ(ue.current_cycle(), drx::seconds_2_56());
    ASSERT_GT(*ue.released_at(), horizon);
    EXPECT_EQ(static_cast<std::int64_t>(ue.po_count()),
              cell_.paging().phase(ue.imsi(), original).count_in_range(SimTime{1}, horizon));
    EXPECT_GE(ue.po_count(), 3u);
    EXPECT_LE(ue.po_count(), 4u);
}

TEST_F(UeTest, ListeningOnlyAtOwnPos) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    const SimTime po = po_of(ue);
    EXPECT_TRUE(ue.listening_at(po));
    EXPECT_FALSE(ue.listening_at(po + SimTime{1}));
    EXPECT_TRUE(ue.listening_at(po + ue.current_cycle().period()));
}

TEST_F(UeTest, IdleBroadcastReceivesWithoutConnection) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    cell_.simulation().queue().schedule_at(
        SimTime{10'000}, [&] { ue.receive_idle_broadcast(SimTime{40'000}); });
    run();
    EXPECT_TRUE(ue.payload_received());
    EXPECT_EQ(ue.energy().uptime(PowerState::rach), SimTime{0});
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_signaling), SimTime{0});
    EXPECT_EQ(ue.energy().uptime(PowerState::connected_rx), SimTime{30'000});
}

TEST_F(UeTest, ReleaseWithoutReceptionReturnsIdleUnreceived) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.start_monitoring(SimTime{400'000});
    Ue::Hooks hooks;
    hooks.on_connected = [&](DeviceId, SimTime) { ue.release_without_reception(); };
    cell_.set_ue_hooks(std::move(hooks));
    cell_.simulation().queue().schedule_at(po_of(ue), [&] { ue.page_normal(); });
    run();
    EXPECT_EQ(ue.state(), UeState::idle);
    EXPECT_FALSE(ue.payload_received());
    ASSERT_TRUE(ue.released_at().has_value());
}

TEST_F(UeTest, ChargeAddsExternalUptime) {
    Ue& ue = make_ue(drx::seconds_20_48());
    ue.charge(PowerState::po_monitor, SimTime{123});
    EXPECT_EQ(ue.energy().uptime(PowerState::po_monitor), SimTime{123});
}

TEST_F(UeTest, CellRejectsNonDenseDeviceIds) {
    EXPECT_THROW(cell_.add_ue(UeSpec{DeviceId{5}, Imsi{1}, drx::seconds_2_56()}),
                 std::invalid_argument);
}

TEST_F(UeTest, CellLookupUnknownDeviceThrows) {
    EXPECT_THROW((void)cell_.ue(DeviceId{99}), std::out_of_range);
}

// The cell stores its UEs in fixed blocks: 600 devices span three, and
// every reference handed out stays valid while later blocks are added.
class CellStorageTest : public ::testing::TestWithParam<bool> {};

TEST_P(CellStorageTest, UeReferencesSurviveBlockBoundaries) {
    constexpr std::uint32_t kDevices = 600;
    Cell cell(1234, PagingConfig{}, RachConfig{}, TimingModel{});
    if (GetParam()) cell.reserve_ues(kDevices);
    std::vector<Ue*> added;
    for (std::uint32_t i = 0; i < kDevices; ++i) {
        added.push_back(&cell.add_ue(
            UeSpec{DeviceId{i}, Imsi{100'000 + i}, drx::seconds_2_56(), CeLevel::ce0}));
        ASSERT_EQ(added.front()->device().value, 0u);  // the first block stays put
    }
    ASSERT_EQ(cell.ue_count(), kDevices);
    const Cell& view = cell;
    for (std::uint32_t i = 0; i < kDevices; ++i) {
        EXPECT_EQ(&cell.ue(DeviceId{i}), added[i]) << i;
        EXPECT_EQ(&view.ue(DeviceId{i}), added[i]) << i;
        EXPECT_EQ(added[i]->device().value, i);
        EXPECT_EQ(added[i]->imsi().value, 100'000u + i);
    }
    EXPECT_THROW((void)cell.ue(DeviceId{kDevices}), std::out_of_range);
    EXPECT_THROW(cell.add_ue(UeSpec{DeviceId{kDevices + 1}, Imsi{1}, drx::seconds_2_56()}),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(ReservedOrNot, CellStorageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "Reserved" : "Unreserved";
                         });

}  // namespace
}  // namespace nbmg::nbiot
