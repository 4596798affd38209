// Coverage for the RRC model helpers, the simulation trace hook, and the
// configuration validators.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/mechanism.hpp"
#include "nbiot/cell.hpp"
#include "nbiot/rrc.hpp"
#include "sim/simulation.hpp"
#include "telemetry/sink.hpp"

namespace nbmg {
namespace {

using nbiot::EstablishmentCause;

TEST(RrcTest, MulticastReceptionIsTheOnlyNonStandardCause) {
    EXPECT_TRUE(nbiot::is_standard_cause(EstablishmentCause::mo_signalling));
    EXPECT_TRUE(nbiot::is_standard_cause(EstablishmentCause::mo_data));
    EXPECT_TRUE(nbiot::is_standard_cause(EstablishmentCause::mt_access));
    EXPECT_FALSE(nbiot::is_standard_cause(EstablishmentCause::multicast_reception));
}

TEST(RrcTest, CauseNamesMatchAsn1Style) {
    EXPECT_STREQ(nbiot::to_string(EstablishmentCause::mt_access), "mt-Access");
    EXPECT_STREQ(nbiot::to_string(EstablishmentCause::multicast_reception),
                 "multicastReception");
}

TEST(RrcTest, DefaultTimingModelValid) {
    EXPECT_TRUE(nbiot::TimingModel{}.valid());
    nbiot::TimingModel bad;
    bad.po_monitor = nbiot::SimTime{0};
    EXPECT_FALSE(bad.valid());
}

TEST(SimulationTest, TelemetrySinkReceivesTypedEvents) {
    sim::Simulation simulation{1};
    telemetry::CampaignSink sink{
        telemetry::TelemetryConfig{.trace = true, .metrics = true}};
    simulation.set_telemetry(&sink);
    ASSERT_EQ(simulation.telemetry(), &sink);
    simulation.queue().schedule_at(sim::SimTime{5}, [&] {
        NBMG_TELEMETRY_EMIT(simulation.telemetry(),
                            telemetry::EventKind::rach_attempt, 5,
                            /*device=*/7, /*a=*/1, /*b=*/0);
    });
    simulation.queue().run_all();
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records().front().kind, telemetry::EventKind::rach_attempt);
    EXPECT_EQ(sink.records().front().at_ms, 5);
    EXPECT_EQ(sink.records().front().device, 7u);
    EXPECT_EQ(sink.counter(telemetry::EventKind::rach_attempt), 1u);
}

TEST(SimulationTest, TelemetryDefaultsOffAndEmitIsNoop) {
    sim::Simulation simulation{1};
    EXPECT_EQ(simulation.telemetry(), nullptr);
    // Null sink: the macro must not crash and must not evaluate arguments.
    bool evaluated = false;
    const auto payload = [&] {
        evaluated = true;
        return std::int64_t{1};
    };
    NBMG_TELEMETRY_EMIT(simulation.telemetry(), telemetry::EventKind::rach_attempt,
                        0, 0, payload(), 0);
    EXPECT_FALSE(evaluated);
}

TEST(SimulationTest, StreamsDerivedFromRootSeed) {
    sim::Simulation a{99};
    sim::Simulation b{99};
    EXPECT_EQ(a.seed(), 99u);
    EXPECT_EQ(a.stream("x").next_u64(), b.stream("x").next_u64());
    EXPECT_NE(a.stream("x").next_u64(), a.stream("y").next_u64());
}

TEST(CellTest, RejectsInvalidTiming) {
    nbiot::TimingModel bad;
    bad.po_monitor = nbiot::SimTime{0};
    EXPECT_THROW(
        nbiot::Cell(1, nbiot::PagingConfig{}, nbiot::RachConfig{}, bad),
        std::invalid_argument);
}

TEST(CampaignConfigTest, DefaultValidAndKnobsChecked) {
    core::CampaignConfig config;
    EXPECT_TRUE(config.valid());

    config.page_miss_prob = 1.0;  // certain loss can never terminate
    EXPECT_FALSE(config.valid());
    config.page_miss_prob = 0.0;

    config.inactivity_timer = nbiot::SimTime{0};
    EXPECT_FALSE(config.valid());
    config.inactivity_timer = nbiot::SimTime{10'000};

    config.max_page_attempts = 0;
    EXPECT_FALSE(config.valid());
    config.max_page_attempts = 3;

    config.background_ra_per_second = -1.0;
    EXPECT_FALSE(config.valid());
    config.background_ra_per_second = 0.0;

    config.rach.max_attempts = 0;
    EXPECT_FALSE(config.valid());
    config.rach.max_attempts = 10;

    config.radio.i_sf = 8;
    EXPECT_FALSE(config.valid());
    config.radio.i_sf = 2;
    EXPECT_TRUE(config.valid());
}

TEST(MechanismKindTest, NamesAreStable) {
    EXPECT_STREQ(core::to_string(core::MechanismKind::dr_sc), "DR-SC");
    EXPECT_STREQ(core::to_string(core::MechanismKind::da_sc), "DA-SC");
    EXPECT_STREQ(core::to_string(core::MechanismKind::dr_si), "DR-SI");
    EXPECT_STREQ(core::to_string(core::MechanismKind::unicast), "Unicast");
    EXPECT_STREQ(core::to_string(core::MechanismKind::sc_ptm), "SC-PTM");
}

TEST(PowerStateTest, NamesAreStable) {
    EXPECT_STREQ(nbiot::to_string(nbiot::PowerState::deep_sleep), "deep_sleep");
    EXPECT_STREQ(nbiot::to_string(nbiot::PowerState::connected_rx), "connected_rx");
    EXPECT_STREQ(nbiot::to_string(nbiot::UeState::connected_waiting),
                 "connected_waiting");
    EXPECT_STREQ(nbiot::to_string(nbiot::CeLevel::ce2), "CE2");
}

}  // namespace
}  // namespace nbmg
