#include <gtest/gtest.h>

#include <vector>

#include "nbiot/energy.hpp"
#include "nbiot/rach.hpp"
#include "nbiot/radio.hpp"
#include "sim/simulation.hpp"

namespace nbmg::nbiot {
namespace {

// ---------------------------------------------------------------- RACH ----

class RachTest : public ::testing::Test {
protected:
    sim::Simulation sim_{42};
    RachConfig config_{};
};

TEST_F(RachTest, SingleRequestSucceedsOnFirstAttempt) {
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    RachOutcome outcome;
    rach.request(SimTime{0}, [&](const RachOutcome& o) { outcome = o; });
    sim_.queue().run_all();
    EXPECT_TRUE(outcome.success);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_EQ(outcome.active_time, config_.attempt_active_time());
    // A request at t=0 rides the window at t=0.
    EXPECT_EQ(outcome.completed_at, config_.attempt_active_time());
}

TEST_F(RachTest, RequestWaitsForNextWindow) {
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    RachOutcome outcome;
    rach.request(SimTime{250}, [&](const RachOutcome& o) { outcome = o; });
    sim_.queue().run_all();
    // Next window after 250 ms with 160 ms periodicity is at 320 ms.
    EXPECT_EQ(outcome.completed_at, SimTime{320} + config_.attempt_active_time());
}

TEST_F(RachTest, SinglePreambleForcesCollisionUntilBackoffSeparates) {
    config_.num_preambles = 1;  // same-window requesters always collide
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    RachOutcome a;
    RachOutcome b;
    rach.request(SimTime{0}, [&](const RachOutcome& o) { a = o; });
    rach.request(SimTime{0}, [&](const RachOutcome& o) { b = o; });
    sim_.queue().run_all();
    // The first window collides for sure; randomized backoff eventually
    // lands them in different windows where each succeeds alone.
    EXPECT_GE(rach.total_collisions(), 2u);
    EXPECT_TRUE(a.success);
    EXPECT_TRUE(b.success);
    EXPECT_GT(a.attempts + b.attempts, 2);
    EXPECT_NE(a.completed_at, b.completed_at);
}

TEST_F(RachTest, ZeroBackoffWithOnePreambleExhaustsAttempts) {
    config_.num_preambles = 1;
    config_.backoff_max = SimTime{1};  // nearly no separation possible
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    RachOutcome a;
    RachOutcome b;
    rach.request(SimTime{0}, [&](const RachOutcome& o) { a = o; });
    rach.request(SimTime{0}, [&](const RachOutcome& o) { b = o; });
    sim_.queue().run_all();
    // With backoff << window period both re-enter the same window forever.
    EXPECT_FALSE(a.success);
    EXPECT_FALSE(b.success);
    EXPECT_EQ(a.attempts, config_.max_attempts);
    EXPECT_EQ(rach.total_failures(), 2u);
}

TEST_F(RachTest, ManyPreamblesSeparateEventually) {
    config_.num_preambles = 2;
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    int successes = 0;
    for (int i = 0; i < 2; ++i) {
        rach.request(SimTime{0}, [&](const RachOutcome& o) {
            successes += o.success ? 1 : 0;
        });
    }
    sim_.queue().run_all();
    // Backoff desynchronizes them; with 10 attempts both should make it.
    EXPECT_EQ(successes, 2);
}

TEST_F(RachTest, CollisionCostsActiveTimePerAttempt) {
    config_.num_preambles = 2;
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    std::vector<RachOutcome> outcomes;
    for (int i = 0; i < 2; ++i) {
        rach.request(SimTime{0}, [&](const RachOutcome& o) { outcomes.push_back(o); });
    }
    sim_.queue().run_all();
    for (const auto& o : outcomes) {
        EXPECT_EQ(o.active_time, SimTime{o.attempts * config_.attempt_active_time().count()});
    }
}

TEST_F(RachTest, HighLoadProducesCollisions) {
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    int successes = 0;
    for (int i = 0; i < 200; ++i) {
        rach.request(SimTime{0}, [&](const RachOutcome& o) {
            successes += o.success ? 1 : 0;
        });
    }
    sim_.queue().run_all();
    EXPECT_GT(rach.total_collisions(), 0u);
    EXPECT_EQ(successes, 200);  // retries spread them out eventually
    EXPECT_GT(rach.total_attempts(), 200u);
}

TEST_F(RachTest, BackgroundLoadOccupiesPreambles) {
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    rach.inject_background_load(50.0, SimTime{60'000});
    sim_.queue().run_all();
    // ~50/s over 60 s.
    EXPECT_GT(rach.total_attempts(), 2000u);
    EXPECT_GT(rach.total_collisions(), 0u);
}

TEST_F(RachTest, VanishingBackgroundRateEnrolsNoAttempt) {
    // At 1e-300 arrivals per second the first gap is past INT64_MAX ms:
    // no arrival lands before `until`.
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    rach.inject_background_load(1e-300, SimTime{60'000});
    sim_.queue().run_all();
    EXPECT_EQ(rach.total_attempts(), 0u);
}

TEST_F(RachTest, CompletionMayRequestAgain) {
    // A completion that starts the next procedure from inside itself, then
    // reads its captures.  The channel must not run the closure out of a
    // procedure slot that the new request reuses or reallocates.
    struct Chain {
        RachChannel* rach;
        std::vector<RachOutcome>* outcomes;
        int left;
        void operator()(const RachOutcome& o) const {
            if (left > 0) rach->request(o.completed_at, Chain{rach, outcomes, left - 1});
            outcomes->push_back(o);
        }
    };
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    std::vector<RachOutcome> outcomes;
    rach.request(SimTime{0}, Chain{&rach, &outcomes, 100});
    sim_.queue().run_all();
    ASSERT_EQ(outcomes.size(), 101u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].success) << i;
        EXPECT_EQ(outcomes[i].attempts, 1) << i;
        if (i > 0) {
            EXPECT_GT(outcomes[i].completed_at, outcomes[i - 1].completed_at) << i;
        }
    }
    EXPECT_EQ(rach.total_attempts(), 101u);
}

TEST_F(RachTest, EmptyCallbackRejected) {
    RachChannel rach(sim_, config_, sim_.stream("rach"));
    EXPECT_THROW(rach.request(SimTime{0}, RachChannel::Callback{}),
                 std::invalid_argument);
}

TEST_F(RachTest, InvalidConfigRejected) {
    config_.num_preambles = 0;
    EXPECT_THROW(RachChannel(sim_, config_, sim_.stream("rach")), std::invalid_argument);
}

TEST_F(RachTest, DeterministicAcrossSeeds) {
    auto run_once = [](std::uint64_t seed) {
        sim::Simulation s{seed};
        RachConfig cfg;
        RachChannel rach(s, cfg, s.stream("rach"));
        std::vector<std::int64_t> completions;
        for (int i = 0; i < 50; ++i) {
            rach.request(SimTime{i * 3},
                         [&](const RachOutcome& o) { completions.push_back(o.completed_at.count()); });
        }
        s.queue().run_all();
        return completions;
    };
    EXPECT_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

// --------------------------------------------------------------- RADIO ----

TEST(RadioTest, DefaultConfigMatchesRel13) {
    const RadioModel radio;
    EXPECT_EQ(radio.tbs_bits(), 680);  // I_TBS 12, 3 subframes
    // ~25 kbit/s sustained at CE0.
    EXPECT_NEAR(radio.effective_rate_bps(CeLevel::ce0), 25'000, 1'000);
}

TEST(RadioTest, AirtimeZeroForEmptyPayload) {
    const RadioModel radio;
    EXPECT_EQ(radio.downlink_airtime(0, CeLevel::ce0), SimTime{0});
}

TEST(RadioTest, NegativePayloadRejected) {
    const RadioModel radio;
    EXPECT_THROW((void)radio.downlink_airtime(-1, CeLevel::ce0), std::invalid_argument);
}

TEST(RadioTest, AirtimeMonotoneInPayload) {
    const RadioModel radio;
    SimTime last{0};
    for (const std::int64_t bytes : {1L, 100L, 102'400L, 1'048'576L, 10'485'760L}) {
        const SimTime t = radio.downlink_airtime(bytes, CeLevel::ce0);
        EXPECT_GE(t, last);
        last = t;
    }
}

TEST(RadioTest, PaperPayloadDurations) {
    const RadioModel radio;
    // 100 KB at ~25 kbit/s is about half a minute; 10 MB about an hour.
    const double s100kb =
        static_cast<double>(radio.downlink_airtime(100 * 1024, CeLevel::ce0).count()) /
        1000.0;
    EXPECT_NEAR(s100kb, 33.0, 4.0);
    const double s10mb =
        static_cast<double>(
            radio.downlink_airtime(10 * 1024 * 1024, CeLevel::ce0).count()) /
        1000.0;
    EXPECT_NEAR(s10mb, 3330.0, 350.0);
}

TEST(RadioTest, DeeperCoverageIsSlower) {
    const RadioModel radio;
    const std::int64_t payload = 100 * 1024;
    EXPECT_LT(radio.downlink_airtime(payload, CeLevel::ce0),
              radio.downlink_airtime(payload, CeLevel::ce1));
    EXPECT_LT(radio.downlink_airtime(payload, CeLevel::ce1),
              radio.downlink_airtime(payload, CeLevel::ce2));
}

TEST(RadioTest, RepetitionsScaleBlockDuration) {
    RadioConfig config;
    const RadioModel radio(config);
    EXPECT_EQ(radio.block_duration(CeLevel::ce1).count(),
              radio.block_duration(CeLevel::ce0).count() * config.repetitions[1]);
}

TEST(RadioTest, MulticastBearerPicksDeepestLevel) {
    EXPECT_EQ(RadioModel::multicast_bearer_level(CeLevel::ce0, CeLevel::ce2),
              CeLevel::ce2);
    EXPECT_EQ(RadioModel::multicast_bearer_level(CeLevel::ce1, CeLevel::ce0),
              CeLevel::ce1);
}

TEST(RadioTest, TbsTableRowsAreMonotone) {
    for (const auto& row : kNpdschTbsTable) {
        for (std::size_t c = 1; c < row.size(); ++c) {
            EXPECT_GT(row[c], row[c - 1]);
        }
    }
}

TEST(RadioTest, InvalidConfigRejected) {
    RadioConfig config;
    config.i_tbs = 13;
    EXPECT_THROW(RadioModel{config}, std::invalid_argument);
}

// -------------------------------------------------------------- ENERGY ----

TEST(EnergyTest, BucketsAccumulate) {
    EnergyAccount acc;
    acc.add(PowerState::po_monitor, SimTime{15});
    acc.add(PowerState::po_monitor, SimTime{15});
    acc.add(PowerState::paging_rx, SimTime{25});
    EXPECT_EQ(acc.uptime(PowerState::po_monitor), SimTime{30});
    EXPECT_EQ(acc.light_sleep_uptime(), SimTime{55});
}

TEST(EnergyTest, PaperBucketsSplitCorrectly) {
    EnergyAccount acc;
    acc.add(PowerState::rach, SimTime{100});
    acc.add(PowerState::connected_signaling, SimTime{50});
    acc.add(PowerState::connected_wait, SimTime{5'000});
    acc.add(PowerState::connected_rx, SimTime{30'000});
    acc.add(PowerState::po_monitor, SimTime{15});
    EXPECT_EQ(acc.connected_uptime(), SimTime{35'150});
    EXPECT_EQ(acc.light_sleep_uptime(), SimTime{15});
    EXPECT_EQ(acc.total_uptime(), SimTime{35'165});
}

TEST(EnergyTest, NegativeDurationRejected) {
    EnergyAccount acc;
    EXPECT_THROW(acc.add(PowerState::rach, SimTime{-1}), std::invalid_argument);
}

TEST(EnergyTest, ActiveEnergyUsesProfileCurrents) {
    EnergyAccount acc;
    acc.add(PowerState::connected_rx, SimTime{1000});  // 1 s at 46 mA, 3.6 V
    const PowerProfile profile = PowerProfile::typical_nbiot();
    EXPECT_NEAR(acc.active_energy_mj(profile), 46.0 * 3.6, 1e-9);
}

TEST(EnergyTest, AverageCurrentIncludesDeepSleep) {
    EnergyAccount acc;
    acc.add(PowerState::connected_rx, SimTime{1000});
    const PowerProfile profile = PowerProfile::typical_nbiot();
    // 1 s at 46 mA out of 1000 s, rest at 3 uA.
    const double avg = acc.average_current_ma(profile, SimTime{1'000'000});
    EXPECT_NEAR(avg, 46.0 / 1000.0 + 0.003, 0.001);
}

TEST(EnergyTest, AverageCurrentZeroHorizon) {
    EnergyAccount acc;
    EXPECT_EQ(acc.average_current_ma(PowerProfile::typical_nbiot(), SimTime{0}), 0.0);
}

TEST(EnergyTest, MergeAddsBuckets) {
    EnergyAccount a;
    EnergyAccount b;
    a.add(PowerState::rach, SimTime{10});
    b.add(PowerState::rach, SimTime{5});
    b.add(PowerState::po_monitor, SimTime{7});
    a += b;
    EXPECT_EQ(a.uptime(PowerState::rach), SimTime{15});
    EXPECT_EQ(a.uptime(PowerState::po_monitor), SimTime{7});
}

TEST(EnergyTest, BatteryLifeProjection) {
    const PowerProfile profile = PowerProfile::typical_nbiot();
    // 5000 mAh at ~57 uA -> ~10 years: the NB-IoT design target.
    const double years = battery_life_years(profile, 0.057);
    EXPECT_NEAR(years, 10.0, 0.5);
    EXPECT_EQ(battery_life_years(profile, 0.0), 0.0);
}

}  // namespace
}  // namespace nbmg::nbiot
