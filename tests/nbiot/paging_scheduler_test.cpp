#include "nbiot/paging_scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace nbmg::nbiot {
namespace {

class PagingSchedulerTest : public ::testing::Test {
protected:
    PagingSchedule paging_{};
    static constexpr SimTime kFar{100'000'000};
};

TEST_F(PagingSchedulerTest, RejectsNonPositiveCapacity) {
    EXPECT_THROW(PagingScheduler(0, 1), std::invalid_argument);
}

TEST_F(PagingSchedulerTest, EnqueueLandsOnDevicePo) {
    PagingScheduler sched(16, 1);
    const PoPhase phase = paging_.phase(Imsi{424'242}, drx::seconds_20_48());
    const auto slot = sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar);
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(phase.is_po(*slot));
}

TEST_F(PagingSchedulerTest, EnqueueRespectsNotBefore) {
    PagingScheduler sched(16, 1);
    const PoPhase phase = paging_.phase(Imsi{7}, drx::seconds_2_56());
    const SimTime not_before{100'000};
    const auto slot = sched.enqueue_record(DeviceId{0}, phase, not_before, kFar);
    ASSERT_TRUE(slot.has_value());
    EXPECT_GE(*slot, not_before);
}

TEST_F(PagingSchedulerTest, FullOccasionDefersToNextPo) {
    PagingScheduler sched(1, 2);
    const DrxCycle cycle = drx::seconds_2_56();
    const PoPhase phase = paging_.phase(Imsi{99}, cycle);
    const auto first = sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar);
    // Same UE identity -> same occasions; capacity 1 forces the next cycle.
    const auto second = sched.enqueue_record(DeviceId{1}, phase, SimTime{0}, kFar);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second - *first, cycle.period());
}

TEST_F(PagingSchedulerTest, DeadlineBoundsDeferral) {
    PagingScheduler sched(1, 2);
    const PoPhase phase = paging_.phase(Imsi{99}, drx::seconds_2_56());
    const auto first = sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar);
    ASSERT_TRUE(first.has_value());
    // Deadline right after the first PO: the deferred request cannot fit.
    const auto second =
        sched.enqueue_record(DeviceId{1}, phase, SimTime{0}, *first + SimTime{1});
    EXPECT_FALSE(second.has_value());
}

TEST_F(PagingSchedulerTest, DifferentDevicesShareOccasionUpToCapacity) {
    PagingScheduler sched(3, 4);
    const PoPhase phase = paging_.phase(Imsi{5}, drx::seconds_20_48());
    const auto a = sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar);
    const auto b = sched.enqueue_record(DeviceId{1}, phase, SimTime{0}, kFar);
    const auto c = sched.enqueue_record(DeviceId{2}, phase, SimTime{0}, kFar);
    const auto d = sched.enqueue_record(DeviceId{3}, phase, SimTime{0}, kFar);
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
    EXPECT_NE(*a, *d);
}

TEST_F(PagingSchedulerTest, MltcSharesCapacityWithRecords) {
    PagingScheduler sched(2, 3);
    const PoPhase phase = paging_.phase(Imsi{5}, drx::seconds_20_48());
    const auto a = sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar);
    const auto b = sched.enqueue_mltc(DeviceId{1}, phase, SimTime{0}, kFar);
    const auto c = sched.enqueue_record(DeviceId{2}, phase, SimTime{0}, kFar);
    EXPECT_EQ(*a, *b);
    EXPECT_NE(*a, *c);
}

TEST_F(PagingSchedulerTest, CapacityPastUint16FillsOneOccasion) {
    // max_page_records is an unbounded int key: the per-occasion count
    // must not wrap at 2^16.
    constexpr int kCapacity = std::numeric_limits<std::uint16_t>::max() + 2;
    PagingScheduler sched(kCapacity, 1);
    const PoPhase phase = paging_.phase(Imsi{5}, drx::seconds_20_48());
    const SimTime po = phase.first_at_or_after(SimTime{0});
    for (int i = 0; i < kCapacity; ++i) {
        ASSERT_EQ(sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar), po) << i;
    }
    EXPECT_EQ(sched.enqueue_record(DeviceId{0}, phase, SimTime{0}, kFar),
              po + SimTime{phase.period});
    EXPECT_FALSE(sched.try_enqueue_record_at(DeviceId{0}, phase, po));
}

TEST_F(PagingSchedulerTest, TryEnqueueAtExactPo) {
    PagingScheduler sched(1, 2);
    const PoPhase phase = paging_.phase(Imsi{123}, drx::seconds_40_96());
    const SimTime po = phase.first_at_or_after(SimTime{0});
    EXPECT_TRUE(sched.try_enqueue_record_at(DeviceId{0}, phase, po));
    EXPECT_FALSE(sched.try_enqueue_record_at(DeviceId{1}, phase, po));
}

TEST_F(PagingSchedulerTest, TryEnqueueAtNonPoThrows) {
    PagingScheduler sched(16, 1);
    const PoPhase phase = paging_.phase(Imsi{123}, drx::seconds_40_96());
    const SimTime po = phase.first_at_or_after(SimTime{0});
    EXPECT_THROW((void)sched.try_enqueue_record_at(DeviceId{0}, phase, po + SimTime{1}),
                 std::logic_error);
}

}  // namespace
}  // namespace nbmg::nbiot
