#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nbmg::sim {
namespace {

using std::chrono::milliseconds;

TEST(EventQueueTest, StartsAtTimeZeroAndEmpty) {
    EventQueue q;
    EXPECT_EQ(q.now(), SimTime{0});
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, CustomStartTime) {
    EventQueue q{SimTime{5000}};
    EXPECT_EQ(q.now(), SimTime{5000});
}

TEST(EventQueueTest, RunsEventAtScheduledTime) {
    EventQueue q;
    SimTime fired{-1};
    q.schedule_at(SimTime{42}, [&] { fired = q.now(); });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, SimTime{42});
    EXPECT_EQ(q.now(), SimTime{42});
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
    EventQueue q;
    q.schedule_at(SimTime{10}, [&] {
        q.schedule_after(SimTime{5}, [] {});
    });
    q.step();
    EXPECT_EQ(q.pending(), 1u);
    q.step();
    EXPECT_EQ(q.now(), SimTime{15});
}

TEST(EventQueueTest, EventsRunInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{30}, [&] { order.push_back(3); });
    q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
    q.schedule_at(SimTime{20}, [&] { order.push_back(2); });
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimeEventsRunFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        q.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); });
    }
    q.run_all();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, HandlerMayScheduleMoreEvents) {
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) q.schedule_after(SimTime{1}, chain);
    };
    q.schedule_at(SimTime{0}, chain);
    q.run_all();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), SimTime{4});
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
    EventQueue q;
    q.schedule_at(SimTime{10}, [] {});
    q.step();
    EXPECT_THROW(q.schedule_at(SimTime{5}, [] {}), std::logic_error);
}

TEST(EventQueueTest, NegativeDelayThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_after(SimTime{-1}, [] {}), std::logic_error);
}

TEST(EventQueueTest, EmptyHandlerThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_at(SimTime{1}, EventQueue::Handler{}),
                 std::invalid_argument);
}

TEST(EventQueueTest, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule_at(SimTime{10}, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run_all();
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterExecutionReturnsFalse) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    q.step();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{9999}));
    EXPECT_FALSE(q.cancel(EventId{0}));
}

TEST(EventQueueTest, CancelledEventsDoNotAdvanceClock) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    q.schedule_at(SimTime{20}, [] {});
    q.cancel(id);
    q.step();
    EXPECT_EQ(q.now(), SimTime{20});
}

TEST(EventQueueTest, PendingCountTracksScheduleAndCancel) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{1}, [] {});
    q.schedule_at(SimTime{2}, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.step();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, RunUntilRunsInclusiveBoundary) {
    EventQueue q;
    int ran = 0;
    q.schedule_at(SimTime{10}, [&] { ++ran; });
    q.schedule_at(SimTime{20}, [&] { ++ran; });
    q.schedule_at(SimTime{21}, [&] { ++ran; });
    EXPECT_EQ(q.run_until(SimTime{20}), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(q.now(), SimTime{20});
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
    EventQueue q;
    EXPECT_EQ(q.run_until(SimTime{500}), 0u);
    EXPECT_EQ(q.now(), SimTime{500});
}

TEST(EventQueueTest, RunAllRespectsBudget) {
    EventQueue q;
    std::function<void()> forever = [&] { q.schedule_after(SimTime{1}, forever); };
    q.schedule_at(SimTime{0}, forever);
    EXPECT_EQ(q.run_all(100), 100u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, StepOnEmptyQueueReturnsFalse) {
    EventQueue q;
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.now(), SimTime{0});
}

TEST(EventQueueTest, ExecutedCounterCounts) {
    EventQueue q;
    for (int i = 0; i < 7; ++i) q.schedule_at(SimTime{i}, [] {});
    q.run_all();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueTest, PendingEventsListsLiveEventsInSlabOrder) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{30}, [] {});
    const EventId b = q.schedule_at(SimTime{10}, [] {});
    const EventId c = q.schedule_at(SimTime{20}, [] {});
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 3u);
    // Slab order (ascending slot index) == scheduling order here, NOT time
    // order: introspection must not depend on heap internals.
    EXPECT_EQ(pending[0].id, a);
    EXPECT_EQ(pending[0].at, SimTime{30});
    EXPECT_EQ(pending[1].id, b);
    EXPECT_EQ(pending[1].at, SimTime{10});
    EXPECT_EQ(pending[2].id, c);
    EXPECT_LT(pending[0].id.index, pending[1].id.index);
    EXPECT_LT(pending[1].id.index, pending[2].id.index);
}

TEST(EventQueueTest, PendingEventsSkipsCancelledAndExecuted) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{10}, [] {});
    const EventId b = q.schedule_at(SimTime{20}, [] {});
    q.schedule_at(SimTime{30}, [] {});
    q.cancel(b);
    q.step();  // executes a
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].at, SimTime{30});
    EXPECT_NE(pending[0].id, a);
    EXPECT_NE(pending[0].id, b);
    EXPECT_EQ(pending.size(), q.pending());
}

TEST(EventQueueTest, PendingEventsTraceIdenticalForIdenticalHistories) {
    // Two queues driven by the same scripted scheduling history expose
    // identical pending-event sequences at every observation point —
    // the introspection order is a pure function of the history.
    auto observe = [](std::uint64_t seed) {
        EventQueue q;
        RandomStream rng{seed};
        std::vector<EventId> ids;
        std::vector<std::vector<EventQueue::PendingEvent>> observations;
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 10; ++i) {
                ids.push_back(
                    q.schedule_at(SimTime{q.now().count() +
                                          rng.uniform_int(0, 50)},
                                  [] {}));
            }
            if (!ids.empty() && rng.bernoulli(0.5)) {
                const auto pick = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(ids.size()) - 1));
                (void)q.cancel(ids[pick]);
            }
            (void)q.run_until(q.now() + SimTime{rng.uniform_int(0, 25)});
            observations.push_back(q.pending_events());
        }
        return observations;
    };
    for (const std::uint64_t seed : {11u, 222u, 3333u}) {
        EXPECT_EQ(observe(seed), observe(seed)) << "seed=" << seed;
    }
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
    EventQueue q;
    SimTime last{-1};
    bool monotone = true;
    for (int i = 0; i < 5000; ++i) {
        // Deterministic pseudo-scatter.
        const auto t = SimTime{(i * 7919) % 1000};
        q.schedule_at(t, [&, t] {
            if (q.now() < last) monotone = false;
            last = q.now();
        });
    }
    q.run_all();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(q.executed(), 5000u);
}

TEST(EventQueueTest, CancelDuringHandlerOfSameTime) {
    EventQueue q;
    bool second_ran = false;
    EventId second{};
    q.schedule_at(SimTime{10}, [&] { q.cancel(second); });
    second = q.schedule_at(SimTime{10}, [&] { second_ran = true; });
    q.run_all();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueueTest, StaleIdCannotCancelSlotReuser) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{10}, [] {});
    ASSERT_TRUE(q.cancel(a));
    // The freed slot is reused by the next event; the stale id must not
    // reach the new occupant.
    bool b_ran = false;
    const EventId b = q.schedule_at(SimTime{20}, [&] { b_ran = true; });
    EXPECT_EQ(b.index, a.index);  // slab reuses LIFO
    EXPECT_NE(b.generation, a.generation);
    EXPECT_FALSE(q.cancel(a));
    q.run_all();
    EXPECT_TRUE(b_ran);
}

TEST(EventQueueTest, OversizedHandlerFallsBackToHeap) {
    EventQueue q;
    std::array<char, 4 * InlineHandler::kInlineCapacity> big{};
    big[0] = 1;
    big[big.size() - 1] = 2;
    int sum = 0;
    q.schedule_at(SimTime{5}, [big, &sum] { sum = big[0] + big[big.size() - 1]; });
    q.run_all();
    EXPECT_EQ(sum, 3);
}

TEST(SmallFunctionTest, InlineTestFollowsTheClosureSize) {
    // The public inline test that call sites static_assert on: a 48-byte
    // closure fits the queue's handler, a 64-byte one takes the heap.
    const auto fits = [bytes = std::array<char, 48>{}] { return bytes[0]; };
    const auto spills = [bytes = std::array<char, 64>{}] { return bytes[0]; };
    static_assert(sizeof(fits) == 48 && sizeof(spills) == 64);
    EXPECT_TRUE(InlineHandler::fits_inline<decltype(fits)>());
    EXPECT_FALSE(InlineHandler::fits_inline<decltype(spills)>());
    EXPECT_TRUE((SmallFunction<void(), 64>::fits_inline<decltype(spills)>()));
}

TEST(EventQueueTest, InlineHandlerMoveTransfersTarget) {
    int calls = 0;
    InlineHandler a = [&calls] { ++calls; };
    InlineHandler b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
}

TEST(EventQueueTest, NegativeStartTimeOrdersAcrossZero) {
    // Two's-complement times: entries on both sides of zero, and one far
    // above it, still fire in time order from a negative start.
    EventQueue q{SimTime{-5000}};
    std::vector<std::int64_t> fired;
    for (const std::int64_t t : {7LL, -1LL, -4999LL, 0LL, -5000LL, 1LL << 40, -1LL}) {
        q.schedule_at(SimTime{t}, [&] { fired.push_back(q.now().count()); });
    }
    q.run_all();
    EXPECT_EQ(fired,
              (std::vector<std::int64_t>{-5000, -4999, -1, -1, 0, 7, 1LL << 40}));
}

TEST(EventQueueTest, DrainingCancelledEventsKeepsLaterOrder) {
    // step() walks past the cancelled 100 ms event and finds the queue
    // empty; events scheduled afterwards, before 100 ms, still fire in
    // time order.
    EventQueue q;
    const EventId late = q.schedule_at(SimTime{100}, [] {});
    ASSERT_TRUE(q.cancel(late));
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.now(), SimTime{0});
    std::vector<std::int64_t> fired;
    for (const std::int64_t t : {99, 50, 60}) {
        q.schedule_at(SimTime{t}, [&] { fired.push_back(q.now().count()); });
    }
    q.run_all();
    EXPECT_EQ(fired, (std::vector<std::int64_t>{50, 60, 99}));
}

TEST(EventQueueTest, TiesAtRunUntilStopRunBeforeLaterEvents) {
    // run_until stops short of the 1000 ms event without moving past
    // 600 ms, so events scheduled at the stop instant still fire first,
    // in scheduling order.
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{1000}, [&] { order.push_back(3); });
    EXPECT_EQ(q.run_until(SimTime{600}), 0u);
    EXPECT_EQ(q.now(), SimTime{600});
    q.schedule_at(SimTime{600}, [&] { order.push_back(1); });
    q.schedule_at(SimTime{600}, [&] { order.push_back(2); });
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancellingTheEarliestEventKeepsOrder) {
    // The cancelled 100 ms event is the least time its bucket ever held;
    // the survivors still fire in time order after it is gone.
    EventQueue q;
    std::vector<int> order;
    const EventId first = q.schedule_at(SimTime{100}, [&] { order.push_back(0); });
    q.schedule_at(SimTime{120}, [&] { order.push_back(2); });
    q.schedule_at(SimTime{110}, [&] { order.push_back(1); });
    ASSERT_TRUE(q.cancel(first));
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), SimTime{120});
}

// A batch is a block of schedule_at calls made back to back, the way the
// campaign schedules its plan events and an NPRACH window its retries.
// Firing order is time, then scheduling order, whatever the order of the
// times inside the block.

TEST(EventQueueBatchTest, BatchEventsRunInTimeThenAddOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{30}, [&] { order.push_back(3); });
    q.schedule_at(SimTime{1 << 20}, [&] { order.push_back(5); });
    q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
    q.schedule_at(SimTime{10}, [&] { order.push_back(2); });  // FIFO tie w/ above
    q.schedule_at(SimTime{40}, [&] { order.push_back(4); });
    EXPECT_EQ(q.pending(), 5u);
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueBatchTest, BatchHandlerMayScheduleMoreEvents) {
    // A handler that schedules at its own instant queues behind every
    // event already due then — the order an NPRACH window relies on when
    // a completion callback schedules before the window's retries are
    // added.
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{10}, [&] {
        order.push_back(0);
        q.schedule_after(SimTime{0}, [&] { order.push_back(3); });
        q.schedule_after(SimTime{1}, [&] { order.push_back(4); });
    });
    q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
    q.schedule_at(SimTime{10}, [&] { order.push_back(2); });
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.now(), SimTime{11});
}

TEST(EventQueueBatchTest, CancelledBatchSlotReuseKeepsIdsFresh) {
    // A cancelled event frees its slot; the next schedule_at reuses it at
    // the same instant with a bumped generation.  The stale id must not
    // cancel the new occupant, and the stale entry, which sits in the
    // reuser's bucket, must not run the reuser a second time.
    EventQueue q;
    bool first_ran = false;
    const EventId first = q.schedule_at(SimTime{10}, [&] { first_ran = true; });
    ASSERT_TRUE(q.cancel(first));

    int reuser_runs = 0;
    const EventId reuser = q.schedule_at(SimTime{10}, [&] { ++reuser_runs; });
    EXPECT_EQ(reuser.index, first.index);  // slab reuses LIFO
    EXPECT_NE(reuser.generation, first.generation);
    EXPECT_FALSE(q.cancel(first));  // stale id cannot reach the reuser
    q.run_all();
    EXPECT_FALSE(first_ran);
    EXPECT_EQ(reuser_runs, 1);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueBatchTest, BatchSlotReusedByLaterBatchStaysDistinct) {
    // Slot reuse across two blocks: the first block's stale entry (10 ms)
    // and the second block's live entry (20 ms) share a slot index but sit
    // in different buckets, so pending_events lists exactly the live one.
    EventQueue q;
    const EventId first = q.schedule_at(SimTime{10}, [] {});
    ASSERT_TRUE(q.cancel(first));

    bool second_ran = false;
    const EventId second = q.schedule_at(SimTime{20}, [&] { second_ran = true; });
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].id, second);
    EXPECT_EQ(second.index, first.index);
    EXPECT_NE(second.generation, first.generation);
    EXPECT_EQ(pending[0].at, SimTime{20});
    q.run_all();
    EXPECT_TRUE(second_ran);
    EXPECT_FALSE(q.cancel(second));  // already fired
}

TEST(EventQueueBatchTest, PendingEventsPinnedAfterMixedCancels) {
    // Slab-order introspection after cancels, with the entries spread over
    // the radix buckets of base 0: 1 ms in bucket 1, 5 ms in bucket 3,
    // 40 and 50 ms in bucket 6, 2^20 ms in bucket 21.
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{50}, [] {});
    const EventId b = q.schedule_at(SimTime{40}, [] {});
    const EventId c = q.schedule_at(SimTime{1 << 20}, [] {});
    const EventId d = q.schedule_at(SimTime{5}, [] {});
    const EventId e = q.schedule_at(SimTime{1}, [] {});
    auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 5u);
    EXPECT_EQ(pending[0].id, a);
    EXPECT_EQ(pending[2].at, SimTime{1 << 20});
    EXPECT_EQ(pending[4].id, e);

    ASSERT_TRUE(q.cancel(a));
    ASSERT_TRUE(q.cancel(d));
    pending = q.pending_events();
    ASSERT_EQ(pending.size(), 3u);
    EXPECT_EQ(pending[0].id, b);
    EXPECT_EQ(pending[0].at, SimTime{40});
    EXPECT_EQ(pending[1].id, c);
    EXPECT_EQ(pending[2].id, e);
    EXPECT_EQ(pending[2].at, SimTime{1});
    EXPECT_LT(pending[0].id.index, pending[1].id.index);
    EXPECT_LT(pending[1].id.index, pending[2].id.index);
    EXPECT_LT(pending[0].seq, pending[1].seq);

    // Runs the 1 ms event, then settles on the cancelled 5 ms entry and
    // stops short of 40 ms.
    EXPECT_EQ(q.run_until(SimTime{5}), 1u);
    pending = q.pending_events();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].id, b);
    EXPECT_EQ(pending[1].id, c);
    EXPECT_EQ(pending[1].at, SimTime{1 << 20});
    EXPECT_EQ(pending.size(), q.pending());
}

/// The seed implementation, kept verbatim as the ordering reference: a
/// binary std::priority_queue of {time, seq, std::function} entries with
/// an unordered_set cancellation path.  The slab queue must reproduce its
/// pop order bit for bit.
class ReferenceEventQueue {
public:
    using Handler = std::function<void()>;

    [[nodiscard]] SimTime now() const noexcept { return now_; }

    std::uint64_t schedule_at(SimTime at, Handler handler) {
        const std::uint64_t seq = next_seq_++;
        heap_.push(Entry{at, seq, std::move(handler)});
        pending_ids_.insert(seq);
        return seq;
    }

    std::uint64_t schedule_after(SimTime delay, Handler handler) {
        return schedule_at(now_ + delay, std::move(handler));
    }

    bool cancel(std::uint64_t id) { return pending_ids_.erase(id) > 0; }

    bool step() {
        while (!heap_.empty() && !pending_ids_.contains(heap_.top().seq)) {
            heap_.pop();
        }
        if (heap_.empty()) return false;
        Entry top = heap_.top();
        heap_.pop();
        pending_ids_.erase(top.seq);
        now_ = top.at;
        top.handler();
        return true;
    }

    void run_all() {
        while (step()) {
        }
    }

    /// Added to the seed: runs every live event at or before `until`,
    /// then advances the clock to `until`.
    std::size_t run_until(SimTime until) {
        std::size_t n = 0;
        for (;;) {
            while (!heap_.empty() && !pending_ids_.contains(heap_.top().seq)) {
                heap_.pop();
            }
            if (heap_.empty() || heap_.top().at > until) break;
            step();
            ++n;
        }
        if (now_ < until) now_ = until;
        return n;
    }

private:
    struct Entry {
        SimTime at;
        std::uint64_t seq;
        Handler handler;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::unordered_set<std::uint64_t> pending_ids_;
    SimTime now_{0};
    std::uint64_t next_seq_ = 1;
};

/// Shape of a scripted workload: every time and delay is drawn as
/// v << s with s uniform in [0, span_bits], so span_bits = 28 spreads the
/// 0-80 ms draws up to about 2^34 ms and reaches every radix bucket in
/// use.  `start` is the first instant the script schedules at.
struct ScriptShape {
    int span_bits = 0;
    SimTime start{0};
};

/// Starts `Queue` at `start` when it takes a start time (the reference
/// queue does not, and the script never reads its clock outside handlers).
template <typename Queue>
Queue make_queue(SimTime start) {
    if constexpr (std::is_constructible_v<Queue, SimTime>) {
        return Queue{start};
    } else {
        return Queue{};
    }
}

/// Runs the same RNG-scripted workload — scattered schedules, random
/// cancellations, handlers that schedule children and cancel peers, and
/// run_until stops that stop short of a pending event and are followed by
/// ties at the stop instant and a cancel of the earliest pending event —
/// on any queue type and records the (label, fire-time) trace.  Identical
/// traces imply identical execution order AND identical RNG consumption
/// (handler decisions draw from the shared stream in fire order).
template <typename Queue>
std::vector<std::pair<int, std::int64_t>> scripted_trace(std::uint64_t seed,
                                                         ScriptShape shape = {}) {
    Queue q = make_queue<Queue>(shape.start);
    RandomStream rng{seed};
    std::vector<std::pair<int, std::int64_t>> trace;
    using Id = decltype(q.schedule_at(SimTime{0}, [] {}));
    // Indexed by label: labels are handed out in scheduling order.
    std::vector<Id> ids;
    std::vector<SimTime> due;
    std::vector<bool> live;

    const auto draw = [&](std::int64_t hi) {
        const std::int64_t v = rng.uniform_int(0, hi);
        return SimTime{shape.span_bits > 0 ? v << rng.uniform_int(0, shape.span_bits) : v};
    };
    std::function<void(int)> fire;
    const auto schedule = [&](SimTime at) {
        const int label = static_cast<int>(ids.size());
        ids.push_back(q.schedule_at(at, [&fire, label] { fire(label); }));
        due.push_back(at);
        live.push_back(true);
    };
    const auto cancel = [&](std::size_t label) {
        if (q.cancel(ids[label])) live[label] = false;
    };
    const auto cancel_random = [&] {
        cancel(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1)));
    };
    const auto cancel_earliest = [&] {
        std::size_t earliest = ids.size();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (live[i] && (earliest == ids.size() || due[i] < due[earliest])) {
                earliest = i;
            }
        }
        if (earliest != ids.size()) cancel(earliest);
    };

    fire = [&](int label) {
        live[static_cast<std::size_t>(label)] = false;
        trace.emplace_back(label, q.now().count());
        const std::int64_t action = rng.uniform_int(0, 9);
        if (action < 3) {
            schedule(q.now() + draw(40));
        } else if (action < 5) {
            cancel_random();
        }
    };

    for (int i = 0; i < 300; ++i) {
        // Coarse times force plenty of equal-time FIFO ties.
        schedule(shape.start + draw(80));
    }
    for (int i = 0; i < 120; ++i) cancel_random();

    SimTime clock = shape.start;
    for (int round = 0; round < 40; ++round) {
        const SimTime stop = clock + draw(40);
        // Something is always pending past the stop.
        schedule(stop + SimTime{1} + draw(40));
        (void)q.run_until(stop);
        clock = stop;
        cancel_earliest();  // the least time its bucket holds
        const auto ties = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < ties; ++i) schedule(stop);
        if (rng.bernoulli(0.5)) cancel_earliest();  // the first tie
    }
    q.run_all();
    return trace;
}

class SlabQueueTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlabQueueTraceTest, PopOrderMatchesReferenceImplementation) {
    const auto reference = scripted_trace<ReferenceEventQueue>(GetParam());
    const auto slab = scripted_trace<EventQueue>(GetParam());
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(slab, reference);
}

TEST_P(SlabQueueTraceTest, PopOrderMatchesReferenceAcrossWideTimes) {
    const ScriptShape wide{.span_bits = 28};
    const auto reference = scripted_trace<ReferenceEventQueue>(GetParam(), wide);
    const auto slab = scripted_trace<EventQueue>(GetParam(), wide);
    ASSERT_FALSE(reference.empty());
    EXPECT_GT(reference.back().second, std::int64_t{1} << 30);
    EXPECT_EQ(slab, reference);
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, SlabQueueTraceTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u, 99991u));

TEST(EventQueueTest, NegativeStartTraceMatchesReference) {
    // Starts below zero and spans past it: the sign bit picks the top
    // bucket.
    const ScriptShape negative{.span_bits = 28, .start = SimTime{-5000}};
    const auto reference = scripted_trace<ReferenceEventQueue>(42, negative);
    const auto slab = scripted_trace<EventQueue>(42, negative);
    ASSERT_FALSE(reference.empty());
    EXPECT_LT(reference.front().second, 0);
    EXPECT_GT(reference.back().second, 0);
    EXPECT_EQ(slab, reference);
}

}  // namespace
}  // namespace nbmg::sim
