#include "setcover/window_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "setcover/solvers.hpp"

namespace nbmg::setcover {
namespace {

using sim::SimTime;

std::vector<PoEvent> paper_figure4_events() {
    // Loosely mirrors Fig. 4: 7 devices with scattered POs.
    return {
        {SimTime{100}, 0}, {SimTime{150}, 1}, {SimTime{180}, 2},  // cluster A
        {SimTime{500}, 3}, {SimTime{520}, 4},                      // cluster B
        {SimTime{900}, 5},                                         // loner
        {SimTime{1'300}, 6}, {SimTime{1'350}, 5},                  // cluster C
    };
}

TEST(WindowCoverTest, CoversAllDevicesOnce) {
    sim::RandomStream rng{1};
    const auto result = greedy_window_cover(paper_figure4_events(), SimTime{100}, 7, rng);
    EXPECT_TRUE(result.uncoverable.empty());
    std::set<std::uint32_t> covered;
    for (const auto& w : result.windows) {
        for (const auto d : w.devices) {
            EXPECT_TRUE(covered.insert(d).second) << "device covered twice";
        }
    }
    EXPECT_EQ(covered.size(), 7u);
}

TEST(WindowCoverTest, PicksDensestClusterFirst) {
    sim::RandomStream rng{1};
    const auto result = greedy_window_cover(paper_figure4_events(), SimTime{100}, 7, rng);
    ASSERT_FALSE(result.windows.empty());
    EXPECT_EQ(result.windows.front().devices.size(), 3u);  // cluster A
}

TEST(WindowCoverTest, SingleWindowWhenAllWithinTi) {
    sim::RandomStream rng{2};
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < 10; ++d) {
        events.push_back({SimTime{1'000 + d * 30}, d});
    }
    const auto result = greedy_window_cover(events, SimTime{300}, 10, rng);
    ASSERT_EQ(result.windows.size(), 1u);
    EXPECT_EQ(result.windows.front().devices.size(), 10u);
    EXPECT_EQ(result.windows.front().start, SimTime{1'000});
}

TEST(WindowCoverTest, ZeroWindowGroupsOnlyExactCoincidence) {
    sim::RandomStream rng{3};
    const std::vector<PoEvent> events{
        {SimTime{10}, 0}, {SimTime{10}, 1}, {SimTime{11}, 2}};
    const auto result = greedy_window_cover(events, SimTime{0}, 3, rng);
    EXPECT_EQ(result.windows.size(), 2u);
}

TEST(WindowCoverTest, WindowBoundaryIsInclusive) {
    sim::RandomStream rng{4};
    const std::vector<PoEvent> events{{SimTime{0}, 0}, {SimTime{100}, 1}};
    const auto one = greedy_window_cover(events, SimTime{100}, 2, rng);
    EXPECT_EQ(one.windows.size(), 1u);
    const auto two = greedy_window_cover(events, SimTime{99}, 2, rng);
    EXPECT_EQ(two.windows.size(), 2u);
}

TEST(WindowCoverTest, DevicesWithoutEventsReportedUncoverable) {
    sim::RandomStream rng{5};
    const std::vector<PoEvent> events{{SimTime{10}, 0}};
    const auto result = greedy_window_cover(events, SimTime{50}, 3, rng);
    EXPECT_EQ(result.uncoverable, (std::vector<std::uint32_t>{1, 2}));
}

TEST(WindowCoverTest, EmptyEventsAllUncoverable) {
    sim::RandomStream rng{6};
    const auto result = greedy_window_cover({}, SimTime{50}, 2, rng);
    EXPECT_TRUE(result.windows.empty());
    EXPECT_EQ(result.uncoverable.size(), 2u);
}

TEST(WindowCoverTest, DeviceIdOutOfRangeThrows) {
    sim::RandomStream rng{7};
    const std::vector<PoEvent> events{{SimTime{10}, 5}};
    EXPECT_THROW((void)greedy_window_cover(events, SimTime{50}, 3, rng),
                 std::invalid_argument);
}

TEST(WindowCoverTest, NegativeWindowThrows) {
    sim::RandomStream rng{7};
    EXPECT_THROW((void)greedy_window_cover({}, SimTime{-1}, 0, rng),
                 std::invalid_argument);
}

TEST(WindowCoverTest, MultiplePosPerDeviceAnyOneSuffices) {
    sim::RandomStream rng{8};
    // Device 0 has POs far apart; device 1 sits next to the second one.
    const std::vector<PoEvent> events{
        {SimTime{0}, 0}, {SimTime{10'000}, 0}, {SimTime{10'050}, 1}};
    const auto result = greedy_window_cover(events, SimTime{100}, 2, rng);
    EXPECT_EQ(result.windows.size(), 1u);
    EXPECT_EQ(result.windows.front().start, SimTime{10'000});
}

TEST(WindowCoverTest, DeterministicGivenSeed) {
    auto run = [](std::uint64_t seed) {
        sim::RandomStream rng{seed};
        std::vector<PoEvent> events;
        sim::RandomStream gen{99};
        for (std::uint32_t d = 0; d < 50; ++d) {
            for (int k = 0; k < 3; ++k) {
                events.push_back({SimTime{gen.uniform_int(0, 100'000)}, d});
            }
        }
        const auto result = greedy_window_cover(events, SimTime{2'000}, 50, rng);
        std::vector<std::int64_t> starts;
        for (const auto& w : result.windows) starts.push_back(w.start.count());
        return starts;
    };
    EXPECT_EQ(run(3), run(3));
}

TEST(WindowCoverTest, GreedyMatchesGenericGreedyCount) {
    // The specialized sliding-window greedy and the generic set-cover
    // greedy choose max-coverage sets the same way; with deterministic
    // tie-breaks their cover sizes agree on small instances.
    sim::RandomStream gen{123};
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < 20; ++d) {
        events.push_back({SimTime{gen.uniform_int(0, 5'000)}, d});
    }
    sim::RandomStream rng{1};
    const auto fast = greedy_window_cover(events, SimTime{400}, 20, rng);
    const SetCoverInstance inst = to_set_cover_instance(events, SimTime{400}, 20);
    const SetCoverSolution generic = greedy_cover(inst);
    EXPECT_TRUE(generic.covers_all);
    EXPECT_EQ(fast.windows.size(), generic.chosen.size());
}

TEST(WindowCoverTest, NeverWorseThanExactAndWithinBound) {
    sim::RandomStream gen{5};
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < 12; ++d) {
        events.push_back({SimTime{gen.uniform_int(0, 3'000)}, d});
    }
    sim::RandomStream rng{1};
    const auto fast = greedy_window_cover(events, SimTime{500}, 12, rng);
    const auto exact = exact_cover(to_set_cover_instance(events, SimTime{500}, 12));
    ASSERT_TRUE(exact.has_value());
    EXPECT_GE(fast.windows.size(), exact->chosen.size());
    EXPECT_LE(static_cast<double>(fast.windows.size()),
              harmonic(12) * static_cast<double>(exact->chosen.size()) + 1e-9);
}

/// The seed window-cover greedy, kept verbatim as the trace reference
/// (std::vector<bool> coverage, per-round scratch reset).  The bitset
/// version must produce identical windows and consume the RNG identically.
WindowCoverResult reference_window_cover(std::vector<PoEvent> events,
                                         sim::SimTime window,
                                         std::uint32_t device_count,
                                         sim::RandomStream& rng) {
    struct RoundBest {
        std::size_t anchor = 0;
        std::size_t coverage = 0;
    };
    const auto best_round = [&](const std::vector<PoEvent>& evs,
                                std::vector<std::uint32_t>& counts) {
        counts.assign(device_count, 0);
        std::size_t distinct = 0;
        RoundBest best;
        std::vector<std::size_t> ties;
        std::size_t j = 0;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const sim::SimTime limit = evs[i].at + window;
            while (j < evs.size() && evs[j].at <= limit) {
                if (counts[evs[j].device]++ == 0) ++distinct;
                ++j;
            }
            if (distinct > best.coverage) {
                best.coverage = distinct;
                best.anchor = i;
                ties.assign(1, i);
            } else if (distinct == best.coverage && distinct > 0) {
                ties.push_back(i);
            }
            if (--counts[evs[i].device] == 0) --distinct;
        }
        if (!ties.empty() && ties.size() > 1) {
            best.anchor = ties[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ties.size()) - 1))];
        }
        return best;
    };

    std::sort(events.begin(), events.end(), [](const PoEvent& a, const PoEvent& b) {
        if (a.at != b.at) return a.at < b.at;
        return a.device < b.device;
    });

    WindowCoverResult result;
    std::vector<bool> seen(device_count, false);
    for (const PoEvent& e : events) seen[e.device] = true;
    for (std::uint32_t d = 0; d < device_count; ++d) {
        if (!seen[d]) result.uncoverable.push_back(d);
    }

    std::vector<bool> covered(device_count, false);
    std::vector<std::uint32_t> counts;
    while (!events.empty()) {
        const RoundBest best = best_round(events, counts);
        if (best.coverage == 0) break;
        const sim::SimTime start = events[best.anchor].at;
        const sim::SimTime limit = start + window;
        CoverWindow chosen{start, limit, {}};
        for (std::size_t k = best.anchor;
             k < events.size() && events[k].at <= limit; ++k) {
            const std::uint32_t d = events[k].device;
            if (!covered[d]) {
                covered[d] = true;
                chosen.devices.push_back(d);
            }
        }
        result.windows.push_back(std::move(chosen));
        std::erase_if(events,
                      [&covered](const PoEvent& e) { return covered[e.device]; });
    }
    return result;
}

/// 1-6 events for each of `devices` devices, device by device, each time
/// drawn by `draw`.
template <class Draw>
std::vector<PoEvent> draw_events(sim::RandomStream& gen, std::uint32_t devices,
                                 Draw draw) {
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < devices; ++d) {
        const int pos = static_cast<int>(gen.uniform_int(1, 6));
        for (int k = 0; k < pos; ++k) events.push_back({SimTime{draw(gen)}, d});
    }
    return events;
}

/// Coarse grid -> frequent exact ties between windows.
std::int64_t grid_time(sim::RandomStream& gen) { return 100 * gen.uniform_int(0, 40); }

/// One input pattern of the trace test.  The first is the coarse grid; the
/// others reach the edges of the linear-time (time, device) ordering that
/// opens greedy_window_cover, which the reference does with std::sort.
struct TracePattern {
    const char* name;
    std::vector<PoEvent> (*events)(sim::RandomStream& gen, std::uint32_t devices);
};

const TracePattern kTracePatterns[] = {
    {"coarse grid",
     [](sim::RandomStream& gen, std::uint32_t devices) {
         return draw_events(gen, devices, grid_time);
     }},
    {"every event at one instant (one bucket holds them all)",
     [](sim::RandomStream& gen, std::uint32_t devices) {
         return draw_events(gen, devices, [](sim::RandomStream&) { return std::int64_t{7}; });
     }},
    {"clusters 2^36 ms apart, a span past 2^40 ms (the bucket shift)",
     [](sim::RandomStream& gen, std::uint32_t devices) {
         return draw_events(gen, devices, [](sim::RandomStream& g) {
             const std::int64_t cluster = g.uniform_int(0, 39) << 36;
             return cluster + grid_time(g);
         });
     }},
    {"negative times: clusters at -2^62, 0 and 2^62 ms, a span past 2^63 ms",
     [](sim::RandomStream& gen, std::uint32_t devices) {
         return draw_events(gen, devices, [](sim::RandomStream& g) {
             const std::int64_t base = g.uniform_int(-1, 1) * (std::int64_t{1} << 62);
             return base - grid_time(g);
         });
     }},
    {"every (time, device) event repeated, the copies in reverse order",
     [](sim::RandomStream& gen, std::uint32_t devices) {
         std::vector<PoEvent> events = draw_events(gen, devices, grid_time);
         const std::vector<PoEvent> copies(events.rbegin(), events.rend());
         events.insert(events.end(), copies.begin(), copies.end());
         return events;
     }},
};

class WindowCoverTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowCoverTraceTest, BitsetGreedyMatchesReference) {
    for (const TracePattern& pattern : kTracePatterns) {
        SCOPED_TRACE(pattern.name);
        sim::RandomStream gen{GetParam() * 131 + 5};
        const std::uint32_t devices = 60;
        const std::vector<PoEvent> events = pattern.events(gen, devices);
        sim::RandomStream ref_rng{GetParam()};
        sim::RandomStream fast_rng{GetParam()};
        const WindowCoverResult ref =
            reference_window_cover(events, SimTime{500}, devices, ref_rng);
        const WindowCoverResult fast =
            greedy_window_cover(events, SimTime{500}, devices, fast_rng);

        EXPECT_EQ(fast.uncoverable, ref.uncoverable);
        ASSERT_EQ(fast.windows.size(), ref.windows.size());
        for (std::size_t w = 0; w < ref.windows.size(); ++w) {
            EXPECT_EQ(fast.windows[w].start, ref.windows[w].start);
            EXPECT_EQ(fast.windows[w].end, ref.windows[w].end);
            EXPECT_EQ(fast.windows[w].devices, ref.windows[w].devices);
        }
        EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPoPatterns, WindowCoverTraceTest,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{16}));

/// One period of PO-like events, shuffled: device d repeats every
/// period / 2^k ms (k in 0..3, so its cycle divides the period;
/// device 0 has k = 0, one event per period) from an offset on a 100 ms
/// grid below its cycle, and every fifth device's events come twice.  The
/// period starts at a random base, possibly negative.
std::vector<PoEvent> periodic_events(sim::RandomStream& gen, std::uint32_t devices,
                                     std::int64_t period) {
    const std::int64_t base = 100 * gen.uniform_int(-50, 50);
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < devices; ++d) {
        const std::int64_t cycle = period >> (d == 0 ? 0 : gen.uniform_int(0, 3));
        const std::int64_t offset = 100 * gen.uniform_int(0, cycle / 100 - 1);
        for (std::int64_t at = offset; at < period; at += cycle) {
            events.push_back({SimTime{base + at}, d});
            if (d % 5 == 4) events.push_back({SimTime{base + at}, d});
        }
    }
    gen.shuffle(events);
    return events;
}

/// One period of sparse events at both of its edges, shuffled: each device
/// gets one or two events (device 0 exactly one) on a 10 ms grid within
/// the period's first or last 5 s, and every fifth device's events come
/// twice.  Short windows then cover a few devices each, so the greedy hands
/// over to the lazy tail early, and windows near the period's end read on
/// into the next copy's start.
std::vector<PoEvent> edge_events(sim::RandomStream& gen, std::uint32_t devices,
                                 std::int64_t period) {
    const std::int64_t base = 100 * gen.uniform_int(-50, 50);
    std::vector<PoEvent> events;
    for (std::uint32_t d = 0; d < devices; ++d) {
        const std::int64_t count = d == 0 ? 1 : gen.uniform_int(1, 2);
        for (std::int64_t k = 0; k < count; ++k) {
            const std::int64_t offset = 10 * gen.uniform_int(0, 499);
            const std::int64_t at = gen.uniform_int(0, 1) == 0 ? offset : period - 1 - offset;
            events.push_back({SimTime{base + at}, d});
            if (d % 5 == 4) events.push_back({SimTime{base + at}, d});
        }
    }
    gen.shuffle(events);
    return events;
}

/// `copies` copies of `period_events`, copy c shifted by c × `period`.
std::vector<PoEvent> expand(const std::vector<PoEvent>& period_events, SimTime period,
                            std::uint32_t copies) {
    std::vector<PoEvent> events;
    for (std::uint32_t c = 0; c < copies; ++c) {
        for (const PoEvent& e : period_events) {
            events.push_back({e.at + static_cast<std::int64_t>(c) * period, e.device});
        }
    }
    return events;
}

void expect_same_cover(const WindowCoverResult& fast, const WindowCoverResult& ref) {
    EXPECT_EQ(fast.uncoverable, ref.uncoverable);
    ASSERT_EQ(fast.windows.size(), ref.windows.size());
    for (std::size_t w = 0; w < ref.windows.size(); ++w) {
        EXPECT_EQ(fast.windows[w].start, ref.windows[w].start) << "window " << w;
        EXPECT_EQ(fast.windows[w].end, ref.windows[w].end) << "window " << w;
        EXPECT_EQ(fast.windows[w].devices, ref.windows[w].devices) << "window " << w;
    }
}

/// The folded greedy over one period equals the reference rescan over the
/// expanded copies: windows, device lists, uncoverable devices and the
/// tie-break draws, over 1, 2 and 3 copies.  Windows run from zero through
/// a few hundred ms and half a period to a whole one and past two, so
/// boundary anchors sit in the last copy only or reach back through every
/// copy.  Forty devices on cycles that divide the period keep most covers
/// in the dense rescan rounds; 150 devices at the period's edges reach the
/// lazy tail, where windows wrap into the next copy.
class PeriodicWindowCoverTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeriodicWindowCoverTraceTest, OnePeriodMatchesReferenceOnTheCopies) {
    sim::RandomStream gen{GetParam() * 131 + 7};
    const SimTime cycles_period{800 * gen.uniform_int(1, 6)};
    const SimTime edges_period{1'000 * gen.uniform_int(12, 40)};
    struct Pattern {
        const char* name;
        std::uint32_t devices;
        SimTime period;
        std::vector<PoEvent> events;
    };
    const Pattern patterns[] = {
        {"cycles", 40, cycles_period, periodic_events(gen, 40, cycles_period.count())},
        {"edges", 150, edges_period, edge_events(gen, 150, edges_period.count())},
    };
    for (const Pattern& pattern : patterns) {
        const SimTime period = pattern.period;
        // Three more device ids than devices with events: those are uncoverable.
        const std::uint32_t device_count = pattern.devices + 3;
        for (std::uint32_t copies = 1; copies <= 3; ++copies) {
            for (const SimTime window : {SimTime{0}, SimTime{300}, SimTime{700}, period / 2,
                                         period, 2 * period + SimTime{100}}) {
                SCOPED_TRACE(::testing::Message()
                             << pattern.name << ", period " << period.count() << " ms, "
                             << copies << " copies, window " << window.count() << " ms");
                sim::RandomStream ref_rng{GetParam()};
                sim::RandomStream fast_rng{GetParam()};
                const WindowCoverResult ref = reference_window_cover(
                    expand(pattern.events, period, copies), window, device_count, ref_rng);
                const WindowCoverResult fast = greedy_window_cover(
                    pattern.events, period, copies, window, device_count, fast_rng);
                expect_same_cover(fast, ref);
                EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPeriods, PeriodicWindowCoverTraceTest,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{16}));

/// Single-device tails.  Once the best window covers one device, every
/// remaining round draws among all alive anchors and covers the drawn
/// anchor's device; the greedy settles those rounds in closed form.  Each
/// case checks the windows, device lists and the RNG's next draw against
/// the reference rescan over the expanded copies.
class SingleDeviceTailTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Covers `copies` copies of `period_events` both ways, compares them, and
/// returns the reference's cover.
WindowCoverResult expect_cover_matches_reference(const std::vector<PoEvent>& period_events,
                                                 SimTime period, std::uint32_t copies,
                                                 SimTime window, std::uint32_t device_count,
                                                 std::uint64_t seed) {
    sim::RandomStream ref_rng{seed};
    sim::RandomStream fast_rng{seed};
    const WindowCoverResult ref = reference_window_cover(
        expand(period_events, period, copies), window, device_count, ref_rng);
    const WindowCoverResult fast =
        greedy_window_cover(period_events, period, copies, window, device_count, fast_rng);
    expect_same_cover(fast, ref);
    EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
    return ref;
}

/// `count` devices from `first_device` on, one event each, on distinct
/// slots `spacing` ms apart from `from`, shuffled onto the slots.
std::vector<PoEvent> loners(sim::RandomStream& gen, std::uint32_t first_device,
                            std::uint32_t count, std::int64_t from, std::int64_t spacing) {
    std::vector<std::int64_t> slots;
    for (std::uint32_t k = 0; k < count; ++k) slots.push_back(from + spacing * k);
    gen.shuffle(slots);
    std::vector<PoEvent> events;
    for (std::uint32_t k = 0; k < count; ++k) {
        events.push_back({SimTime{slots[k]}, first_device + k});
    }
    return events;
}

/// The tail starts in the lazy phase, with boundary anchors present.  In a
/// 60 s period with TI = 500 ms, a three-device cluster is the first dense
/// round (3 of 53 events: the lazy greedy takes over), two pairs are the
/// lazy rounds of coverage 2, and the rest covers one device per window:
/// 40 loners, a device with events at 0.1 s and 59.7 s (its windows wrap
/// onto its own next occasion, and its copy-1 anchor at 119.7 s is a
/// boundary anchor), one with two events and one with a repeated event.
TEST_P(SingleDeviceTailTraceTest, TailFromTheLazyPhaseWithBoundaryAnchors) {
    sim::RandomStream gen{GetParam() * 131 + 11};
    const SimTime period{60'000};
    const SimTime window{500};
    std::vector<PoEvent> events{
        {SimTime{10'000}, 0}, {SimTime{10'100}, 1}, {SimTime{10'200}, 2},  // cluster
        {SimTime{20'000}, 3}, {SimTime{20'100}, 4},                        // pair
        {SimTime{30'000}, 5}, {SimTime{30'100}, 6},                        // pair
        {SimTime{100}, 47},   {SimTime{59'700}, 47},                       // wraps
        {SimTime{2'000}, 48}, {SimTime{5'000}, 48},
        {SimTime{7'000}, 49}, {SimTime{7'000}, 49}};
    const std::vector<PoEvent> spread = loners(gen, 7, 40, 35'000, 600);
    events.insert(events.end(), spread.begin(), spread.end());
    gen.shuffle(events);
    for (std::uint32_t copies = 2; copies <= 3; ++copies) {
        SCOPED_TRACE(::testing::Message() << copies << " copies");
        const WindowCoverResult ref =
            expect_cover_matches_reference(events, period, copies, window, 50, GetParam());
        ASSERT_EQ(ref.windows.size(), 46u);
        EXPECT_EQ(ref.windows[0].devices.size(), 3u);
        EXPECT_EQ(ref.windows[1].devices.size(), 2u);
        EXPECT_EQ(ref.windows[2].devices.size(), 2u);
        for (std::size_t w = 3; w < ref.windows.size(); ++w) {
            EXPECT_EQ(ref.windows[w].devices.size(), 1u) << "window " << w;
        }
    }
}

/// The first dense round already covers one device: every event sits on
/// its own 1 s slot with TI = 500 ms, each device on two or three slots.
TEST_P(SingleDeviceTailTraceTest, FirstDenseRoundCoversOneDevice) {
    sim::RandomStream gen{GetParam() * 131 + 13};
    const SimTime period{100'000};
    std::vector<PoEvent> events = loners(gen, 0, 100, 0, 1'000);
    for (PoEvent& e : events) e.device %= 40;  // devices 0-19 get three slots
    for (std::uint32_t copies = 1; copies <= 3; ++copies) {
        SCOPED_TRACE(::testing::Message() << copies << " copies");
        const WindowCoverResult ref = expect_cover_matches_reference(
            events, period, copies, SimTime{500}, 41, GetParam());
        EXPECT_EQ(ref.uncoverable, (std::vector<std::uint32_t>{40}));
        ASSERT_EQ(ref.windows.size(), 40u);
        for (const CoverWindow& w : ref.windows) EXPECT_EQ(w.devices.size(), 1u);
    }
}

/// The tail ends on a single alive anchor, whose round draws nothing: one
/// copy of one event per device, all more than TI apart, in the periodic
/// and the flat call.
TEST_P(SingleDeviceTailTraceTest, TailEndsOnOneAnchorWithoutADraw) {
    sim::RandomStream gen{GetParam() * 131 + 17};
    const std::vector<PoEvent> events = loners(gen, 0, 25, -3'000, 700);
    (void)expect_cover_matches_reference(events, SimTime{20'000}, 1, SimTime{300}, 25,
                                         GetParam());
    sim::RandomStream ref_rng{GetParam()};
    sim::RandomStream fast_rng{GetParam()};
    expect_same_cover(greedy_window_cover(events, SimTime{300}, 25, fast_rng),
                      reference_window_cover(events, SimTime{300}, 25, ref_rng));
    EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
}

INSTANTIATE_TEST_SUITE_P(RandomDraws, SingleDeviceTailTraceTest,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{9}));

TEST(PeriodicWindowCoverTest, EmptyPeriodLeavesEveryDeviceUncoverable) {
    for (std::uint32_t copies = 1; copies <= 3; ++copies) {
        sim::RandomStream rng{9};
        const auto result = greedy_window_cover({}, SimTime{1'000}, copies, SimTime{50}, 3, rng);
        EXPECT_TRUE(result.windows.empty());
        EXPECT_EQ(result.uncoverable, (std::vector<std::uint32_t>{0, 1, 2}));
        sim::RandomStream untouched{9};
        EXPECT_EQ(rng.next_u64(), untouched.next_u64());
    }
}

TEST(PeriodicWindowCoverTest, ZeroCopiesThrows) {
    sim::RandomStream rng{10};
    const std::vector<PoEvent> events{{SimTime{10}, 0}};
    EXPECT_THROW((void)greedy_window_cover(events, SimTime{100}, 0, SimTime{50}, 1, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_window_cover({}, SimTime{100}, 0, SimTime{50}, 1, rng),
                 std::invalid_argument);
}

TEST(PeriodicWindowCoverTest, EventsSpanningThePeriodThrow) {
    sim::RandomStream rng{11};
    // Span 100 ms: a period of 101 ms holds them, one of 100 ms does not.
    // (With 101 ms, one window covers device 1 at 80 ms and device 0 at 81.)
    const std::vector<PoEvent> events{{SimTime{80}, 1}, {SimTime{-20}, 0}};
    EXPECT_EQ(greedy_window_cover(events, SimTime{101}, 2, SimTime{50}, 2, rng).windows.size(),
              1u);
    for (std::uint32_t copies = 1; copies <= 2; ++copies) {
        EXPECT_THROW(
            (void)greedy_window_cover(events, SimTime{100}, copies, SimTime{50}, 2, rng),
            std::invalid_argument);
    }
    // A period must be positive, even for no events or a single instant.
    EXPECT_THROW((void)greedy_window_cover({}, SimTime{0}, 1, SimTime{50}, 2, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_window_cover({{SimTime{5}, 0}}, SimTime{-1}, 1, SimTime{50},
                                           2, rng),
                 std::invalid_argument);
    // The span is taken in unsigned arithmetic: past 2^63 ms it still counts.
    const std::vector<PoEvent> extremes{{SimTime::min(), 0}, {SimTime::max(), 1}};
    EXPECT_THROW((void)greedy_window_cover(extremes, SimTime::max(), 1, SimTime{0}, 2, rng),
                 std::invalid_argument);
}

TEST(PeriodicWindowCoverTest, WindowsPastTheLargestTimeThrow) {
    sim::RandomStream rng{12};
    const std::vector<PoEvent> late{{SimTime::max() - SimTime{10}, 0}};
    // The last copy, or the window from its latest event, would pass the
    // largest SimTime.
    EXPECT_THROW((void)greedy_window_cover(late, SimTime{100}, 2, SimTime{0}, 1, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_window_cover(late, SimTime{100}, 1, SimTime{11}, 1, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)greedy_window_cover(late, SimTime{11}, 1, rng), std::invalid_argument);
    const SimTime huge{std::int64_t{1} << 62};
    EXPECT_THROW((void)greedy_window_cover({{SimTime{0}, 0}}, huge, 3, SimTime{0}, 1, rng),
                 std::invalid_argument);
    // Up to the largest SimTime itself, every window is formed.
    EXPECT_EQ(greedy_window_cover(late, SimTime{100}, 1, SimTime{10}, 1, rng).windows.size(),
              1u);
    EXPECT_EQ(greedy_window_cover(late, SimTime{10}, 1, rng).windows.size(), 1u);
    EXPECT_EQ(greedy_window_cover({{SimTime{0}, 0}}, huge, 2, SimTime{0}, 1, rng)
                  .windows.size(),
              1u);
}

TEST(ToSetCoverInstanceTest, OneSetPerAnchor) {
    const std::vector<PoEvent> events{{SimTime{0}, 0}, {SimTime{50}, 1}};
    const SetCoverInstance inst = to_set_cover_instance(events, SimTime{100}, 2);
    ASSERT_EQ(inst.set_count(), 2u);
    EXPECT_EQ(inst.set(0).size(), 2u);  // window at 0 covers both
    EXPECT_EQ(inst.set(1).size(), 1u);  // window at 50 covers only device 1
}

TEST(ToSetCoverInstanceTest, WindowPastTheLargestTimeThrows) {
    const std::vector<PoEvent> late{{SimTime{0}, 1}, {SimTime::max() - SimTime{10}, 0}};
    EXPECT_THROW((void)to_set_cover_instance(late, SimTime{11}, 2), std::invalid_argument);
    EXPECT_EQ(to_set_cover_instance(late, SimTime{10}, 2).set_count(), 2u);
}

}  // namespace
}  // namespace nbmg::setcover
