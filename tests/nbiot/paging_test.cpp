// Paging-occasion arithmetic: unit tests plus parameterized property
// sweeps over (cycle, UE identity) — periodicity, standards conformance
// for short cycles, and the ladder-nesting property DA-SC relies on — and
// an exactness sweep of the table-driven po_offset and every PoPhase query
// against the per-call formula and a walk of the occasions.
#include "nbiot/paging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace nbmg::nbiot {
namespace {

/// Every PO of `phase` in [from, to), by walking offset + k * period from
/// k = 0: the reference the closed-form queries are checked against.
std::vector<SimTime> pos_in_range(const PoPhase& phase, SimTime from, SimTime to) {
    std::vector<SimTime> out;
    for (SimTime po{phase.offset}; po < to; po += SimTime{phase.period}) {
        if (po >= from) out.push_back(po);
    }
    return out;
}

TEST(PagingConfigTest, DefaultIsValid) {
    EXPECT_TRUE(PagingConfig{}.valid());
}

TEST(PagingConfigTest, InvalidConfigsRejected) {
    PagingConfig c;
    c.max_page_records = 0;
    EXPECT_FALSE(c.valid());
    EXPECT_THROW(PagingSchedule{c}, std::invalid_argument);
}

TEST(PagingScheduleTest, UnsupportedNsRejected) {
    PagingConfig c;
    c.nb_num = 8;  // Ns = 8 not in {1,2,4}
    EXPECT_THROW(PagingSchedule{c}, std::invalid_argument);
}

TEST(PagingScheduleTest, OffsetWithinCycle) {
    const PagingSchedule paging;
    for (std::uint64_t imsi : {1ULL, 12345ULL, 999'999'999ULL}) {
        for (const DrxCycle cycle : drx_ladder()) {
            const SimTime off = paging.po_offset(Imsi{imsi}, cycle);
            EXPECT_GE(off.count(), 0);
            EXPECT_LT(off.count(), cycle.period_ms());
        }
    }
}

TEST(PagingScheduleTest, DefaultPoFallsOnSubframeNine) {
    const PagingSchedule paging;  // nB = T -> Ns = 1 -> subframe 9
    const SimTime off = paging.po_offset(Imsi{777}, drx::seconds_2_56());
    EXPECT_EQ(off.count() % kMillisPerFrame, 9);
}

TEST(PagingScheduleTest, StandardFormulaForShortCycle) {
    // For T <= 1024 frames and nB = T: PF = UE_ID mod T, PO subframe 9.
    const PagingSchedule paging;
    const std::uint64_t imsi = 98'765;
    const DrxCycle cycle = drx::seconds_2_56();  // 256 frames
    const std::uint64_t ue_id = imsi % (std::uint64_t{1} << 20);
    const std::int64_t expected_frame = static_cast<std::int64_t>(ue_id % 256);
    EXPECT_EQ(paging.po_offset(Imsi{imsi}, cycle).count(),
              expected_frame * kMillisPerFrame + 9);
}

TEST(PagingScheduleTest, FirstPoAtOrAfterReturnsExactPo) {
    const PagingSchedule paging;
    const Imsi imsi{4242};
    const DrxCycle cycle = drx::seconds_20_48();
    const PoPhase phase = paging.phase(imsi, cycle);
    const SimTime po = phase.first_at_or_after(SimTime{0});
    EXPECT_TRUE(phase.is_po(po));
    EXPECT_EQ(po, paging.po_offset(imsi, cycle));
}

TEST(PagingScheduleTest, FirstPoAtOrAfterIsIdempotentAtPo) {
    const PoPhase phase = PagingSchedule{}.phase(Imsi{31337}, drx::seconds_40_96());
    const SimTime po = phase.first_at_or_after(SimTime{100'000});
    EXPECT_EQ(phase.first_at_or_after(po), po);
}

TEST(PagingScheduleTest, LastPoBeforeIsStrict) {
    const DrxCycle cycle = drx::seconds_2_56();
    const PoPhase phase = PagingSchedule{}.phase(Imsi{5}, cycle);
    const SimTime po = phase.first_at_or_after(SimTime{50'000});
    const auto back = phase.last_before(po + SimTime{1});
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, po);
    const auto strictly = phase.last_before(po);
    ASSERT_TRUE(strictly.has_value());
    EXPECT_EQ(*strictly, po - cycle.period());
}

TEST(PagingScheduleTest, LastPoBeforeNoneBeforeFirst) {
    const PagingSchedule paging;
    const Imsi imsi{123};
    const DrxCycle cycle = drx::seconds_10485_76();
    const PoPhase phase = paging.phase(imsi, cycle);
    const SimTime first = paging.po_offset(imsi, cycle);
    EXPECT_FALSE(phase.last_before(first).has_value());
    EXPECT_FALSE(phase.last_before(SimTime{0}).has_value());
}

TEST(PagingScheduleTest, PosInRangeMatchesCountAndBounds) {
    const PoPhase phase = PagingSchedule{}.phase(Imsi{888}, drx::seconds_20_48());
    const SimTime from{12'345};
    const SimTime to{250'000};
    const auto pos = pos_in_range(phase, from, to);
    EXPECT_EQ(static_cast<std::int64_t>(pos.size()), phase.count_in_range(from, to));
    EXPECT_FALSE(pos.empty());
    for (const SimTime po : pos) {
        EXPECT_GE(po, from);
        EXPECT_LT(po, to);
        EXPECT_TRUE(phase.is_po(po));
    }
}

TEST(PagingScheduleTest, PosInRangeEmptyWhenDegenerate) {
    const PoPhase phase = PagingSchedule{}.phase(Imsi{888}, drx::seconds_20_48());
    EXPECT_TRUE(pos_in_range(phase, SimTime{100}, SimTime{100}).empty());
    EXPECT_TRUE(pos_in_range(phase, SimTime{200}, SimTime{100}).empty());
    EXPECT_FALSE(phase.has_in_range(SimTime{100}, SimTime{100}));
    EXPECT_FALSE(phase.has_in_range(SimTime{200}, SimTime{100}));
    EXPECT_EQ(phase.count_in_range(SimTime{200}, SimTime{100}), 0);
}

TEST(PagingScheduleTest, HasPoInRangeConsistent) {
    const PagingSchedule paging;
    const Imsi imsi{54'321};
    for (const DrxCycle cycle : drx_ladder()) {
        const PoPhase phase = paging.phase(imsi, cycle);
        const SimTime from{cycle.period_ms() / 3};
        const SimTime to{cycle.period_ms() * 2};
        EXPECT_EQ(phase.has_in_range(from, to), !pos_in_range(phase, from, to).empty());
    }
}

TEST(PagingScheduleTest, AnyWindowOfCycleLengthContainsExactlyOnePo) {
    const PagingSchedule paging;
    const Imsi imsi{2'718'281};
    for (const DrxCycle cycle : drx_ladder()) {
        const PoPhase phase = paging.phase(imsi, cycle);
        for (const std::int64_t start : {0L, 777L, cycle.period_ms() - 1}) {
            EXPECT_EQ(phase.count_in_range(SimTime{start},
                                           SimTime{start + cycle.period_ms()}),
                      1);
        }
    }
}

/// Property sweep: (cycle index, imsi) pairs.
class PagingPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PagingPropertyTest, PoPatternIsPeriodic) {
    const PagingSchedule paging;
    const auto [index, imsi_value] = GetParam();
    const DrxCycle cycle = DrxCycle::from_index(index);
    const Imsi imsi{imsi_value};
    const PoPhase phase = paging.phase(imsi, cycle);
    const SimTime first = phase.first_at_or_after(SimTime{0});
    for (int k = 1; k <= 3; ++k) {
        const SimTime expect = first + SimTime{k * cycle.period_ms()};
        EXPECT_TRUE(phase.is_po(expect));
        EXPECT_EQ(phase.first_at_or_after(expect - SimTime{1}), expect);
    }
    // Nothing between consecutive POs.
    EXPECT_EQ(phase.count_in_range(first + SimTime{1}, first + SimTime{cycle.period_ms()}),
              0);
}

TEST_P(PagingPropertyTest, DoublingNestsPoSets) {
    // POs of cycle 2T are a subset of POs of cycle T (same UE): the ladder
    // property the paper states in Sec. II-B and DA-SC exploits.
    const PagingSchedule paging;
    const auto [index, imsi_value] = GetParam();
    const DrxCycle cycle = DrxCycle::from_index(index);
    const Imsi imsi{imsi_value};
    if (!cycle.has_longer()) {
        // Ladder top: no doubled cycle exists, so assert the boundary from
        // the other side — the top cycle's POs nest inside every shorter
        // cycle's PO set.
        ASSERT_EQ(cycle.index(), DrxCycle::kLadderSize - 1);
        const auto top_pos =
            pos_in_range(paging.phase(imsi, cycle), SimTime{0}, SimTime{2 * cycle.period_ms()});
        ASSERT_FALSE(top_pos.empty());
        for (const DrxCycle other : drx_ladder()) {
            const PoPhase other_phase = paging.phase(imsi, other);
            for (const SimTime po : top_pos) {
                EXPECT_TRUE(other_phase.is_po(po))
                    << "top-of-ladder PO must be a PO of every shorter cycle";
            }
        }
        return;
    }
    const DrxCycle doubled = cycle.longer();
    const auto pos =
        pos_in_range(paging.phase(imsi, doubled), SimTime{0},
                                    SimTime{4 * doubled.period_ms()});
    ASSERT_FALSE(pos.empty());
    const PoPhase phase = paging.phase(imsi, cycle);
    for (const SimTime po : pos) {
        EXPECT_TRUE(phase.is_po(po))
            << "PO of doubled cycle must also be PO of the shorter cycle";
    }
}

TEST_P(PagingPropertyTest, ShorteningOnlyAddsOccasions) {
    const PagingSchedule paging;
    const auto [index, imsi_value] = GetParam();
    const DrxCycle cycle = DrxCycle::from_index(index);
    const Imsi imsi{imsi_value};
    if (!cycle.has_shorter()) {
        // Ladder bottom: there is no shorter cycle to compare against, so
        // assert the boundary itself — 320 ms is the densest PO pattern any
        // cycle can produce, which is the same monotonicity property read
        // from the other side.
        ASSERT_EQ(cycle.index(), 0);
        const SimTime to{2 * drx_ladder().back().period_ms()};
        for (const DrxCycle other : drx_ladder()) {
            EXPECT_GE(paging.phase(imsi, cycle).count_in_range(SimTime{0}, to),
                      paging.phase(imsi, other).count_in_range(SimTime{0}, to));
        }
        return;
    }
    const SimTime to{2 * cycle.period_ms()};
    EXPECT_GE(paging.phase(imsi, cycle.shorter()).count_in_range(SimTime{0}, to),
              paging.phase(imsi, cycle).count_in_range(SimTime{0}, to));
}

INSTANTIATE_TEST_SUITE_P(
    CycleImsiGrid, PagingPropertyTest,
    ::testing::Combine(::testing::Values(0, 3, 6, 9, 12, 14, 15),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{1023},
                                         std::uint64_t{1'048'575},
                                         std::uint64_t{314'159'265'358ULL},
                                         std::uint64_t{100'000'000'000'007ULL})));

// Directed ladder-boundary tests: the clamp predicates and step
// constructors at indices 0 and kLadderSize-1 are asserted here, not
// skipped (formerly two GTEST_SKIP holes in the property sweep above).
TEST(LadderEdgeTest, BottomOfLadderClamps) {
    const DrxCycle bottom = DrxCycle::from_index(0);
    EXPECT_FALSE(bottom.has_shorter());
    EXPECT_TRUE(bottom.has_longer());
    EXPECT_EQ(bottom, drx_ladder().front());
    EXPECT_EQ(bottom.period_ms(), 320);
    // Stepping up from the bottom and back down is the identity.
    EXPECT_EQ(bottom.longer().shorter(), bottom);
    EXPECT_EQ(bottom.longer().index(), 1);
}

TEST(LadderEdgeTest, TopOfLadderClamps) {
    const DrxCycle top = DrxCycle::from_index(DrxCycle::kLadderSize - 1);
    EXPECT_FALSE(top.has_longer());
    EXPECT_TRUE(top.has_shorter());
    EXPECT_EQ(top, drx_ladder().back());
    EXPECT_EQ(top.period_ms(), 320LL << (DrxCycle::kLadderSize - 1));
    EXPECT_EQ(top.shorter().longer(), top);
    EXPECT_EQ(top.shorter().index(), DrxCycle::kLadderSize - 2);
}

TEST(LadderEdgeTest, OnlyEndpointsLackNeighbors) {
    for (const DrxCycle cycle : drx_ladder()) {
        EXPECT_EQ(cycle.has_shorter(), cycle.index() > 0);
        EXPECT_EQ(cycle.has_longer(), cycle.index() < DrxCycle::kLadderSize - 1);
        if (cycle.has_shorter()) {
            EXPECT_EQ(cycle.shorter().period_ms() * 2, cycle.period_ms());
        }
        if (cycle.has_longer()) {
            EXPECT_EQ(cycle.longer().period_ms(), cycle.period_ms() * 2);
        }
    }
}

TEST(LadderEdgeTest, EdgeNestingHoldsAtBothEnds) {
    // The DA-SC nesting invariant asserted directly at the endpoints: every
    // top-of-ladder PO is a PO of the bottom cycle, and a window of one
    // top-cycle period holds exactly period-ratio bottom-cycle POs.
    const PagingSchedule paging;
    const DrxCycle bottom = drx_ladder().front();
    const DrxCycle top = drx_ladder().back();
    const Imsi imsi{9'876'543'210ULL};
    const SimTime window{2 * top.period_ms()};
    const auto top_pos = pos_in_range(paging.phase(imsi, top), SimTime{0}, window);
    ASSERT_EQ(top_pos.size(), 2u);
    const PoPhase bottom_phase = paging.phase(imsi, bottom);
    for (const SimTime po : top_pos) {
        EXPECT_TRUE(bottom_phase.is_po(po));
    }
    EXPECT_EQ(bottom_phase.count_in_range(SimTime{0}, window),
              2 * (top.period_ms() / bottom.period_ms()));
}

TEST(PagingScheduleNbVariantTest, HalfTBunchesPagingFrames) {
    PagingConfig config;
    config.nb_num = 1;
    config.nb_den = 2;  // nB = T/2: only half the frames carry paging
    const PagingSchedule paging{config};
    // PF = 2 * (UE_ID mod T/2): always an even frame offset.
    for (std::uint64_t imsi = 1; imsi < 2000; imsi += 97) {
        const SimTime off = paging.po_offset(Imsi{imsi}, drx::seconds_2_56());
        EXPECT_EQ((off.count() / kMillisPerFrame) % 2, 0);
    }
}

TEST(PagingScheduleNbVariantTest, TwoTUsesTwoSubframes) {
    PagingConfig config;
    config.nb_num = 2;  // nB = 2T -> Ns = 2 -> subframes {4, 9}
    const PagingSchedule paging{config};
    bool saw4 = false;
    bool saw9 = false;
    for (std::uint64_t imsi = 1; imsi < 5000; imsi += 13) {
        const auto sf = paging.po_offset(Imsi{imsi}, drx::seconds_2_56()).count() %
                        kMillisPerFrame;
        EXPECT_TRUE(sf == 4 || sf == 9);
        saw4 |= sf == 4;
        saw9 |= sf == 9;
    }
    EXPECT_TRUE(saw4);
    EXPECT_TRUE(saw9);
}

/// The per-call TS 36.304 formula po_offset evaluated before it read a
/// per-cycle table: the reference the table must reproduce.
std::int64_t reference_po_offset(const PagingConfig& config, Imsi imsi, DrxCycle cycle) {
    const std::int64_t t_frames = cycle.period_frames();
    // UE_ID is unsigned: with a modulus past 2^63 it passes INT64_MAX.
    const std::uint64_t ue_id = imsi.value % config.ue_id_modulus;
    const std::int64_t nb =
        std::max<std::int64_t>(1, t_frames * config.nb_num / config.nb_den);
    const std::int64_t n = std::min(t_frames, nb);
    const std::int64_t ns = std::max<std::int64_t>(1, nb / t_frames);
    const std::int64_t pf_offset =
        (t_frames / n) * static_cast<std::int64_t>(ue_id % static_cast<std::uint64_t>(n)) %
        t_frames;
    const auto i_s = static_cast<std::size_t>((ue_id / static_cast<std::uint64_t>(n)) %
                                              static_cast<std::uint64_t>(ns));
    static constexpr std::array<std::int64_t, 1> kNs1{9};
    static constexpr std::array<std::int64_t, 2> kNs2{4, 9};
    static constexpr std::array<std::int64_t, 4> kNs4{0, 4, 5, 9};
    const std::int64_t sf = ns == 1 ? kNs1.at(i_s) : ns == 2 ? kNs2.at(i_s) : kNs4.at(i_s);
    return pf_offset * kMillisPerFrame + sf * kMillisPerSubframe;
}

TEST(PagingExactnessTest, PoOffsetAndPhaseQueriesMatchTheFormulaAndAWalk) {
    // nB in {T/256, T/2, T, 2T, 4T}, then nb_den = 3 at Ns 1, 2 and 4.
    const std::pair<std::int64_t, std::int64_t> nb_ratios[] = {
        {1, 256}, {1, 2}, {1, 1}, {2, 1}, {4, 1}, {1, 3}, {4, 3}, {7, 3}, {13, 3}};
    // The last modulus takes UE_IDs past INT64_MAX.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t moduli[] = {std::uint64_t{1} << 20, 1'000'003, 999, kMax};
    constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
    std::size_t checked = 0;
    for (const auto& [nb_num, nb_den] : nb_ratios) {
        for (const std::uint64_t modulus : moduli) {
            const PagingConfig config{
                .nb_num = nb_num, .nb_den = nb_den, .ue_id_modulus = modulus};
            const PagingSchedule paging(config);
            std::vector<std::uint64_t> imsis{0, kMax, kHalf, kHalf + 5};
            // The multiples wrap modulo 2^64 for the largest modulus.
            for (const std::uint64_t m :
                 {modulus, 2 * modulus, 7 * modulus, kMax / modulus * modulus}) {
                imsis.insert(imsis.end(), {m - 1, m, m + 1});
            }
            for (const std::uint64_t imsi_value : imsis) {
                const Imsi imsi{imsi_value};
                for (const DrxCycle cycle : drx_ladder()) {
                    const std::int64_t offset = reference_po_offset(config, imsi, cycle);
                    ASSERT_EQ(paging.po_offset(imsi, cycle).count(), offset)
                        << "nB " << nb_num << "/" << nb_den << " modulus " << modulus
                        << " imsi " << imsi_value << " cycle " << cycle.period_ms();
                    const PoPhase phase = paging.phase(imsi, cycle);
                    ASSERT_EQ(phase.offset, offset);
                    ASSERT_EQ(phase.period, cycle.period_ms());

                    // Negative, at the first and the fourth occasion, and
                    // one either side of each.
                    const std::int64_t p = phase.period;
                    const std::int64_t fourth = offset + 3 * p;
                    const std::vector<SimTime> times{
                        SimTime{-p - 1}, SimTime{-1}, SimTime{offset - 1}, SimTime{offset},
                        SimTime{offset + 1}, SimTime{fourth - 1}, SimTime{fourth},
                        SimTime{fourth + 1}};
                    const std::vector<SimTime> occasions =
                        pos_in_range(phase, SimTime{0}, SimTime{fourth + p + 1});
                    for (const SimTime t : times) {
                        const auto at_or_after =
                            std::find_if(occasions.begin(), occasions.end(),
                                         [t](SimTime po) { return po >= t; });
                        ASSERT_NE(at_or_after, occasions.end());
                        EXPECT_EQ(phase.first_at_or_after(t), *at_or_after);
                        const auto before = at_or_after == occasions.begin()
                                                ? std::optional<SimTime>{}
                                                : std::optional<SimTime>{*(at_or_after - 1)};
                        EXPECT_EQ(phase.last_before(t), before);
                        EXPECT_EQ(phase.is_po(t), std::ranges::count(occasions, t) == 1);
                        for (const SimTime to : times) {
                            const auto walked = std::ranges::count_if(
                                occasions, [&](SimTime po) { return t <= po && po < to; });
                            EXPECT_EQ(phase.count_in_range(t, to), walked);
                            EXPECT_EQ(phase.has_in_range(t, to), walked > 0);
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, std::size_t{9 * 4 * 16 * 16 * 8 * 8});
}

}  // namespace
}  // namespace nbmg::nbiot
