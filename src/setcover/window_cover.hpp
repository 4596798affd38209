// Sliding-window maximum-coverage greedy — the DR-SC planner's core.
//
// Input: every device's paging occasions over the planning horizon as
// (time, device) events.  A multicast window of length TI anchored at time
// s covers every device with at least one PO in [s, s+TI].  The paper's
// algorithm (Sec. III-A) repeatedly finds the window covering the most
// non-updated devices (random tie-break), transmits at the window end, and
// removes the covered devices.
//
// Only windows anchored at PO events need to be considered: shifting a
// window left until its start touches a PO never loses coverage.  Events
// already in (time, device) order (DR-SC generates them so) skip the
// sort; others are put in that order by std::sort.  Early rounds rescan
// every anchor; then the greedy runs lazily: anchors are bucketed by their
// last exactly evaluated coverage (a valid upper bound, since coverage only
// shrinks as devices are covered), so a round re-evaluates only the
// anchors that could still hold or tie the maximum.  Covered devices'
// events die in place, O(1) per device (walks skip them, and the next
// exact resweep unlinks them from the alive list).
//
// Once the best window covers one device, every alive anchor ties at
// coverage 1 and covers only its own device, so each remaining round is
// the rescan's uniform draw over all alive anchors in virtual order.  The
// greedy answers those rounds in closed form: the same
// rng.uniform_int(0, total - 1) call (only when total > 1), mapped to an
// anchor by an order-statistic count over the period's alive events, and
// the drawn device's events retired from per-device lists, in O(log n) a
// round.  The chosen windows, their device lists and the tie-break RNG
// stream are bit-identical to the full rescan in every phase (see
// tests/setcover/window_cover_test.cpp: WindowCoverTraceTest,
// PeriodicWindowCoverTraceTest, SingleDeviceTailTraceTest).
//
// A periodic horizon is folded: DR-SC's 2 × maxDRX holds two copies of the
// PO pattern, the second shifted by one period.  The greedy takes one
// period and a copy count and reads the later copies in place.  An anchor
// in a later copy covers what its copy-0 twin covers unless its window
// would reach past the last copy (a boundary anchor: for TI < period, the
// last TI ms of the last copy); only copy 0's anchors and the boundary
// anchors are ever swept or evaluated, and the ties are listed in the
// order of the expanded array, so the result equals the flat call's.
#pragma once

#include <cstdint>
#include <vector>

#include "setcover/instance.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace nbmg::setcover {

struct PoEvent {
    sim::SimTime at;
    std::uint32_t device = 0;

    friend bool operator==(const PoEvent&, const PoEvent&) = default;
};

struct CoverWindow {
    sim::SimTime start;  // first covered PO
    sim::SimTime end;    // start + window length (transmission reference point)
    std::vector<std::uint32_t> devices;
};

struct WindowCoverResult {
    std::vector<CoverWindow> windows;
    /// Devices with no PO event at all (cannot be covered).
    std::vector<std::uint32_t> uncoverable;
};

/// Runs the greedy window cover over `copies` back-to-back copies of one
/// period of PO events, copy c shifted by c × `period`, without building
/// the copies.  `period_events` may come in any order; unless they already
/// come in (time, device) order (checked in the input validation's pass),
/// they are sorted into it.  `device_count` bounds the device ids.  `window` is TI (inclusive
/// window [s, s+window]).  Ties between equally good windows are broken
/// uniformly at random via `rng`.  The windows, their device lists,
/// `uncoverable` and the draws from `rng` equal those of the flat call
/// below on the expanded events.  Throws std::invalid_argument when
/// `copies` is 0, when the events span `period` or more (or `period` is
/// not positive), or when a window from the last copy's latest event would
/// end past the largest SimTime.
[[nodiscard]] WindowCoverResult greedy_window_cover(std::vector<PoEvent> period_events,
                                                    sim::SimTime period,
                                                    std::uint32_t copies,
                                                    sim::SimTime window,
                                                    std::uint32_t device_count,
                                                    sim::RandomStream& rng);

/// The same greedy over a flat event list: one copy, no period.  Throws
/// std::invalid_argument on a negative window, a device id not below
/// `device_count`, or a window from the latest event ending past the
/// largest SimTime.
[[nodiscard]] WindowCoverResult greedy_window_cover(std::vector<PoEvent> events,
                                                    sim::SimTime window,
                                                    std::uint32_t device_count,
                                                    sim::RandomStream& rng);

/// Converts PO events to a generic set-cover instance (one candidate set
/// per distinct anchored window).  Used by tests and the solver-comparison
/// ablation; the dedicated greedy above is the fast path.  Throws
/// std::invalid_argument when a window from the latest event would end past
/// the largest SimTime.
[[nodiscard]] SetCoverInstance to_set_cover_instance(const std::vector<PoEvent>& events,
                                                     sim::SimTime window,
                                                     std::uint32_t device_count);

}  // namespace nbmg::setcover
