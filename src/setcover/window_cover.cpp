#include "setcover/window_cover.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "setcover/bitset.hpp"

namespace nbmg::setcover {
namespace {

/// (at, device) order.  It orders every event except exact duplicates,
/// which are interchangeable, so any correct sort yields the same array.
bool event_before(const PoEvent& a, const PoEvent& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.device < b.device;
}

/// Sorts `events` into (at, device) order in linear time: a stable counting
/// sort on the time's high bits, shifted so there is about one bucket per
/// event, then an insertion sort inside each bucket (std::sort for a bucket
/// of more than a few dozen events, e.g. every event at one instant).  The
/// span is taken in unsigned arithmetic, so any SimTime buckets without
/// overflow.
void sort_events(std::vector<PoEvent>& events) {
    const std::size_t n = events.size();
    if (n < 2) return;
    const auto [min_it, max_it] = std::minmax_element(
        events.begin(), events.end(),
        [](const PoEvent& a, const PoEvent& b) { return a.at < b.at; });
    const auto lo = static_cast<std::uint64_t>(min_it->at.count());
    const std::uint64_t span = static_cast<std::uint64_t>(max_it->at.count()) - lo;
    // The smallest shift with (span >> shift) < n, so at most n buckets.
    const auto shift = static_cast<unsigned>(std::bit_width(span / n));
    const auto bucket_of = [lo, shift](const PoEvent& e) {
        return static_cast<std::size_t>((static_cast<std::uint64_t>(e.at.count()) - lo) >>
                                        shift);
    };

    // first[b] counts bucket b, then (prefix sums) ends it, then (the
    // back-to-front scatter) starts it; first.back() stays n.
    std::vector<std::size_t> first((span >> shift) + 2, 0);
    for (const PoEvent& e : events) ++first[bucket_of(e)];
    std::inclusive_scan(first.begin(), first.end(), first.begin());
    std::vector<PoEvent> sorted(n);
    for (std::size_t i = n; i-- > 0;) sorted[--first[bucket_of(events[i])]] = events[i];

    constexpr std::size_t kInsertionSortMax = 32;
    for (std::size_t b = 0; b + 1 < first.size(); ++b) {
        PoEvent* const begin = sorted.data() + first[b];
        PoEvent* const end = sorted.data() + first[b + 1];
        if (static_cast<std::size_t>(end - begin) > kInsertionSortMax) {
            std::sort(begin, end, event_before);
            continue;
        }
        for (PoEvent* i = begin + 1; i < end; ++i) {
            const PoEvent e = *i;
            PoEvent* j = i;
            for (; j != begin && event_before(e, *(j - 1)); --j) *j = *(j - 1);
            *j = e;
        }
    }
    events.swap(sorted);
}

/// Best anchor of one greedy round: the anchor index whose window covers
/// the most distinct devices, with uniform tie-breaking.
struct RoundBest {
    std::size_t anchor = 0;
    std::size_t coverage = 0;
};

/// The seed implementation's round: one two-pointer sweep over the
/// compacted event array with incremental distinct-device counts.
/// `scratch_counts` must be all-zero on entry and is all-zero again on
/// return: every increment the leading pointer applies, the trailing
/// pointer undoes, so the buffer never needs a per-round reset.
RoundBest best_window_round(const std::vector<PoEvent>& events, sim::SimTime window,
                            sim::RandomStream& rng,
                            std::vector<std::uint32_t>& scratch_counts,
                            std::vector<std::size_t>& ties) {
    std::size_t distinct = 0;

    RoundBest best;
    ties.clear();
    std::size_t j = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        // Window anchored at events[i]: [at, at + window] inclusive.
        const sim::SimTime limit = events[i].at + window;
        while (j < events.size() && events[j].at <= limit) {
            if (scratch_counts[events[j].device]++ == 0) ++distinct;
            ++j;
        }
        if (distinct > best.coverage) {
            best.coverage = distinct;
            best.anchor = i;
            ties.assign(1, i);
        } else if (distinct == best.coverage && distinct > 0) {
            ties.push_back(i);
        }
        // Slide: remove the anchor event before moving to the next one.
        if (--scratch_counts[events[i].device] == 0) --distinct;
    }
    if (!ties.empty() && ties.size() > 1) {
        best.anchor = ties[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ties.size()) - 1))];
    }
    return best;
}

/// Lazy-greedy tail state: once rounds stop removing large fractions of
/// the events, the full rescan's O(rounds x events) becomes the dominant
/// cost and this structure takes over.  Alive events (a frozen, sorted,
/// compacted array) form a doubly-linked list; every alive event is a
/// candidate window anchor, bucketed by its last exactly evaluated
/// coverage.  Coverage is monotone non-increasing as devices get covered,
/// so a bucket key is always a valid upper bound and a round only
/// re-evaluates anchors that could still hold or tie the maximum.
///
/// When a chosen window invalidates bounds wholesale (a dense-cycle device
/// appears in every window, so covering it stales every anchor at once),
/// laziness degenerates; a work counter detects that and amortizes it away
/// with one exact resweep (rebuild), so a lazy round never costs more than
/// a constant factor of a rescan round, and typical tail rounds cost far
/// less.
///
/// Trace contract (guarded by WindowCoverTraceTest): the chosen anchors,
/// their device lists, and the RNG consumption are bit-identical to the
/// full rescan.  That requires exhaustive tie re-evaluation — every anchor
/// whose bound equals the round's maximum is re-evaluated, and the
/// confirmed ties are drawn from in ascending event order, exactly as the
/// rescan enumerated them.
class LazyWindowGreedy {
public:
    LazyWindowGreedy(const std::vector<PoEvent>& events, sim::SimTime window,
                     std::uint32_t device_count)
        : events_(events),
          window_(window),
          next_(events.size() + 1),
          prev_(events.size() + 1),
          bucket_of_(events.size()),
          eval_epoch_(events.size(), 0),
          device_dead_(device_count),
          dev_event_count_(device_count, 0),
          stamp_(device_count, 0),
          count_in_window_(device_count, 0) {
        const std::size_t n = events_.size();
        for (std::size_t i = 0; i <= n; ++i) {
            next_[i] = i + 1 <= n ? i + 1 : 0;
            prev_[i] = i > 0 ? i - 1 : n;
        }
        alive_count_ = n;
        for (const PoEvent& e : events_) ++dev_event_count_[e.device];
        rebuild();
    }

    [[nodiscard]] bool exhausted() const noexcept { return alive_count_ == 0; }

    /// One greedy round: finds the maximum-coverage anchor (exhaustively
    /// re-evaluating every potential tie), breaks ties through `rng` exactly
    /// as the rescan did, and returns the chosen anchor's event index.
    [[nodiscard]] std::size_t choose_anchor(sim::RandomStream& rng) {
        candidates_.clear();
        while (cur_max_ > 0) {
            // Lazy demotion has spent more than one full-rescan's worth of
            // work since the bounds were last exact (wholesale staleness):
            // pay for one exact resweep and restart the round on clean
            // buckets, where the drain below finds the ties directly.
            if (work_since_rebuild_ > alive_count_ + 64) {
                rebuild();
                candidates_.clear();
            }
            std::vector<std::size_t>& bucket = buckets_[cur_max_];
            while (!bucket.empty() && work_since_rebuild_ <= alive_count_ + 64) {
                const std::size_t i = bucket.back();
                bucket.pop_back();
                ++work_since_rebuild_;
                if (!alive(i) || bucket_of_[i] != cur_max_) continue;  // stale copy
                if (eval_epoch_[i] == epoch_) {
                    // Evaluated since the last removal: the key is exact.
                    candidates_.push_back(i);
                    continue;
                }
                const std::size_t exact = evaluate(i);
                eval_epoch_[i] = epoch_;
                bucket_of_[i] = exact;
                if (exact == cur_max_) {
                    candidates_.push_back(i);
                } else {
                    buckets_[exact].push_back(i);
                }
            }
            if (work_since_rebuild_ > alive_count_ + 64) continue;  // rebuild + retry
            if (!candidates_.empty()) break;
            --cur_max_;
        }
        if (candidates_.empty()) return events_.size();  // no anchor (defensive)

        // The rescan collected ties in ascending anchor order; entries here
        // arrive in bucket (stack) order, so restore the event order before
        // consuming the tie-break stream.
        std::sort(candidates_.begin(), candidates_.end());
        std::size_t chosen = candidates_.front();
        if (candidates_.size() > 1) {
            chosen = candidates_[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(candidates_.size()) - 1))];
        }
        // Losing ties stay candidates for later rounds: put them back in
        // their bucket (their coverage is exact for this epoch and a valid
        // upper bound afterwards).  The chosen anchor goes back too; its
        // events die with its device, so the alive check drops it.
        for (const std::size_t i : candidates_) buckets_[cur_max_].push_back(i);
        return chosen;
    }

    /// Walks the chosen window and appends newly covered devices (in event
    /// order, first occurrence) to `out`, marking them in `covered`.
    void collect_window(std::size_t anchor, CoverageBitset& covered,
                        std::vector<std::uint32_t>& out) {
        const sim::SimTime limit = events_[anchor].at + window_;
        for (std::size_t j = anchor;
             j != events_.size() && events_[j].at <= limit; j = next_[j]) {
            ++work_since_rebuild_;
            const std::uint32_t d = events_[j].device;
            if (covered.test_and_set(d)) out.push_back(d);
        }
    }

    /// Marks the given devices covered; their events die in place (walks
    /// skip them, the next rebuild drops them from the list) and all cached
    /// coverages become stale upper bounds.  O(1) per device — nothing
    /// touches the event arrays here.
    void remove_devices(const std::vector<std::uint32_t>& devices) {
        for (const std::uint32_t d : devices) {
            device_dead_.set(d);
            alive_count_ -= dev_event_count_[d];
        }
        ++epoch_;
    }

private:
    [[nodiscard]] bool alive(std::size_t i) const noexcept {
        return !device_dead_.test(events_[i].device);
    }

    /// Exact current coverage of the window anchored at alive event `i`:
    /// distinct uncovered devices with an alive event in [t_i, t_i + TI].
    [[nodiscard]] std::size_t evaluate(std::size_t i) {
        const sim::SimTime limit = events_[i].at + window_;
        ++visit_;
        std::size_t distinct = 0;
        for (std::size_t j = i; j != events_.size() && events_[j].at <= limit;
             j = next_[j]) {
            ++work_since_rebuild_;
            const std::uint32_t d = events_[j].device;
            if (!device_dead_.test(d) && stamp_[d] != visit_) {
                stamp_[d] = visit_;
                ++distinct;
            }
        }
        return distinct;
    }

    /// Exact coverage of every alive anchor in one two-pointer sweep with
    /// incremental distinct-device counts (the rescan's inner loop), then
    /// rebucket everything.  The alive events are compacted into contiguous
    /// scratch first so the sweep runs over sequential memory, and the
    /// linked list is relinked over the survivors so later walks never
    /// revisit dead events.  O(alive).
    void rebuild() {
        for (std::vector<std::size_t>& b : buckets_) b.clear();
        const std::size_t sentinel = events_.size();
        scratch_events_.clear();
        scratch_index_.clear();
        for (std::size_t i = next_[sentinel]; i != sentinel; i = next_[i]) {
            if (device_dead_.test(events_[i].device)) continue;
            scratch_events_.push_back(events_[i]);
            scratch_index_.push_back(i);
        }
        std::size_t tail = sentinel;
        for (const std::size_t i : scratch_index_) {
            next_[tail] = i;
            prev_[i] = tail;
            tail = i;
        }
        next_[tail] = sentinel;
        prev_[sentinel] = tail;

        const std::size_t m = scratch_events_.size();
        std::size_t distinct = 0;
        std::size_t max_cov = 0;
        std::size_t j = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const sim::SimTime limit = scratch_events_[i].at + window_;
            while (j < m && scratch_events_[j].at <= limit) {
                if (count_in_window_[scratch_events_[j].device]++ == 0) ++distinct;
                ++j;
            }
            if (buckets_.size() <= distinct) buckets_.resize(distinct + 1);
            const std::size_t orig = scratch_index_[i];
            bucket_of_[orig] = distinct;
            eval_epoch_[orig] = epoch_;
            buckets_[distinct].push_back(orig);
            max_cov = std::max(max_cov, distinct);
            if (--count_in_window_[scratch_events_[i].device] == 0) --distinct;
        }
        cur_max_ = max_cov;
        work_since_rebuild_ = 0;
    }

    const std::vector<PoEvent>& events_;
    sim::SimTime window_;

    // Alive list over sorted event indices; events_.size() is the sentinel.
    std::vector<std::size_t> next_;
    std::vector<std::size_t> prev_;
    std::size_t alive_count_ = 0;

    // Lazy-evaluation state.
    std::vector<std::vector<std::size_t>> buckets_;
    std::vector<std::size_t> bucket_of_;
    std::vector<std::uint64_t> eval_epoch_;
    std::uint64_t epoch_ = 0;
    std::size_t cur_max_ = 0;
    std::size_t work_since_rebuild_ = 0;
    std::vector<std::size_t> candidates_;

    // Coverage state and scratch for evaluate()/rebuild().
    CoverageBitset device_dead_;
    std::vector<std::uint32_t> dev_event_count_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t visit_ = 0;
    std::vector<std::uint32_t> count_in_window_;
    std::vector<PoEvent> scratch_events_;
    std::vector<std::size_t> scratch_index_;
};

}  // namespace

WindowCoverResult greedy_window_cover(std::vector<PoEvent> events, sim::SimTime window,
                                      std::uint32_t device_count,
                                      sim::RandomStream& rng) {
    if (window < sim::SimTime{0}) {
        throw std::invalid_argument("greedy_window_cover: negative window");
    }
    for (const PoEvent& e : events) {
        if (e.device >= device_count) {
            throw std::invalid_argument("greedy_window_cover: device id out of range");
        }
    }
    sort_events(events);

    WindowCoverResult result;
    CoverageBitset seen(device_count);
    for (const PoEvent& e : events) seen.set(e.device);
    for (std::uint32_t d = 0; d < device_count; ++d) {
        if (!seen.test(d)) result.uncoverable.push_back(d);
    }

    CoverageBitset covered(device_count);

    // Dense phase: as long as each round retires a sizeable fraction of the
    // events (dense-cycle devices put a PO in almost every window, so early
    // windows cover them all at once), the rescan round is near optimal —
    // one contiguous sweep plus one compaction, both O(remaining).
    std::vector<std::uint32_t> scratch_counts(device_count, 0);
    std::vector<std::size_t> ties;
    ties.reserve(64);
    bool tail = false;
    while (!events.empty() && !tail) {
        const RoundBest best =
            best_window_round(events, window, rng, scratch_counts, ties);
        if (best.coverage == 0) break;  // defensive; events would be empty

        const sim::SimTime start = events[best.anchor].at;
        const sim::SimTime limit = start + window;
        CoverWindow chosen{start, limit, {}};
        chosen.devices.reserve(best.coverage);
        for (std::size_t k = best.anchor; k < events.size() && events[k].at <= limit;
             ++k) {
            const std::uint32_t d = events[k].device;
            if (covered.test_and_set(d)) chosen.devices.push_back(d);
        }
        result.windows.push_back(std::move(chosen));

        // Drop every event of a covered device.
        const std::size_t before = events.size();
        std::erase_if(events,
                      [&covered](const PoEvent& e) { return covered.test(e.device); });
        // Small removal: the long tail has begun — rounds now retire a few
        // sparse-cycle devices each, and rescanning everything per round
        // would dominate.  Hand the remaining events to the lazy greedy.
        tail = before - events.size() < before / 8;
    }

    if (!events.empty()) {
        LazyWindowGreedy greedy(events, window, device_count);
        while (!greedy.exhausted()) {
            const std::size_t anchor = greedy.choose_anchor(rng);
            if (anchor == events.size()) break;  // defensive

            const sim::SimTime start = events[anchor].at;
            CoverWindow chosen{start, start + window, {}};
            greedy.collect_window(anchor, covered, chosen.devices);
            greedy.remove_devices(chosen.devices);
            result.windows.push_back(std::move(chosen));
        }
    }
    return result;
}

SetCoverInstance to_set_cover_instance(const std::vector<PoEvent>& events,
                                       sim::SimTime window, std::uint32_t device_count) {
    std::vector<PoEvent> sorted = events;
    sort_events(sorted);

    std::vector<std::vector<Element>> sets;
    sets.reserve(sorted.size());
    std::size_t j = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (j < i) j = i;
        const sim::SimTime limit = sorted[i].at + window;
        while (j < sorted.size() && sorted[j].at <= limit) ++j;
        std::vector<Element> members;
        members.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) members.push_back(sorted[k].device);
        sets.push_back(std::move(members));
    }
    return SetCoverInstance{device_count, std::move(sets)};
}

}  // namespace nbmg::setcover
