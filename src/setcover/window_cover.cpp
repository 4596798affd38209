#include "setcover/window_cover.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "setcover/bitset.hpp"

namespace nbmg::setcover {
namespace {

/// (at, device) order.  It orders every event except exact duplicates,
/// which are interchangeable, so any correct sort yields the same array.
bool event_before(const PoEvent& a, const PoEvent& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.device < b.device;
}

/// `copies` back-to-back copies of one period of (time, device)-ordered
/// events, copy c shifted by c × `period`, read in place: virtual index
/// v = c × n + i is event i of copy c (n = events.size()).  The events span
/// less than `period`, so the virtual array is in (time, device) order too,
/// exactly the flat array a rescan of every copy would sort.
struct Repeated {
    const std::vector<PoEvent>& events;
    sim::SimTime period{0};
    std::size_t copies = 1;

    [[nodiscard]] std::size_t size() const noexcept { return events.size() * copies; }

    /// Time of virtual index v.
    [[nodiscard]] sim::SimTime at(std::size_t v) const noexcept {
        const std::size_t n = events.size();
        return events[v % n].at + period * static_cast<std::int64_t>(v / n);
    }

    /// Virtual index of the first boundary anchor: at least n, size() when
    /// there is none.  An anchor of a later copy covers exactly what its
    /// copy-0 twin covers unless its window, on the endless repetition,
    /// would reach the first event of copy `copies`; such a boundary anchor
    /// may cover less.  Anchor times grow with v, so the boundary anchors
    /// are a suffix of the array.
    [[nodiscard]] std::size_t boundary_begin(sim::SimTime window) const {
        const std::size_t n = events.size();
        const sim::SimTime first = events.front().at;
        for (std::size_t c = 1; c < copies; ++c) {
            // Event i of copy c is a boundary anchor when
            // at_i + c·period + window >= first + copies·period.
            const sim::SimTime need =
                period * static_cast<std::int64_t>(copies - c) - window;
            if (need <= sim::SimTime{0}) return c * n;
            if (need > events.back().at - first) continue;
            const auto it = std::lower_bound(
                events.begin(), events.end(), first + need,
                [](const PoEvent& e, sim::SimTime t) { return e.at < t; });
            return c * n + static_cast<std::size_t>(it - events.begin());
        }
        return size();
    }
};

/// Exact coverage of every anchor v in [first, last) of `rep`: one
/// two-pointer sweep with incremental distinct-device counts, the leading
/// pointer reading on into later copies but never past the last.  Each
/// pointer keeps its event index and its copy's shift in locals and steps
/// without dividing.  Calls visit(v, coverage) in anchor order.  `counts`
/// must be all-zero on entry and is all-zero again on return: every
/// increment the leading pointer applies, the trailing pointer (or the
/// final unwind) undoes, so the buffer never needs a per-round reset.
template <class Visit>
void sweep_coverage(const Repeated& rep, sim::SimTime window, std::size_t first,
                    std::size_t last, std::vector<std::uint32_t>& counts, Visit visit) {
    if (first >= last) return;
    const PoEvent* const events = rep.events.data();
    const std::size_t n = rep.events.size();
    const std::int64_t period = rep.period.count();
    std::uint32_t* const count = counts.data();
    std::size_t distinct = 0;
    // Anchor v is event i of its copy, shifted by `shift`; the leading
    // pointer is event j of copy `lead_copy`, shifted by `lead_shift`.
    std::size_t i = first % n;
    std::int64_t shift = period * static_cast<std::int64_t>(first / n);
    std::size_t j = i;
    std::size_t lead_copy = first / n;
    std::int64_t lead_shift = shift;
    for (std::size_t v = first; v < last; ++v) {
        // Window anchored at the anchor event: [at, at + window] inclusive.
        const std::int64_t limit = events[i].at.count() + shift + window.count();
        for (;;) {
            while (j < n && events[j].at.count() + lead_shift <= limit) {
                distinct += count[events[j].device]++ == 0;
                ++j;
            }
            if (j < n || lead_copy + 1 == rep.copies) break;
            j = 0;  // on into the next copy, never past the last
            ++lead_copy;
            lead_shift += period;
        }
        visit(v, distinct);
        // Slide: remove the anchor event before moving to the next one.
        distinct -= --count[events[i].device] == 0;
        if (++i == n) {
            i = 0;
            if (v + 1 < last) shift += period;  // never past the last copy
        }
    }
    for (std::size_t v = last; v < lead_copy * n + j; ++v) {
        --count[events[i].device];
        if (++i == n) i = 0;
    }
}

/// Draws a round's anchor from its ties in virtual-index order, the order a
/// rescan of the expanded array lists them in: each copy-0 tie i stands
/// for itself and its twins c·n + i below `boundary` (copy by copy), then
/// come the boundary ties.  Both spans ascend.  Draws from `rng` only when
/// there is more than one tie.
std::size_t draw_tie(std::span<const std::size_t> twinned,
                     std::span<const std::size_t> boundary_ties, std::size_t n,
                     std::size_t boundary, sim::RandomStream& rng) {
    const std::size_t t = twinned.size();
    const std::size_t shared =
        boundary / n * t +
        static_cast<std::size_t>(
            std::lower_bound(twinned.begin(), twinned.end(), boundary % n) -
            twinned.begin());
    const std::size_t total = shared + boundary_ties.size();
    std::size_t k = 0;
    if (total > 1) {
        k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    }
    return k < shared ? k / t * n + twinned[k % t] : boundary_ties[k - shared];
}

/// Best anchor of one greedy round: the anchor's virtual index and the
/// number of distinct devices its window covers.
struct RoundBest {
    std::size_t anchor = 0;
    std::size_t coverage = 0;
};

/// The seed implementation's round, folded: the anchor whose window covers
/// the most distinct devices, with uniform tie-breaking.  One sweep over
/// copy 0's anchors also scores every later copy's non-boundary anchors
/// (each covers what its twin covers); the boundary anchors get one short
/// sweep of their own and never beat their twins, so copy 0 holds the
/// maximum.  `ties` and `boundary_ties` are scratch.
RoundBest best_window_round(const Repeated& rep, sim::SimTime window,
                            sim::RandomStream& rng,
                            std::vector<std::uint32_t>& scratch_counts,
                            std::vector<std::size_t>& ties,
                            std::vector<std::size_t>& boundary_ties) {
    const std::size_t n = rep.events.size();
    RoundBest best;
    ties.clear();
    sweep_coverage(rep, window, 0, n, scratch_counts,
                   [&](std::size_t v, std::size_t coverage) {
                       if (coverage > best.coverage) {
                           best.coverage = coverage;
                           ties.assign(1, v);
                       } else if (coverage == best.coverage && coverage > 0) {
                           ties.push_back(v);
                       }
                   });
    const std::size_t boundary = rep.boundary_begin(window);
    boundary_ties.clear();
    sweep_coverage(rep, window, boundary, rep.size(), scratch_counts,
                   [&](std::size_t v, std::size_t coverage) {
                       if (coverage == best.coverage) boundary_ties.push_back(v);
                   });
    best.anchor = draw_tie(ties, boundary_ties, n, boundary, rng);
    return best;
}

/// Lazy-greedy tail state: once rounds stop removing large fractions of
/// the events, the full rescan's O(rounds x events) becomes the dominant
/// cost and this structure takes over.  Alive events (a frozen, sorted,
/// compacted period) form a linked list, which walks follow copy by copy.
/// The candidate window anchors are copy 0's alive events plus the
/// boundary anchors fixed at hand-over (the first alive event only moves
/// later, so no other anchor ever becomes one), each bucketed by its last
/// exactly evaluated coverage; a copy-0 anchor stands for its non-boundary
/// twins.  Coverage is monotone non-increasing as devices get covered, so
/// a bucket key is always a valid upper bound and a round only
/// re-evaluates anchors that could still hold or tie the maximum.
///
/// When a chosen window invalidates bounds wholesale (a dense-cycle device
/// appears in every window, so covering it stales every anchor at once),
/// laziness degenerates; a work counter detects that and amortizes it away
/// with one exact resweep (rebuild), so a lazy round never costs more than
/// a constant factor of a rescan round, and typical tail rounds cost far
/// less.  The greedy stops once every bucket above coverage 1 is empty:
/// the rounds left are the single-device tail's.
///
/// Trace contract (guarded by WindowCoverTraceTest): the chosen anchors,
/// their device lists, and the RNG consumption are bit-identical to the
/// full rescan.  That requires exhaustive tie re-evaluation — every anchor
/// whose bound equals the round's maximum is re-evaluated, and the
/// confirmed ties are drawn from in ascending virtual order, exactly as the
/// rescan enumerated them.
class LazyWindowGreedy {
public:
    LazyWindowGreedy(const Repeated& rep, sim::SimTime window, std::uint32_t device_count)
        : rep_(rep),
          n_(rep.events.size()),
          window_(window),
          boundary_(rep.boundary_begin(window)),
          next_(n_ + 1),
          bucket_of_(n_ + rep.size() - boundary_),
          eval_epoch_(bucket_of_.size(), 0),
          device_dead_(device_count),
          dev_anchors_(device_count, 0),
          stamp_(device_count, 0),
          count_in_window_(device_count, 0) {
        for (std::size_t i = 0; i <= n_; ++i) next_[i] = i + 1 <= n_ ? i + 1 : 0;
        for (const PoEvent& e : rep_.events) ++dev_anchors_[e.device];
        for (std::size_t v = boundary_; v < rep_.size(); ++v) {
            boundary_index_.push_back(v % n_);
            ++dev_anchors_[rep_.events[v % n_].device];
        }
        live_anchors_ = bucket_of_.size();
        rebuild();
    }

    [[nodiscard]] bool exhausted() const noexcept { return live_anchors_ == 0; }

    /// One greedy round: finds the maximum-coverage anchor (exhaustively
    /// re-evaluating every potential tie), breaks ties through `rng` exactly
    /// as the rescan did, and returns the chosen anchor's virtual index.
    /// Returns nullopt, drawing nothing, once no window covers two devices:
    /// the single-device tail takes the remaining rounds.
    [[nodiscard]] std::optional<std::size_t> choose_anchor(sim::RandomStream& rng) {
        candidates_.clear();
        while (cur_max_ > 1) {
            // Lazy demotion has spent more than one full-rescan's worth of
            // work since the bounds were last exact (wholesale staleness):
            // pay for one exact resweep and restart the round on clean
            // buckets, where the drain below finds the ties directly.
            if (work_since_rebuild_ > live_anchors_ + 64) {
                rebuild();
                candidates_.clear();
                continue;  // the exact maximum may be 1
            }
            std::vector<std::size_t>& bucket = buckets_[cur_max_];
            while (!bucket.empty() && work_since_rebuild_ <= live_anchors_ + 64) {
                const std::size_t v = bucket.back();
                bucket.pop_back();
                ++work_since_rebuild_;
                const std::size_t s = slot(v);
                if (!alive(v) || bucket_of_[s] != cur_max_) continue;  // stale copy
                if (eval_epoch_[s] == epoch_) {
                    // Evaluated since the last removal: the key is exact.
                    candidates_.push_back(v);
                    continue;
                }
                const std::size_t exact = evaluate(v);
                eval_epoch_[s] = epoch_;
                bucket_of_[s] = exact;
                if (exact == cur_max_) {
                    candidates_.push_back(v);
                } else {
                    buckets_[exact].push_back(v);
                }
            }
            if (work_since_rebuild_ > live_anchors_ + 64) continue;  // rebuild + retry
            if (!candidates_.empty()) break;
            --cur_max_;
        }
        if (candidates_.empty()) return std::nullopt;

        // The rescan collected ties in ascending anchor order; entries here
        // arrive in bucket (stack) order, so restore the virtual order
        // (copy-0 anchors, then boundary anchors) before drawing.
        std::sort(candidates_.begin(), candidates_.end());
        const auto copy0_end =
            std::lower_bound(candidates_.begin(), candidates_.end(), n_);
        const std::size_t chosen =
            draw_tie({candidates_.begin(), copy0_end}, {copy0_end, candidates_.end()},
                     n_, boundary_, rng);
        // Losing ties stay candidates for later rounds: put them back in
        // their bucket (their coverage is exact for this epoch and a valid
        // upper bound afterwards).  The chosen anchor (or its copy-0 twin)
        // goes back too; its events die with its device, so the alive check
        // drops it.
        for (const std::size_t v : candidates_) buckets_[cur_max_].push_back(v);
        return chosen;
    }

    /// Walks the chosen window and appends newly covered devices (in event
    /// order, first occurrence) to `out`, marking them in `covered`.
    void collect_window(std::size_t anchor, CoverageBitset& covered,
                        std::vector<std::uint32_t>& out) {
        walk(anchor, [&](std::uint32_t d) {
            if (covered.test_and_set(d)) out.push_back(d);
        });
    }

    /// Marks the given devices covered; their events die in place (walks
    /// skip them, the next rebuild drops them from the list) and all cached
    /// coverages become stale upper bounds.  O(1) per device — nothing
    /// touches the event arrays here.
    void remove_devices(const std::vector<std::uint32_t>& devices) {
        for (const std::uint32_t d : devices) {
            device_dead_.set(d);
            live_anchors_ -= dev_anchors_[d];
        }
        ++epoch_;
    }

private:
    /// Index into bucket_of_/eval_epoch_: copy-0 anchors first, then the
    /// boundary anchors.
    [[nodiscard]] std::size_t slot(std::size_t v) const noexcept {
        return v < n_ ? v : n_ + (v - boundary_);
    }

    [[nodiscard]] bool alive(std::size_t v) const noexcept {
        const std::size_t i = v < n_ ? v : boundary_index_[v - boundary_];
        return !device_dead_.test(rep_.events[i].device);
    }

    /// Calls visit(device) for every linked event in the window anchored at
    /// virtual index `v`, in order: along the alive list, on into the next
    /// copy at the list's end, never past the last copy.
    template <class Visit>
    void walk(std::size_t v, Visit visit) {
        std::size_t copy = v / n_;
        std::size_t i = v - copy * n_;
        sim::SimTime shift = rep_.period * static_cast<std::int64_t>(copy);
        const sim::SimTime limit = rep_.events[i].at + shift + window_;
        while (rep_.events[i].at + shift <= limit) {
            ++work_since_rebuild_;
            visit(rep_.events[i].device);
            i = next_[i];
            if (i == n_) {  // the sentinel: this copy's list ends here
                if (++copy == rep_.copies) break;
                shift += rep_.period;
                i = next_[n_];
            }
        }
    }

    /// Exact current coverage of the window anchored at alive virtual index
    /// `v`: distinct uncovered devices with an alive event in [t_v, t_v + TI].
    [[nodiscard]] std::size_t evaluate(std::size_t v) {
        ++visit_;
        std::size_t distinct = 0;
        walk(v, [&](std::uint32_t d) {
            if (!device_dead_.test(d) && stamp_[d] != visit_) {
                stamp_[d] = visit_;
                ++distinct;
            }
        });
        return distinct;
    }

    /// Exact coverage of every alive anchor in two two-pointer sweeps with
    /// incremental distinct-device counts (the rescan's inner loop): copy
    /// 0's anchors, then the alive boundary anchors; then rebucket
    /// everything.  The alive events are compacted into contiguous scratch
    /// first so the sweeps run over sequential memory, and the linked list
    /// is relinked over the survivors so later walks never revisit dead
    /// events.  O(alive).
    void rebuild() {
        for (std::vector<std::size_t>& b : buckets_) b.clear();
        scratch_events_.clear();
        scratch_index_.clear();
        for (std::size_t i = next_[n_]; i != n_; i = next_[i]) {
            if (device_dead_.test(rep_.events[i].device)) continue;
            scratch_events_.push_back(rep_.events[i]);
            scratch_index_.push_back(i);
        }
        std::size_t tail = n_;
        for (const std::size_t i : scratch_index_) {
            next_[tail] = i;
            tail = i;
        }
        next_[tail] = n_;

        const Repeated alive_rep{scratch_events_, rep_.period, rep_.copies};
        const std::size_t m = scratch_events_.size();
        std::size_t max_cov = 0;
        const auto place = [&](std::size_t v, std::size_t coverage) {
            if (buckets_.size() <= coverage) buckets_.resize(coverage + 1);
            bucket_of_[slot(v)] = coverage;
            eval_epoch_[slot(v)] = epoch_;
            buckets_[coverage].push_back(v);
            max_cov = std::max(max_cov, coverage);
        };
        sweep_coverage(alive_rep, window_, 0, m, count_in_window_,
                       [&](std::size_t k, std::size_t coverage) {
                           place(scratch_index_[k], coverage);
                       });
        // The alive boundary anchors, from the boundary's copy on: in that
        // copy, the survivors at or past its index; every one after it.
        const std::size_t from =
            boundary_ / n_ * m +
            static_cast<std::size_t>(std::lower_bound(scratch_index_.begin(),
                                                      scratch_index_.end(),
                                                      boundary_ % n_) -
                                     scratch_index_.begin());
        sweep_coverage(alive_rep, window_, from, alive_rep.size(), count_in_window_,
                       [&](std::size_t k, std::size_t coverage) {
                           place(k / m * n_ + scratch_index_[k % m], coverage);
                       });
        cur_max_ = max_cov;
        work_since_rebuild_ = 0;
    }

    const Repeated& rep_;
    std::size_t n_ = 0;  // events per copy; also the list's sentinel
    sim::SimTime window_;
    std::size_t boundary_ = 0;  // first boundary anchor's virtual index (>= n_)
    std::vector<std::size_t> boundary_index_;  // boundary anchor -> event index

    // Alive list over the period's sorted event indices (singly linked:
    // walks only go forward, and a rebuild relinks it whole).
    std::vector<std::size_t> next_;
    std::size_t live_anchors_ = 0;

    // Lazy-evaluation state, per anchor slot; buckets hold virtual indices.
    std::vector<std::vector<std::size_t>> buckets_;
    std::vector<std::size_t> bucket_of_;
    std::vector<std::uint64_t> eval_epoch_;
    std::uint64_t epoch_ = 0;
    std::size_t cur_max_ = 0;
    std::size_t work_since_rebuild_ = 0;
    std::vector<std::size_t> candidates_;

    // Coverage state and scratch for evaluate()/rebuild().
    CoverageBitset device_dead_;
    std::vector<std::uint32_t> dev_anchors_;  // a device's events + boundary anchors
    std::vector<std::uint64_t> stamp_;
    std::uint64_t visit_ = 0;
    std::vector<std::uint32_t> count_in_window_;
    std::vector<PoEvent> scratch_events_;
    std::vector<std::size_t> scratch_index_;
};

/// The single-device tail: the rounds left once the best window covers
/// one device.  Every alive anchor's window then holds its own device's
/// events only (coverage is at least 1 and at most the maximum), so each
/// round ties every alive anchor and covers the drawn anchor's device.
/// The alive anchors, in virtual order, are copy by copy the period's t
/// alive events, so tie k is copy k / t's (k mod t)-th alive event: where
/// draw_tie's shared/boundary split sends k too, since the boundary
/// anchors are the alive events from the boundary's virtual index on.  An
/// order-statistic (Fenwick) tree over the period's alive events answers a
/// round in O(log n), and per-device event lists retire a covered device's
/// events.  The draw is the rescan's rng.uniform_int(0, total - 1) over the
/// copies × t ties, made only when there is more than one.
void cover_single_device_tail(const Repeated& rep, sim::SimTime window,
                              const CoverageBitset& covered, sim::RandomStream& rng,
                              std::vector<CoverWindow>& windows) {
    const std::vector<PoEvent>& events = rep.events;
    const std::size_t n = events.size();
    // tree[k] counts the alive events among indices [k - lowbit(k), k).
    std::vector<std::uint32_t> tree(n + 1, 0);
    // Each alive device's events: first[d] counts them, then (prefix sums)
    // ends them, then (the back-to-front scatter) starts them.
    std::vector<std::uint32_t> first(covered.size() + 1, 0);
    std::size_t alive = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (covered.test(events[i].device)) continue;
        tree[i + 1] = 1;
        ++first[events[i].device];
        ++alive;
    }
    if (alive == 0) return;
    for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t up = k + (k & (~k + 1));
        if (up <= n) tree[up] += tree[k];
    }
    std::inclusive_scan(first.begin(), first.end(), first.begin());
    std::vector<std::uint32_t> of_device(alive);
    for (std::size_t i = n; i-- > 0;) {
        if (!covered.test(events[i].device)) {
            of_device[--first[events[i].device]] = static_cast<std::uint32_t>(i);
        }
    }

    const std::size_t top = std::bit_floor(n);
    while (alive > 0) {
        const std::size_t total = rep.copies * alive;
        std::size_t k = 0;
        if (total > 1) {
            k = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
        }
        // The (k mod alive)-th alive event: the longest prefix holding at
        // most that many alive events ends right before it.
        std::size_t i = 0;
        std::size_t rank = k % alive;
        for (std::size_t step = top; step > 0; step >>= 1) {
            if (i + step <= n && tree[i + step] <= rank) {
                i += step;
                rank -= tree[i];
            }
        }
        const std::uint32_t d = events[i].device;
        const sim::SimTime start =
            events[i].at + rep.period * static_cast<std::int64_t>(k / alive);
        windows.push_back(CoverWindow{start, start + window, {d}});
        for (std::uint32_t e = first[d]; e < first[d + 1]; ++e) {
            for (std::size_t x = of_device[e] + 1; x <= n; x += x & (~x + 1)) --tree[x];
        }
        alive -= first[d + 1] - first[d];
    }
}

/// The events' earliest and latest times (lo > hi for no events), and
/// whether they already come in (time, device) order.
struct EventScan {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    bool ordered = true;
};

/// Checks the window and the device ids, and scans the events' times and
/// order in the same pass.
EventScan check_events(const std::vector<PoEvent>& events, sim::SimTime window,
                       std::uint32_t device_count) {
    if (window < sim::SimTime{0}) {
        throw std::invalid_argument("greedy_window_cover: negative window");
    }
    EventScan scan;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const PoEvent& e = events[i];
        if (e.device >= device_count) {
            throw std::invalid_argument("greedy_window_cover: device id out of range");
        }
        scan.lo = std::min(scan.lo, e.at.count());
        scan.hi = std::max(scan.hi, e.at.count());
        if (i > 0 && event_before(e, events[i - 1])) scan.ordered = false;
    }
    return scan;
}

/// Checks for `caller` that the latest window, anchored at the last copy's
/// latest event (`hi` shifted by `shift`), ends inside SimTime: every time
/// the window sweeps compute is then representable.
void check_window_end(const char* caller, std::int64_t hi, std::int64_t shift,
                      sim::SimTime window) {
    std::int64_t end = 0;
    if (__builtin_add_overflow(hi, shift, &end) ||
        __builtin_add_overflow(end, window.count(), &end)) {
        throw std::invalid_argument(std::string(caller) +
                                    ": the last window ends past the largest SimTime");
    }
}

/// The greedy over `copies` copies of `events` (one period, sorted).
WindowCoverResult cover_sorted(std::vector<PoEvent> events, sim::SimTime period,
                               std::size_t copies, sim::SimTime window,
                               std::uint32_t device_count, sim::RandomStream& rng) {
    WindowCoverResult result;
    CoverageBitset seen(device_count);
    for (const PoEvent& e : events) seen.set(e.device);
    for (std::uint32_t d = 0; d < device_count; ++d) {
        if (!seen.test(d)) result.uncoverable.push_back(d);
    }

    CoverageBitset covered(device_count);
    const Repeated rep{events, period, copies};

    // Dense phase: as long as each round retires a sizeable fraction of the
    // events (dense-cycle devices put a PO in almost every window, so early
    // windows cover them all at once), the rescan round is near optimal —
    // two contiguous sweeps plus one compaction, all O(remaining period).
    std::vector<std::uint32_t> scratch_counts(device_count, 0);
    std::vector<std::size_t> ties;
    std::vector<std::size_t> boundary_ties;
    ties.reserve(64);
    bool lazy = false;
    bool single = false;  // no window covers two devices any more
    while (!events.empty() && !lazy && !single) {
        const RoundBest best =
            best_window_round(rep, window, rng, scratch_counts, ties, boundary_ties);

        const sim::SimTime start = rep.at(best.anchor);
        const sim::SimTime limit = start + window;
        CoverWindow chosen{start, limit, {}};
        chosen.devices.reserve(best.coverage);
        for (std::size_t v = best.anchor; v < rep.size() && rep.at(v) <= limit; ++v) {
            const std::uint32_t d = events[v % events.size()].device;
            if (covered.test_and_set(d)) chosen.devices.push_back(d);
        }
        result.windows.push_back(std::move(chosen));
        single = best.coverage == 1;

        // Drop every event of a covered device (from every copy at once).
        const std::size_t before = events.size();
        std::erase_if(events,
                      [&covered](const PoEvent& e) { return covered.test(e.device); });
        // Small removal: the long tail has begun — rounds now retire a few
        // sparse-cycle devices each, and rescanning everything per round
        // would dominate.  Hand the remaining events to the lazy greedy.
        // The test counts every copy's events, as the expanded rescan did.
        lazy = copies * (before - events.size()) < copies * before / 8;
    }

    if (!events.empty() && !single) {
        LazyWindowGreedy greedy(rep, window, device_count);
        while (!greedy.exhausted()) {
            const std::optional<std::size_t> anchor = greedy.choose_anchor(rng);
            if (!anchor) {
                single = true;
                break;
            }
            const sim::SimTime start = rep.at(*anchor);
            CoverWindow chosen{start, start + window, {}};
            greedy.collect_window(*anchor, covered, chosen.devices);
            greedy.remove_devices(chosen.devices);
            result.windows.push_back(std::move(chosen));
        }
    }
    if (single) cover_single_device_tail(rep, window, covered, rng, result.windows);
    return result;
}

}  // namespace

WindowCoverResult greedy_window_cover(std::vector<PoEvent> period_events,
                                      sim::SimTime period, std::uint32_t copies,
                                      sim::SimTime window, std::uint32_t device_count,
                                      sim::RandomStream& rng) {
    if (copies == 0) throw std::invalid_argument("greedy_window_cover: zero copies");
    const EventScan scan = check_events(period_events, window, device_count);
    // The span in unsigned arithmetic, so any two SimTimes subtract.
    const std::uint64_t span =
        period_events.empty()
            ? 0
            : static_cast<std::uint64_t>(scan.hi) - static_cast<std::uint64_t>(scan.lo);
    if (period <= sim::SimTime{0} || span >= static_cast<std::uint64_t>(period.count())) {
        throw std::invalid_argument(
            "greedy_window_cover: the events must span less than the (positive) period");
    }
    std::int64_t shift = 0;
    if (__builtin_mul_overflow(period.count(), std::int64_t{copies} - 1, &shift)) {
        throw std::invalid_argument(
            "greedy_window_cover: the last copy starts past the largest SimTime");
    }
    if (!period_events.empty()) {
        check_window_end("greedy_window_cover", scan.hi, shift, window);
    }
    if (!scan.ordered) std::sort(period_events.begin(), period_events.end(), event_before);
    return cover_sorted(std::move(period_events), period, copies, window, device_count,
                        rng);
}

WindowCoverResult greedy_window_cover(std::vector<PoEvent> events, sim::SimTime window,
                                      std::uint32_t device_count,
                                      sim::RandomStream& rng) {
    const EventScan scan = check_events(events, window, device_count);
    if (!events.empty()) check_window_end("greedy_window_cover", scan.hi, 0, window);
    if (!scan.ordered) std::sort(events.begin(), events.end(), event_before);
    // One copy: the period is never read.
    return cover_sorted(std::move(events), sim::SimTime{0}, 1, window, device_count, rng);
}

SetCoverInstance to_set_cover_instance(const std::vector<PoEvent>& events,
                                       sim::SimTime window, std::uint32_t device_count) {
    if (!events.empty()) {
        const auto latest = std::max_element(
            events.begin(), events.end(),
            [](const PoEvent& a, const PoEvent& b) { return a.at < b.at; });
        check_window_end("to_set_cover_instance", latest->at.count(), 0, window);
    }
    std::vector<PoEvent> sorted = events;
    std::sort(sorted.begin(), sorted.end(), event_before);

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
