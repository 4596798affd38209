// Parallel sweep engine for experiment campaigns.
//
// A campaign sweep is an embarrassingly parallel grid of `points x runs`
// independent executions: every cell derives its own RNG streams from the
// root seed via sim::derive_seed, so cells can run on any thread in any
// order.  The engine fans cells across a worker pool, stores each result in
// its index-addressed slot, and reduces the slots **in index order** on the
// calling thread — aggregates are therefore bit-identical regardless of the
// thread count (floating-point reduction order never changes).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace nbmg::core {

/// Resolves a requested worker count: 0 means "one per hardware thread",
/// anything else is taken literally.  Always returns >= 1.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// Fork-join worker pool over an indexed task space.  Indices are handed
/// out dynamically (atomic counter), so uneven cells load-balance; results
/// must be written to per-index slots to stay deterministic.
class WorkerPool {
public:
    /// `threads` as accepted by resolve_threads.
    explicit WorkerPool(std::size_t threads = 0)
        : threads_(resolve_threads(threads)) {}

    /// Invokes fn(i) exactly once for every i in [0, count) and blocks until
    /// all invocations finish.  Runs inline when a single worker suffices.
    /// The first exception thrown by any task is rethrown on the caller.
    void run(std::size_t count, const std::function<void(std::size_t)>& fn) const;

private:
    std::size_t threads_ = 1;
};

/// Runs fn(i) for every i in [0, count) across `threads` workers and
/// returns the results ordered by index.
template <typename Fn>
[[nodiscard]] auto sweep_indexed(std::size_t count, std::size_t threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
    using Result = decltype(fn(std::size_t{0}));
    // std::vector<bool> packs bits, so concurrent writes to distinct
    // indices would race; return a struct or int instead.
    static_assert(!std::is_same_v<Result, bool>,
                  "sweep_indexed cannot return bool (vector<bool> slots share words)");
    std::vector<Result> results(count);
    const WorkerPool pool(threads);
    pool.run(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

/// Two-level sweep: fans the full `points x runs` grid over one pool (cells
/// of different points interleave freely), then reduces each point's runs
/// in run order via `reduce(point, span_of_run_results)`.
template <typename RunFn, typename ReduceFn>
[[nodiscard]] auto sweep_points(std::size_t points, std::size_t runs,
                                std::size_t threads, RunFn&& run_fn,
                                ReduceFn&& reduce) {
    using RunResult = decltype(run_fn(std::size_t{0}, std::size_t{0}));
    using PointResult =
        decltype(reduce(std::size_t{0}, std::span<const RunResult>{}));
    std::vector<RunResult> cells(points * runs);
    const WorkerPool pool(threads);
    pool.run(points * runs,
             [&](std::size_t cell) { cells[cell] = run_fn(cell / runs, cell % runs); });
    std::vector<PointResult> out;
    out.reserve(points);
    for (std::size_t p = 0; p < points; ++p) {
        out.push_back(
            reduce(p, std::span<const RunResult>(cells.data() + p * runs, runs)));
    }
    return out;
}

}  // namespace nbmg::core
