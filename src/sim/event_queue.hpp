// Deterministic discrete-event queue for the NB-IoT cell simulator.
//
// Events scheduled for the same instant run in insertion order (FIFO
// tie-breaking), which makes every simulation bit-reproducible for a given
// seed.  Events are cancellable in O(1): handlers live in a slab of reusable
// slots addressed by {index, generation}, and a cancelled slot is simply
// freed (its queue entry is dropped lazily when it reaches the front,
// recognized by a stale generation).
//
// Handlers are stored with small-buffer optimization: callables up to
// InlineHandler::kInlineCapacity bytes (every lambda the simulator
// schedules) live inline in the slot; larger ones fall back to one heap
// allocation.
//
// Ordering is a binary radix heap on the integer millisecond clock: the
// queue entries are 16-byte {time, slot, generation} records, and bucket i
// (1..64) holds the entries whose time first differs from the radix base in
// bit i-1, bucket 0 those at the base itself.  Time never runs backwards,
// so entries only ever move to lower buckets, and every entry of one
// instant sits in the same bucket in scheduling order — FIFO at equal
// times is structural, with no sequence-number comparisons at all.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/small_function.hpp"

namespace nbmg::sim {

/// Simulated time.  One subframe of the NB-IoT air interface is 1 ms, so
/// millisecond resolution captures everything the model needs.
using SimTime = std::chrono::milliseconds;

/// Identifies a scheduled event so it can be cancelled before it fires.
/// `index` addresses a slab slot; `generation` distinguishes successive
/// occupants of the same slot, so a stale id can never cancel a newer
/// event that happens to reuse its storage.
struct EventId {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;

    friend bool operator==(EventId, EventId) = default;
};

/// Type-erased `void()` callable with inline storage for small targets.
/// Move-only; empty by default.  Targets larger than kInlineCapacity (or
/// over-aligned, or with a throwing move) are stored through one heap
/// allocation instead.
using InlineHandler = SmallFunction<void(), 48>;

/// Priority queue of timed events with a simulated clock.
///
/// Invariants:
///  - `now()` never decreases;
///  - events never fire earlier than their scheduled time;
///  - equal-time events fire in the order they were scheduled.
class EventQueue {
public:
    using Handler = InlineHandler;

    EventQueue() = default;
    explicit EventQueue(SimTime start) : now_(start), base_(start) {}

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Current simulated time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Schedules `handler` to run at absolute time `at`.  Scheduling in the
    /// past (before `now()`) is a programming error.
    EventId schedule_at(SimTime at, Handler handler);

    /// Schedules `handler` to run `delay` after the current time.
    EventId schedule_after(SimTime delay, Handler handler);

    /// Cancels a pending event in O(1).  Returns false if the event already
    /// fired, was already cancelled, or never existed.
    bool cancel(EventId id);

    /// Runs the earliest pending event.  Returns false when the queue is
    /// empty (time does not advance in that case).
    bool step();

    /// Runs every event scheduled strictly before or at `until`, then
    /// advances the clock to `until`.  Returns the number of events run.
    std::size_t run_until(SimTime until);

    /// Runs events until the queue drains or `max_events` have run.
    /// Returns the number of events run.
    std::size_t run_all(std::size_t max_events = kDefaultEventBudget);

    /// One live pending event as reported by pending_events().
    struct PendingEvent {
        EventId id;
        SimTime at{0};
        std::uint64_t seq = 0;  // global scheduling order

        friend bool operator==(const PendingEvent&, const PendingEvent&) = default;
    };

    /// Snapshot of every live (non-cancelled) event in deterministic slab
    /// order: ascending slot index, each live slot exactly once.  The order
    /// depends only on the scheduling history, never on bucket layout, so
    /// two queues built by the same call sequence report identical
    /// snapshots.  O(pending log pending) — introspection and serialization
    /// only, not for the hot loop.
    [[nodiscard]] std::vector<PendingEvent> pending_events() const;

    /// Number of pending (non-cancelled) events.
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

    [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

    /// Total events executed since construction (diagnostics).
    [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

    /// Default safety budget for run_all(); generous enough for every
    /// experiment in this repository, small enough to catch runaway loops.
    static constexpr std::size_t kDefaultEventBudget = 500'000'000;

private:
    /// One slab cell.  `seq == 0` marks the slot free; a live slot keeps
    /// the scheduling sequence number of its occupant for pending_events().
    struct Slot {
        Handler handler;
        std::uint64_t seq = 0;
        std::uint32_t generation = 0;
    };
    /// Queue entries carry no handler, so redistribution never touches
    /// handler storage.  An entry is live while its slot holds the same
    /// generation and is not free.
    struct Entry {
        SimTime at;
        std::uint32_t slot = 0;
        std::uint32_t generation = 0;
    };
    /// `min` is the least time pushed since the bucket was last emptied.
    /// It may belong to a cancelled entry, which still makes it a valid
    /// radix base: no entry lies before it.
    struct Bucket {
        std::vector<Entry> entries;
        SimTime min{0};
    };

    [[nodiscard]] std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index) noexcept;
    [[nodiscard]] bool live(const Entry& e) const noexcept {
        const Slot& slot = slots_[e.slot];
        return slot.seq != 0 && slot.generation == e.generation;
    }

    /// Files `e` into the bucket its time selects relative to base_.
    void push(const Entry& e);

    /// Drops stale entries off the front of bucket 0 and refills it from
    /// the lowest occupied bucket, never moving base_ past `limit`.
    /// Returns true when the front of bucket 0 is a live event due at or
    /// before `limit`.
    bool settle(SimTime limit);

    /// Pops and runs the settled front of bucket 0.
    void run_front();

    std::array<Bucket, 65> buckets_;  // bucket 0 plus one per bit of the key
    std::uint64_t occupied_ = 0;  // bit i-1 set: bucket i is non-empty
    std::size_t front_ = 0;       // next unread entry of bucket 0
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    SimTime now_{0};
    SimTime base_{0};  // radix base: <= now_, <= every queued entry
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
};

}  // namespace nbmg::sim
