#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace nbmg::sim {

std::uint32_t EventQueue::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t index = free_slots_.back();
        free_slots_.pop_back();
        return index;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
    Slot& slot = slots_[index];
    slot.handler.reset();
    slot.seq = 0;
    free_slots_.push_back(index);
    --pending_;
}

void EventQueue::push(const Entry& e) {
    // The highest bit in which the time differs from the base picks the
    // bucket.  Two's-complement XOR keeps this order-correct for negative
    // times too: a non-negative entry above a negative base differs in the
    // sign bit and lands in bucket 64, above every negative entry.
    const auto key = static_cast<std::uint64_t>(e.at.count()) ^
                     static_cast<std::uint64_t>(base_.count());
    const auto b = static_cast<std::size_t>(std::bit_width(key));
    Bucket& bucket = buckets_[b];
    if (b != 0) {
        const std::uint64_t bit = std::uint64_t{1} << (b - 1);
        if ((occupied_ & bit) == 0) {
            occupied_ |= bit;
            bucket.min = e.at;
        } else {
            bucket.min = std::min(bucket.min, e.at);
        }
    }
    bucket.entries.push_back(e);
}

EventId EventQueue::schedule_at(SimTime at, Handler handler) {
    if (at < now_) {
        throw std::logic_error("EventQueue::schedule_at: time in the past");
    }
    if (!handler) {
        throw std::invalid_argument("EventQueue::schedule_at: empty handler");
    }
    const std::uint32_t index = acquire_slot();
    Slot& slot = slots_[index];
    slot.handler = std::move(handler);
    slot.seq = next_seq_++;
    ++slot.generation;  // live ids always have generation >= 1
    ++pending_;
    push(Entry{at, index, slot.generation});
    return EventId{index, slot.generation};
}

EventId EventQueue::schedule_after(SimTime delay, Handler handler) {
    if (delay < SimTime{0}) {
        throw std::logic_error("EventQueue::schedule_after: negative delay");
    }
    return schedule_at(now_ + delay, std::move(handler));
}

bool EventQueue::cancel(EventId id) {
    // Ids of events that already fired point at a freed (seq == 0) or
    // reused (generation bumped) slot, so a stale cancel is a no-op.
    if (id.index >= slots_.size()) return false;
    Slot& slot = slots_[id.index];
    if (slot.seq == 0 || slot.generation != id.generation) return false;
    release_slot(id.index);  // the queue entry goes stale and is dropped later
    return true;
}

bool EventQueue::settle(SimTime limit) {
    std::vector<Entry>& front = buckets_[0].entries;
    for (;;) {
        // Liveness is checked only here, at the front: redistribution
        // never reads the slab.
        for (; front_ < front.size(); ++front_) {
            if (live(front[front_])) return base_ <= limit;
        }
        front.clear();
        front_ = 0;
        if (occupied_ == 0) {
            // Drained, perhaps past stale entries beyond now_: later
            // events may be due before the base reached here.
            base_ = now_;
            return false;
        }
        const auto b = static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
        Bucket& bucket = buckets_[b];
        if (bucket.min > limit) return false;
        // The new base shares every bit from b-1 up with the bucket's
        // entries, so each of them lands in a lower bucket and the walk
        // can read the bucket in place; its minimum lands in bucket 0.
        base_ = bucket.min;
        occupied_ &= occupied_ - 1;
        for (const Entry& e : bucket.entries) push(e);
        // A bucket keeps its storage for the next refill, since a
        // campaign's buckets empty and refill all run long; only one that
        // once held a queue far larger than today's is freed.
        if (bucket.entries.capacity() > 4 * pending_ + kKeptBucketEntries) {
            std::vector<Entry>().swap(bucket.entries);
        } else {
            bucket.entries.clear();
        }
    }
}

void EventQueue::run_front() {
    const Entry top = buckets_[0].entries[front_++];
    // Move the handler out before running it: the handler may schedule new
    // events, which can reuse this slot or grow the slab.
    Handler handler = std::move(slots_[top.slot].handler);
    release_slot(top.slot);
    now_ = top.at;
    ++executed_;
    handler();
}

bool EventQueue::step() {
    if (!settle(SimTime::max())) return false;
    run_front();
    return true;
}

std::size_t EventQueue::run_until(SimTime until) {
    std::size_t n = 0;
    for (; settle(until); ++n) run_front();
    if (now_ < until) now_ = until;
    return n;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
}

std::vector<EventQueue::PendingEvent> EventQueue::pending_events() const {
    std::vector<PendingEvent> live_events;
    live_events.reserve(pending_);
    // Each live slot has exactly one entry carrying its generation, so
    // collecting live entries visits every pending event once.
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const std::vector<Entry>& entries = buckets_[b].entries;
        for (std::size_t i = b == 0 ? front_ : 0; i < entries.size(); ++i) {
            const Entry& e = entries[i];
            if (!live(e)) continue;
            const Slot& slot = slots_[e.slot];
            live_events.push_back(
                PendingEvent{EventId{e.slot, slot.generation}, e.at, slot.seq});
        }
    }
    std::sort(live_events.begin(), live_events.end(),
              [](const PendingEvent& a, const PendingEvent& b) {
                  return a.id.index < b.id.index;
              });
    assert(live_events.size() == pending_);
    return live_events;
}

}  // namespace nbmg::sim
