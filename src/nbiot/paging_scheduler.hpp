// eNB-side paging planner.
//
// Every paging occasion can carry at most `max_page_records` entries
// (PagingRecordList limit, default 16).  Grouping planners enqueue page
// requests here; when a PO is full the request is deferred to the device's
// next PO.  The table keeps one count per occupied occasion and nothing
// else: the planners record where each page landed, and the campaign
// runner counts the paging messages from the plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <optional>
// nbmg-lint: allow(unordered-iter) per-occasion counts, looked up and inserted only
#include <unordered_map>

#include "nbiot/paging.hpp"

namespace nbmg::telemetry {
class CampaignSink;
}  // namespace nbmg::telemetry

namespace nbmg::nbiot {

class PagingScheduler {
public:
    /// `devices` sizes the occupancy table and its arena: each planner
    /// places about one page per device.
    PagingScheduler(int max_page_records, std::size_t devices);

    /// Attaches a telemetry sink (not owned, may be null): every placed
    /// record/extension emits a page_scheduled event at its occasion time.
    void set_telemetry(telemetry::CampaignSink* sink) noexcept { telemetry_ = sink; }

    /// Pages `device` at its first PO at or after `not_before` with room
    /// left, deferring over full occasions.  Gives up once the PO would be
    /// at or past `deadline` and returns nullopt (the caller decides how to
    /// recover).  Returns the PO time actually used.
    std::optional<SimTime> enqueue_record(DeviceId device, const PoPhase& phase,
                                          SimTime not_before, SimTime deadline);

    /// Same placement rules, for the DR-SI `mltc-Transmission` extension
    /// (it takes a PO entry like a record).
    std::optional<SimTime> enqueue_mltc(DeviceId device, const PoPhase& phase,
                                        SimTime not_before, SimTime deadline);

    /// Places a record at exactly `po` (which must be a PO of the device);
    /// fails when the occasion is full.  Used for "last PO before X"
    /// placements that must not slip forward.
    bool try_enqueue_record_at(DeviceId device, const PoPhase& phase, SimTime po);

    /// Places a record at `po` without checking the TS 36.304 congruence.
    /// Needed for anchored adapted occasions (DA-SC, paper Fig. 5 model),
    /// whose positions are not formula-derived.  Fails when full.
    bool force_enqueue_record_at(DeviceId device, SimTime po);

private:
    std::optional<SimTime> find_slot(const PoPhase& phase, SimTime not_before,
                                     SimTime deadline) const;
    /// Adds one entry to the occasion at `po` (kind 0 record, 1 extension).
    void place(DeviceId device, SimTime po, std::uint32_t& occupancy, int kind);

    telemetry::CampaignSink* telemetry_ = nullptr;  // not owned; may be null
    int max_records_ = 0;
    // Entries per occasion, keyed by the PO in ms.  A uint32 holds any
    // positive `int` capacity.  The table only grows, so its nodes and
    // buckets come from a bump arena sized from `devices`: a few
    // allocations per scheduler instead of one per occupied occasion.
    std::pmr::monotonic_buffer_resource arena_;
    // nbmg-lint: allow(unordered-iter) looked up and inserted only, never iterated
    std::pmr::unordered_map<std::int64_t, std::uint32_t> occupancy_{&arena_};
};

}  // namespace nbmg::nbiot
