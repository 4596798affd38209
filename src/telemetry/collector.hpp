// Slot-addressed telemetry collector for a whole scenario run.
//
// The collector pre-allocates one CampaignSink per (run, cell, campaign)
// slot — campaign 0 is the unicast reference, campaign m+1 the m-th
// requested mechanism — plus one city-level sink per run for the
// coordinator's backhaul feed.  Sink addresses are stable for the
// collector's lifetime, and the sweep engine executes each (run, cell)
// grid point in exactly one task, so parallel campaigns write disjoint
// slots with no locking.  Exporters iterate the slots in
// run-major -> cell -> campaign order, which makes every exported artifact
// a pure function of (spec, seed) — never of --threads.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"

namespace nbmg::telemetry {

class Collector {
public:
    /// `campaign_labels` names the per-(run, cell) campaigns in slot order
    /// (index 0 = unicast reference).  Throws std::invalid_argument when
    /// any dimension is zero.
    Collector(TelemetryConfig config, std::size_t runs, std::size_t cells,
              std::vector<std::string> campaign_labels);

    [[nodiscard]] const TelemetryConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t runs() const noexcept { return runs_; }
    [[nodiscard]] std::size_t cells() const noexcept { return cells_; }
    [[nodiscard]] std::size_t campaigns() const noexcept { return labels_.size(); }
    [[nodiscard]] const std::string& label(std::size_t campaign) const {
        return labels_.at(campaign);
    }

    /// Mutable sink of one campaign slot; the address is stable.
    [[nodiscard]] CampaignSink* sink(std::size_t run, std::size_t cell,
                                     std::size_t campaign);
    [[nodiscard]] const CampaignSink& slot(std::size_t run, std::size_t cell,
                                           std::size_t campaign) const;

    /// Per-run city-level sink (coordinator backhaul feed; records use the
    /// device field as the cell index).
    [[nodiscard]] CampaignSink* city_sink(std::size_t run);
    [[nodiscard]] const CampaignSink& city_slot(std::size_t run) const;

    /// Trace records held by every slot, the city slots included: the line
    /// count of the rendered trace.
    [[nodiscard]] std::size_t trace_records() const noexcept;

private:
    [[nodiscard]] std::size_t index(std::size_t run, std::size_t cell,
                                    std::size_t campaign) const;

    TelemetryConfig config_;
    std::size_t runs_ = 0;
    std::size_t cells_ = 0;
    std::vector<std::string> labels_;
    std::vector<CampaignSink> sinks_;       // run-major, then cell, then campaign
    std::vector<CampaignSink> city_sinks_;  // one per run
};

}  // namespace nbmg::telemetry
