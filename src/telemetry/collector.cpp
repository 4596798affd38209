#include "telemetry/collector.hpp"

#include <stdexcept>
#include <utility>

namespace nbmg::telemetry {

Collector::Collector(TelemetryConfig config, std::size_t runs, std::size_t cells,
                     std::vector<std::string> campaign_labels)
    : config_(config), runs_(runs), cells_(cells), labels_(std::move(campaign_labels)) {
    if (runs_ == 0 || cells_ == 0 || labels_.empty()) {
        throw std::invalid_argument("Collector: empty runs/cells/campaigns grid");
    }
    sinks_.assign(runs_ * cells_ * labels_.size(), CampaignSink{config_});
    city_sinks_.assign(runs_, CampaignSink{config_});
}

std::size_t Collector::index(std::size_t run, std::size_t cell,
                             std::size_t campaign) const {
    if (run >= runs_ || cell >= cells_ || campaign >= labels_.size()) {
        throw std::out_of_range("Collector: slot outside the grid");
    }
    return (run * cells_ + cell) * labels_.size() + campaign;
}

CampaignSink* Collector::sink(std::size_t run, std::size_t cell,
                              std::size_t campaign) {
    return &sinks_[index(run, cell, campaign)];
}

const CampaignSink& Collector::slot(std::size_t run, std::size_t cell,
                                    std::size_t campaign) const {
    return sinks_[index(run, cell, campaign)];
}

CampaignSink* Collector::city_sink(std::size_t run) {
    return &city_sinks_.at(run);
}

const CampaignSink& Collector::city_slot(std::size_t run) const {
    return city_sinks_.at(run);
}

std::size_t Collector::trace_records() const noexcept {
    std::size_t records = 0;
    for (const CampaignSink& sink : sinks_) records += sink.records().size();
    for (const CampaignSink& sink : city_sinks_) records += sink.records().size();
    return records;
}

}  // namespace nbmg::telemetry
