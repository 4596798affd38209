#include "telemetry/sink.hpp"

#include <utility>

namespace nbmg::telemetry {

namespace {

const std::vector<std::uint64_t> kEmptySeries;

/// Every kind's index into kBucketedKinds; kNoSeries for the kinds without
/// a series.
constexpr std::size_t kNoSeries = kBucketedKinds.size();
constexpr std::array<std::size_t, kEventKindCount> kSeriesIndex = [] {
    std::array<std::size_t, kEventKindCount> index{};
    index.fill(kNoSeries);
    for (std::size_t i = 0; i < kBucketedKinds.size(); ++i) {
        index[static_cast<std::size_t>(kBucketedKinds[i])] = i;
    }
    return index;
}();

std::size_t series_index(EventKind kind) noexcept {
    return kSeriesIndex[static_cast<std::size_t>(kind)];
}

}  // namespace

bool CampaignSink::bucketed(EventKind kind) noexcept {
    return series_index(kind) != kNoSeries;
}

const std::vector<std::uint64_t>& CampaignSink::series(EventKind kind) const {
    const std::size_t index = series_index(kind);
    return index == kNoSeries ? kEmptySeries : series_[index];
}

void CampaignSink::count(EventKind kind, std::int64_t at_ms) {
    ++counters_[static_cast<std::size_t>(kind)];
    const std::size_t index = series_index(kind);
    if (index == kNoSeries) return;
    std::vector<std::uint64_t>& buckets = series_[index];
    const std::int64_t clamped = at_ms < 0 ? 0 : at_ms;
    const auto bucket = static_cast<std::size_t>(clamped / config_.bucket_ms);
    if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
}

void CampaignSink::absorb(const CampaignSink& child) {
    records_.insert(records_.end(), child.records_.begin(), child.records_.end());
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
        counters_[k] += child.counters_[k];
    }
    for (std::size_t s = 0; s < series_.size(); ++s) {
        std::vector<std::uint64_t>& into = series_[s];
        const std::vector<std::uint64_t>& from = child.series_[s];
        if (into.size() < from.size()) into.resize(from.size(), 0);
        for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
    }
}

void CampaignSink::restore(std::vector<TraceRecord> records,
                           const std::array<std::uint64_t, kEventKindCount>& counters,
                           SeriesSet series) {
    records_ = std::move(records);
    counters_ = counters;
    series_ = std::move(series);
}

}  // namespace nbmg::telemetry
