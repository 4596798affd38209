#include "snapshot/codec.hpp"

#include <array>
#include <utility>

#include "telemetry/events.hpp"

namespace nbmg::snapshot {
namespace {

// Wire width of one put_sink trace record: at_ms, a, b (8 each), device
// (4), stratum (2), kind (1).
constexpr std::uint64_t kTraceRecordBytes = 31;

}  // namespace

void put_summary(Writer& w, const stats::Summary& summary) {
    const stats::Summary::State state = summary.state();
    w.put_u64(state.count);
    w.put_f64(state.mean);
    w.put_f64(state.m2);
    w.put_f64(state.min);
    w.put_f64(state.max);
}

void put_sink(Writer& w, const telemetry::CampaignSink& sink) {
    const std::vector<telemetry::TraceRecord>& records = sink.records();
    w.put_u64(records.size());
    for (const telemetry::TraceRecord& record : records) {
        w.put_i64(record.at_ms);
        w.put_i64(record.a);
        w.put_i64(record.b);
        w.put_u32(record.device);
        w.put_u16(record.stratum);
        w.put_u8(static_cast<std::uint8_t>(record.kind));
    }
    w.put_u64(telemetry::kEventKindCount);
    for (const std::uint64_t counter : sink.counters()) w.put_u64(counter);
    for (const telemetry::EventKind kind : telemetry::kBucketedKinds) {
        w.put_u64_vector(sink.series(kind));
    }
}

void restore_sink(Reader& r, telemetry::CampaignSink& sink) {
    const std::uint64_t record_count = r.take_count(kTraceRecordBytes);
    std::vector<telemetry::TraceRecord> records;
    records.reserve(record_count);
    for (std::uint64_t i = 0; i < record_count; ++i) {
        telemetry::TraceRecord record;
        record.at_ms = r.take_i64();
        record.a = r.take_i64();
        record.b = r.take_i64();
        record.device = r.take_u32();
        record.stratum = r.take_u16();
        const std::uint8_t kind = r.take_u8();
        if (kind >= telemetry::kEventKindCount) {
            throw SnapshotError("snapshot slot: trace event kind " +
                                std::to_string(kind) + " out of range");
        }
        record.kind = static_cast<telemetry::EventKind>(kind);
        records.push_back(record);
    }
    const std::uint64_t counter_count = r.take_u64();
    if (counter_count != telemetry::kEventKindCount) {
        throw SnapshotError("snapshot slot: counter table has " +
                            std::to_string(counter_count) + " entries, expected " +
                            std::to_string(telemetry::kEventKindCount));
    }
    std::array<std::uint64_t, telemetry::kEventKindCount> counters{};
    for (std::uint64_t k = 0; k < telemetry::kEventKindCount; ++k) {
        counters[k] = r.take_u64();
    }
    telemetry::CampaignSink::SeriesSet series;
    for (std::vector<std::uint64_t>& buckets : series) buckets = r.take_u64_vector();
    sink.restore(std::move(records), counters, std::move(series));
}

}  // namespace nbmg::snapshot
