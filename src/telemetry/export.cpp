#include "telemetry/export.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "multicell/coordinator.hpp"

#if !defined(__cpp_lib_string_resize_and_overwrite)
#error "trace_jsonl needs std::string::resize_and_overwrite (C++23 standard library)"
#endif

namespace nbmg::telemetry {
namespace {

void append_escaped(std::string& out, const std::string& text) {
    for (const char ch : text) {
        if (ch == '"' || ch == '\\') out.push_back('\\');
        out.push_back(ch);
    }
}

/// One trace_event "complete" slice; Chrome timestamps are microseconds.
void append_slice(std::string& out, std::size_t pid, std::int64_t tid,
                  const std::string& name, std::int64_t start_ms,
                  std::int64_t duration_ms, std::int64_t devices) {
    out += "  {\"ph\":\"X\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"";
    append_escaped(out, name);
    out += "\",\"ts\":";
    out += std::to_string(start_ms * 1000);
    out += ",\"dur\":";
    out += std::to_string(duration_ms * 1000);
    out += ",\"args\":{\"devices\":";
    out += std::to_string(devices);
    out += "}},\n";
}

void append_thread_name(std::string& out, std::size_t pid, std::int64_t tid,
                        const std::string& name) {
    out += "  {\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, name);
    out += "\"}},\n";
}

// --- JSONL trace: every line is
// {"run":R,"cell":C,"campaign":"L","stratum":S,"at":T,"kind":"K","device":D,"a":A,"b":B}
// with the stratum and device sentinels printed as -1.

/// Trace records per work item of the render.  A constant, so the cut
/// never depends on the thread count, and small enough that one slot of a
/// single-cell trace still spreads over the pool.
constexpr std::size_t kRangeRecords = std::size_t{1} << 15;

constexpr std::string_view kCityCampaign = ",\"campaign\":\"coordinator\",\"stratum\":";
constexpr std::string_view kAt = ",\"at\":";
constexpr std::string_view kKind = ",\"kind\":\"";
constexpr std::string_view kDevice = "\",\"device\":";
constexpr std::string_view kA = ",\"a\":";
constexpr std::string_view kB = ",\"b\":";
constexpr std::string_view kLineEnd = "}\n";
constexpr std::size_t kLiteralBytes = kAt.size() + kKind.size() + kDevice.size() +
                                      kA.size() + kB.size() + kLineEnd.size();

std::int64_t stratum_field(const TraceRecord& record) {
    return record.stratum == kNoStratum ? -1 : std::int64_t{record.stratum};
}

/// Also the cell of a city-level record.
std::int64_t device_field(const TraceRecord& record) {
    return record.device == kNoDevice ? -1 : std::int64_t{record.device};
}

constexpr auto kPowersOf10 = [] {
    std::array<std::uint64_t, 20> powers{};
    std::uint64_t power = 1;
    for (std::uint64_t& entry : powers) {
        entry = power;
        power *= 10;  // wraps once, past the last entry (10^19)
    }
    return powers;
}();

/// Characters std::to_chars writes for `value`.
std::size_t decimal_width(std::int64_t value) {
    // The magnitude in unsigned arithmetic, so INT64_MIN has one.  Setting
    // the low bit moves no magnitude across a power of ten and makes 0
    // count as one digit.
    const std::uint64_t magnitude =
        (value < 0 ? 0 - static_cast<std::uint64_t>(value) : static_cast<std::uint64_t>(value)) |
        1;
    // bit_width * log10(2), in 12-bit fixed point, is floor(log10) or one more.
    const auto log10 = static_cast<std::size_t>((std::bit_width(magnitude) * 1233) >> 12);
    const std::size_t digits = log10 + (magnitude >= kPowersOf10[log10] ? 1 : 0);
    return digits + (value < 0 ? 1 : 0);
}

/// One non-empty sink, in file order.
struct TraceSlot {
    std::span<const TraceRecord> records;
    std::size_t first = 0;  // index of records[0] in the whole trace
    /// The line up to the stratum value; a city slot's stops after "cell":,
    /// because its records carry the cell in the device field.
    std::string head;
    bool city = false;
};

std::size_t line_bytes(const TraceSlot& slot, const TraceRecord& record) {
    std::size_t bytes = slot.head.size() + kLiteralBytes +
                        std::string_view{to_string(record.kind)}.size() +
                        decimal_width(stratum_field(record)) +
                        decimal_width(record.at_ms) + decimal_width(device_field(record)) +
                        decimal_width(record.a) + decimal_width(record.b);
    if (slot.city) bytes += decimal_width(device_field(record)) + kCityCampaign.size();
    return bytes;
}

/// Writes lines into one range's share of the output.  Every write is
/// bounded by the share's end, so a width that disagrees with line_bytes
/// throws instead of writing into a neighbouring range.
class LineWriter {
public:
    LineWriter(char* begin, char* end) : next_(begin), end_(end) {}

    void line(const TraceSlot& slot, const TraceRecord& record) {
        text(slot.head);
        if (slot.city) {
            number(device_field(record));
            text(kCityCampaign);
        }
        number(stratum_field(record));
        text(kAt);
        number(record.at_ms);
        text(kKind);
        text(to_string(record.kind));
        text(kDevice);
        number(device_field(record));
        text(kA);
        number(record.a);
        text(kB);
        number(record.b);
        text(kLineEnd);
    }

    [[nodiscard]] bool at_end() const noexcept { return next_ == end_; }

private:
    void text(std::string_view bytes) {
        if (static_cast<std::size_t>(end_ - next_) < bytes.size()) overflow();
        std::memcpy(next_, bytes.data(), bytes.size());
        next_ += bytes.size();
    }

    void number(std::int64_t value) {
        const std::to_chars_result written = std::to_chars(next_, end_, value);
        if (written.ec != std::errc{}) overflow();
        next_ = written.ptr;
    }

    [[noreturn]] static void overflow() {
        throw std::logic_error("trace_jsonl: a record range outgrew its measured width");
    }

    char* next_ = nullptr;
    char* end_ = nullptr;
};

/// Calls fn(slot, record) for the records [lo, hi) of the trace, in order.
template <typename Fn>
void for_each_record(const std::vector<TraceSlot>& slots, std::size_t lo, std::size_t hi,
                     Fn&& fn) {
    auto slot = std::upper_bound(slots.begin(), slots.end(), lo,
                                 [](std::size_t n, const TraceSlot& s) { return n < s.first; });
    for (--slot; lo < hi; ++slot) {
        const std::size_t end = std::min(slot->records.size(), hi - slot->first);
        for (std::size_t i = lo - slot->first; i < end; ++i) fn(*slot, slot->records[i]);
        lo = slot->first + end;
    }
}

}  // namespace

std::string trace_jsonl(const Collector& collector, std::size_t threads) {
    std::vector<TraceSlot> slots;
    std::size_t records = 0;
    const auto add = [&](const CampaignSink& sink, std::string head, bool city) {
        slots.push_back(TraceSlot{sink.records(), records, std::move(head), city});
        records += sink.records().size();
    };
    for (std::size_t run = 0; run < collector.runs(); ++run) {
        const std::string run_head = "{\"run\":" + std::to_string(run) + ",\"cell\":";
        for (std::size_t cell = 0; cell < collector.cells(); ++cell) {
            for (std::size_t k = 0; k < collector.campaigns(); ++k) {
                const CampaignSink& sink = collector.slot(run, cell, k);
                if (sink.records().empty()) continue;
                std::string head = run_head + std::to_string(cell) + ",\"campaign\":\"";
                append_escaped(head, collector.label(k));
                head += "\",\"stratum\":";
                add(sink, std::move(head), false);
            }
        }
        // City-level records follow the run's campaign slots.
        const CampaignSink& city = collector.city_slot(run);
        if (!city.records().empty()) add(city, run_head, true);
    }

    const std::size_t ranges = (records + kRangeRecords - 1) / kRangeRecords;
    const auto range_end = [&](std::size_t range) {
        return std::min((range + 1) * kRangeRecords, records);
    };
    const core::WorkerPool pool(threads);

    // Pass 1: the exact bytes of every range; their prefix sums place the
    // ranges in the one output buffer.
    std::vector<std::size_t> offsets(ranges + 1, 0);
    pool.run(ranges, [&](std::size_t range) {
        std::size_t bytes = 0;
        for_each_record(slots, range * kRangeRecords, range_end(range),
                        [&](const TraceSlot& slot, const TraceRecord& record) {
                            bytes += line_bytes(slot, record);
                        });
        offsets[range + 1] = bytes;
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

    // Pass 2: every range writes its lines at its offset and must end
    // exactly where the next range begins.  The buffer is never zero-filled:
    // pass 2's workers are the first to touch its pages.  The operation
    // must not throw, so a failure (a range check, a thread that would not
    // start) empties the string and is rethrown after it.
    std::string out;
    std::exception_ptr error;
    out.resize_and_overwrite(offsets.back(), [&](char* data, std::size_t size) noexcept {
        try {
            pool.run(ranges, [&](std::size_t range) {
                LineWriter writer(data + offsets[range], data + offsets[range + 1]);
                for_each_record(slots, range * kRangeRecords, range_end(range),
                                [&](const TraceSlot& slot, const TraceRecord& record) {
                                    writer.line(slot, record);
                                });
                if (!writer.at_end()) {
                    throw std::logic_error(
                        "trace_jsonl: a record range ended short of its measured width");
                }
            });
        } catch (...) {
            error = std::current_exception();
            return std::size_t{0};
        }
        return size;
    });
    if (error) std::rethrow_exception(error);
    return out;
}

stats::Table metrics_table(const Collector& collector) {
    stats::Table table({"campaign", "metric", "window_start_ms", "value"});
    const std::int64_t bucket_ms = collector.config().bucket_ms;
    for (std::size_t k = 0; k < collector.campaigns(); ++k) {
        std::array<std::uint64_t, kEventKindCount> counters{};
        std::vector<std::vector<std::uint64_t>> series(kEventKindCount);
        for (std::size_t run = 0; run < collector.runs(); ++run) {
            for (std::size_t cell = 0; cell < collector.cells(); ++cell) {
                const CampaignSink& sink = collector.slot(run, cell, k);
                for (std::size_t e = 0; e < kEventKindCount; ++e) {
                    counters[e] += sink.counters()[e];
                    const auto kind = static_cast<EventKind>(e);
                    if (!CampaignSink::bucketed(kind)) continue;
                    const std::vector<std::uint64_t>& buckets = sink.series(kind);
                    if (series[e].size() < buckets.size()) {
                        series[e].resize(buckets.size(), 0);
                    }
                    for (std::size_t i = 0; i < buckets.size(); ++i) {
                        series[e][i] += buckets[i];
                    }
                }
            }
        }
        for (std::size_t e = 0; e < kEventKindCount; ++e) {
            const auto kind = static_cast<EventKind>(e);
            table.add_row({collector.label(k), to_string(kind), "-",
                           std::to_string(counters[e])});
        }
        for (std::size_t e = 0; e < kEventKindCount; ++e) {
            const auto kind = static_cast<EventKind>(e);
            for (std::size_t i = 0; i < series[e].size(); ++i) {
                if (series[e][i] == 0) continue;
                table.add_row(
                    {collector.label(k), to_string(kind),
                     std::to_string(static_cast<std::int64_t>(i) * bucket_ms),
                     std::to_string(series[e][i])});
            }
        }
    }
    return table;
}

std::string timeline_json(const Collector& collector,
                          const multicell::CoordinationAggregates* coordination) {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    constexpr std::int64_t kBackhaulTid = 0;
    for (std::size_t run = 0; run < collector.runs(); ++run) {
        out += "  {\"ph\":\"M\",\"pid\":";
        out += std::to_string(run);
        out += ",\"name\":\"process_name\",\"args\":{\"name\":\"run ";
        out += std::to_string(run);
        out += "\"}},\n";

        const multicell::RunTimeline* timeline = nullptr;
        if (coordination != nullptr && run < coordination->timelines.size()) {
            timeline = &coordination->timelines[run];
        }

        for (std::size_t cell = 0; cell < collector.cells(); ++cell) {
            const auto tid = static_cast<std::int64_t>(cell) + 1;
            append_thread_name(out, run, tid, "cell " + std::to_string(cell));
            std::int64_t start_ms = 0;
            if (timeline != nullptr && cell < timeline->cells.size()) {
                start_ms = timeline->cells[cell].start_ms;
            }
            for (std::size_t k = 0; k < collector.campaigns(); ++k) {
                const CampaignSink& sink = collector.slot(run, cell, k);
                for (const TraceRecord& record : sink.records()) {
                    if (record.kind == EventKind::campaign_span) {
                        append_slice(out, run, tid, collector.label(k), start_ms,
                                     record.b, record.a);
                    } else if (record.kind == EventKind::stratum_span) {
                        append_slice(out, run, tid,
                                     collector.label(k) + " stratum " +
                                         std::to_string(record.stratum),
                                     start_ms, record.b, record.a);
                    }
                }
            }
        }

        const CampaignSink& city = collector.city_slot(run);
        if (!city.records().empty()) {
            append_thread_name(out, run, kBackhaulTid, "backhaul feed");
            for (const TraceRecord& record : city.records()) {
                if (record.kind != EventKind::backhaul_chunk) continue;
                append_slice(out, run, kBackhaulTid,
                             "feed cell " +
                                 std::to_string(static_cast<std::int64_t>(
                                     record.device)),
                             record.at_ms, record.a, record.b);
            }
        }
    }
    // Closing sentinel keeps the array valid after the trailing commas above.
    out += "  {\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n";
    return out;
}

}  // namespace nbmg::telemetry
