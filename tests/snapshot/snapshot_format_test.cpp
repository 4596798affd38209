// Tier-1 coverage of the snapshot container (src/snapshot/format.hpp) and
// the checkpoint journal (src/snapshot/checkpoint.hpp): scalar round trips
// are bit-exact, the wire layout is pinned little-endian, truncation / bad
// magic / other versions / crafted counts are rejected with diagnostics,
// file writes round-trip, a CheckpointContext refuses snapshots whose
// fingerprint or engine shape differ from its own, commits its records in
// slot order, and loads a torn or bit-flipped journal up to the damage.
#include "snapshot/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "telemetry/sink.hpp"

namespace nbmg::snapshot {
namespace {

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Writes the first `count` of `bytes` to `path`.
void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes,
                 std::uint64_t count) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    EXPECT_EQ(std::fwrite(bytes.data(), 1, count, file), count);
    std::fclose(file);
}

TEST(SnapshotWriterReaderTest, ScalarsRoundTripBitExact) {
    Writer w;
    w.put_u8(0xAB);
    w.put_u16(0xBEEF);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.put_i64(std::numeric_limits<std::int64_t>::min());
    w.put_f64(-0.0);
    w.put_f64(1.0 / 3.0);
    w.put_f64(std::numeric_limits<double>::denorm_min());
    w.put_string("checkpoint");
    w.put_string("");
    w.put_u64_vector({1, 0, std::numeric_limits<std::uint64_t>::max()});
    w.put_blob({0x00, 0xFF, 0x7F});

    const std::vector<std::uint8_t> bytes = w.take();
    Reader r(bytes, "test payload");
    EXPECT_EQ(r.take_u8(), 0xAB);
    EXPECT_EQ(r.take_u16(), 0xBEEF);
    EXPECT_EQ(r.take_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.take_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.take_i64(), -42);
    EXPECT_EQ(r.take_i64(), std::numeric_limits<std::int64_t>::min());
    const double neg_zero = r.take_f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.take_f64(), 1.0 / 3.0);
    EXPECT_EQ(r.take_f64(), std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(r.take_string(), "checkpoint");
    EXPECT_EQ(r.take_string(), "");
    EXPECT_EQ(r.take_u64_vector(),
              (std::vector<std::uint64_t>{
                  1, 0, std::numeric_limits<std::uint64_t>::max()}));
    EXPECT_EQ(r.take_blob(), (std::vector<std::uint8_t>{0x00, 0xFF, 0x7F}));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotWriterReaderTest, WireLayoutIsLittleEndian) {
    Writer w;
    w.put_u16(0x0102);
    w.put_u32(0x01020304u);
    w.put_u64(0x0102030405060708ull);
    const std::vector<std::uint8_t> expected{
        0x02, 0x01,                                      // u16
        0x04, 0x03, 0x02, 0x01,                          // u32
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
    };
    EXPECT_EQ(w.buffer(), expected);
}

TEST(SnapshotWriterReaderTest, ReaderRejectsTruncatedPayload) {
    const std::vector<std::uint8_t> four{1, 2, 3, 4};
    Reader r(four, "short payload");
    EXPECT_THROW((void)r.take_u64(), SnapshotError);
}

TEST(SnapshotWriterReaderTest, ExpectEndRejectsTrailingGarbage) {
    const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
    Reader r(bytes, "trailing");
    (void)r.take_u16();
    EXPECT_THROW(r.expect_end(), SnapshotError);
}

TEST(SnapshotWriterReaderTest, OversizedLengthPrefixRejectedNotAllocated) {
    // A corrupt length prefix far beyond the payload must throw, not
    // attempt a huge allocation.
    Writer w;
    w.put_u64(std::numeric_limits<std::uint64_t>::max());
    const std::vector<std::uint8_t> bytes = w.take();
    Reader r(bytes, "corrupt length");
    EXPECT_THROW((void)r.take_blob(), SnapshotError);
}

TEST(SnapshotWriterReaderTest, OversizedElementCountRejectedNotAllocated) {
    // 2^61 + 1 eight-byte elements is 8 bytes once the product wraps; the
    // count must be checked against the bytes left, not the product.
    for (const std::uint64_t count :
         {(std::uint64_t{1} << 61) + 1, std::uint64_t{1} << 40,
          std::uint64_t{2}}) {
        Writer w;
        w.put_u64(count);
        w.put_u64(7);
        const std::vector<std::uint8_t> bytes = w.take();
        Reader r(bytes, "corrupt count");
        EXPECT_THROW((void)r.take_u64_vector(), SnapshotError) << count;
    }
}

TEST(SnapshotWriterReaderTest, OversizedTraceRecordCountRejectedNotAllocated) {
    // A slot blob claiming 2^40 trace records used to reach reserve() and
    // abort with std::bad_alloc; a count that does not fit the bytes left
    // (31 per record) is a SnapshotError.
    telemetry::CampaignSink sink(telemetry::TelemetryConfig{.trace = true});
    for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{2}}) {
        Writer w;
        w.put_u64(count);
        for (int i = 0; i < 31; ++i) w.put_u8(0);  // one record's bytes
        const std::vector<std::uint8_t> bytes = w.take();
        Reader r(bytes, "corrupt sink");
        EXPECT_THROW(restore_sink(r, sink), SnapshotError) << count;
    }
}

TEST(SnapshotWriterReaderTest, Fnv1a64MatchesReferenceVectorsAndChains) {
    const auto bytes = [](std::string_view s) {
        return std::vector<std::uint8_t>(s.begin(), s.end());
    };
    EXPECT_EQ(fnv1a64(bytes("")), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64(bytes("a")), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64(bytes("foobar")), 0x85944171f73967e8ULL);
    EXPECT_EQ(fnv1a64(bytes("bar"), fnv1a64(bytes("foo"))),
              fnv1a64(bytes("foobar")));
}

std::vector<Section> sample_sections() {
    Writer a;
    a.put_u64(7);
    a.put_string("alpha");
    Writer b;
    b.put_f64(2.5);
    return {Section{1, a.take()}, Section{2, b.take()}};
}

TEST(SnapshotContainerTest, EncodeDecodeRoundTripsSections) {
    const std::vector<Section> sections = sample_sections();
    const std::vector<std::uint8_t> bytes = encode_snapshot(sections);
    EXPECT_EQ(decode_snapshot(bytes, "round trip"), sections);
}

TEST(SnapshotContainerTest, DecodeRejectsBadMagic) {
    std::vector<std::uint8_t> bytes = encode_snapshot(sample_sections());
    bytes[0] ^= 0xFF;
    try {
        (void)decode_snapshot(bytes, "bad magic");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError& error) {
        EXPECT_NE(std::string(error.what()).find("bad magic"),
                  std::string::npos);
    }
}

TEST(SnapshotContainerTest, DecodeRejectsFutureVersionWithDiagnostic) {
    // The version is the u32 directly after the 8-byte magic.
    std::vector<std::uint8_t> bytes = encode_snapshot(sample_sections());
    bytes[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
    try {
        (void)decode_snapshot(bytes, "future");
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("version " + std::to_string(kFormatVersion + 1)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("re-run"), std::string::npos) << what;
    }
}

TEST(SnapshotContainerTest, DecodeRejectsTruncatedFrame) {
    std::vector<std::uint8_t> bytes = encode_snapshot(sample_sections());
    bytes.pop_back();
    EXPECT_THROW((void)decode_snapshot(bytes, "truncated"), SnapshotError);
}

TEST(SnapshotContainerTest, FileWriteReadRoundTrips) {
    const std::string path = temp_path("snapshot_format_roundtrip.bin");
    const std::vector<Section> sections = sample_sections();
    write_snapshot_file(path, sections);
    EXPECT_EQ(read_snapshot_file(path), sections);
    std::remove(path.c_str());
}

TEST(SnapshotContainerTest, MissingFileIsAnError) {
    EXPECT_THROW((void)read_snapshot_file(temp_path("no_such_snapshot.bin")),
                 SnapshotError);
}

CheckpointHeader sample_header() {
    CheckpointHeader header;
    header.fingerprint = 0xFEEDFACEu;
    header.runs = 4;
    header.cells = 1;
    header.campaigns = 4;
    return header;
}

TEST(CheckpointContextTest, SaveLoadRoundTripsSlots) {
    const std::string path = temp_path("checkpoint_roundtrip.bin");
    {
        CheckpointContext ctx(sample_header(), path, 0, 0);
        ctx.complete_slot(2, {0xAA, 0xBB}, 100);
        ctx.complete_slot(0, {0x01}, 100);
        ctx.save_final();
    }
    CheckpointContext resumed(sample_header(), "", 0, 0);
    resumed.load(path);
    EXPECT_EQ(resumed.restored_count(), 2u);
    ASSERT_NE(resumed.restored(0), nullptr);
    EXPECT_EQ(*resumed.restored(0), (std::vector<std::uint8_t>{0x01}));
    ASSERT_NE(resumed.restored(2), nullptr);
    EXPECT_EQ(*resumed.restored(2), (std::vector<std::uint8_t>{0xAA, 0xBB}));
    EXPECT_EQ(resumed.restored(1), nullptr);
    EXPECT_EQ(resumed.restored(3), nullptr);
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, LoadRejectsFingerprintMismatch) {
    const std::string path = temp_path("checkpoint_fingerprint.bin");
    {
        CheckpointContext ctx(sample_header(), path, 0, 0);
        ctx.save_final();
    }
    CheckpointHeader other = sample_header();
    other.fingerprint = 0xC0FFEEu;
    CheckpointContext resumed(other, "", 0, 0);
    try {
        resumed.load(path);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError& error) {
        EXPECT_NE(std::string(error.what()).find("different scenario"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, LoadRejectsEngineShapeMismatch) {
    const std::string path = temp_path("checkpoint_shape.bin");
    {
        CheckpointContext ctx(sample_header(), path, 0, 0);
        ctx.save_final();
    }
    CheckpointHeader other = sample_header();
    other.runs = 8;  // same scenario fingerprint, different grid
    CheckpointContext resumed(other, "", 0, 0);
    try {
        resumed.load(path);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError& error) {
        EXPECT_NE(std::string(error.what()).find("engine shape mismatch"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

using JournalRecords = std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>;

/// Writes a format-5 checkpoint journal by hand — the header section (id
/// 1), then one record section (id 3) per entry: u64 slot, the blob, u64
/// FNV-1a over both — so the layout is pinned independently of
/// CheckpointContext and semantically malformed journals can be built.
void write_hand_rolled(const std::string& path, const CheckpointHeader& header,
                       const JournalRecords& records) {
    Writer header_writer;
    header_writer.put_u64(header.fingerprint);
    header_writer.put_u64(header.runs);
    header_writer.put_u64(header.cells);
    header_writer.put_u64(header.campaigns);
    std::vector<Section> sections{Section{1, header_writer.take()}};
    for (const auto& [slot, blob] : records) {
        Writer record;
        record.put_u64(slot);
        record.append_raw(blob);
        record.put_u64(fnv1a64(record.buffer()));
        sections.push_back(Section{3, record.take()});
    }
    write_snapshot_file(path, sections);
}

TEST(CheckpointContextTest, LoadRejectsOutOfRangeSlot) {
    const std::string path = temp_path("checkpoint_range.bin");
    write_hand_rolled(path, sample_header(), {{99, {0x42}}});  // grid has 4 tasks
    CheckpointContext resumed(sample_header(), "", 0, 0);
    EXPECT_THROW(resumed.load(path), SnapshotError);
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, LoadRejectsDuplicateSlot) {
    const std::string path = temp_path("checkpoint_duplicate.bin");
    write_hand_rolled(path, sample_header(), {{1, {0x42}}, {1, {0x42}}});
    CheckpointContext resumed(sample_header(), "", 0, 0);
    EXPECT_THROW(resumed.load(path), SnapshotError);
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, LoadRejectsFormatFourWithRerunDiagnostic) {
    EXPECT_EQ(kFormatVersion, 5u);
    const std::string path = temp_path("checkpoint_format4.bin");
    write_hand_rolled(path, sample_header(), {{0, {0x42}}});
    std::vector<std::uint8_t> bytes = read_bytes(path);
    bytes[8] = 4;  // the u32 version right after the 8-byte magic
    write_bytes(path, bytes, bytes.size());
    CheckpointContext resumed(sample_header(), "", 0, 0);
    try {
        resumed.load(path);
        FAIL() << "expected SnapshotError";
    } catch (const SnapshotError& error) {
        EXPECT_NE(std::string(error.what()).find("version 4"), std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what()).find("re-run"), std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, RecordsReachDiskInSlotOrder) {
    const std::string path = temp_path("checkpoint_order.bin");
    const std::string expected = temp_path("checkpoint_order_expected.bin");
    CheckpointContext ctx(sample_header(), path, 0, 0);
    ctx.complete_slot(2, {0x22}, 10);
    // Slot 0 still runs, so the cursor stops before slot 2: header only.
    EXPECT_EQ(read_snapshot_file(path).size(), 1u);
    ctx.complete_slot(0, {0x00, 0x01}, 10);
    EXPECT_EQ(read_snapshot_file(path).size(), 2u);
    ctx.complete_slot(1, {}, 10);
    EXPECT_EQ(read_snapshot_file(path).size(), 4u);
    ctx.save_final();
    write_hand_rolled(expected, sample_header(),
                      {{0, {0x00, 0x01}}, {1, {}}, {2, {0x22}}});
    EXPECT_EQ(read_bytes(path), read_bytes(expected));
    std::remove(path.c_str());
    std::remove(expected.c_str());
}

/// The blobs of small_journal(): slot i holds kJournalBlobs[i].
const std::vector<std::vector<std::uint8_t>> kJournalBlobs{
    {0x01}, {0xAA, 0xBB, 0xCC}, {}, {0x10, 0x20}};

/// A complete 4-record journal at `path`; returns the byte offset where
/// each frame ends — the header's first, then each record's.
std::vector<std::uint64_t> small_journal(const std::string& path) {
    CheckpointContext ctx(sample_header(), path, 0, 0);
    for (std::uint64_t slot = 0; slot < kJournalBlobs.size(); ++slot) {
        ctx.complete_slot(slot, kJournalBlobs[slot], 10);
    }
    ctx.save_final();
    // magic + version, the 32-byte header frame, then each record frame:
    // slot, blob, checksum.
    std::vector<std::uint64_t> ends{12 + kFrameHeaderBytes + 32};
    for (const std::vector<std::uint8_t>& blob : kJournalBlobs) {
        ends.push_back(ends.back() + kFrameHeaderBytes + 16 + blob.size());
    }
    return ends;
}

/// Loads `path` and expects exactly slots [0, kept) back, blob for blob.
void expect_restores_prefix(const std::string& path, std::uint64_t kept) {
    CheckpointContext resumed(sample_header(), "", 0, 0);
    resumed.load(path);
    EXPECT_EQ(resumed.restored_count(), kept);
    for (std::uint64_t slot = 0; slot < kJournalBlobs.size(); ++slot) {
        if (slot < kept) {
            ASSERT_NE(resumed.restored(slot), nullptr) << "slot " << slot;
            EXPECT_EQ(*resumed.restored(slot), kJournalBlobs[slot]);
        } else {
            EXPECT_EQ(resumed.restored(slot), nullptr) << "slot " << slot;
        }
    }
}

TEST(CheckpointContextTest, TruncatedJournalKeepsRecordsEndingBeforeTheCut) {
    const std::string path = temp_path("checkpoint_torn_source.bin");
    const std::string cut_path = temp_path("checkpoint_torn.bin");
    const std::vector<std::uint64_t> ends = small_journal(path);
    const std::vector<std::uint8_t> bytes = read_bytes(path);
    ASSERT_EQ(bytes.size(), ends.back());
    for (std::uint64_t cut = 0; cut <= bytes.size(); ++cut) {
        write_bytes(cut_path, bytes, cut);
        if (cut < ends.front()) {
            // Inside the magic, the version or the header: not a journal.
            CheckpointContext resumed(sample_header(), "", 0, 0);
            EXPECT_THROW(resumed.load(cut_path), SnapshotError) << "cut " << cut;
            continue;
        }
        std::uint64_t kept = 0;
        while (kept + 1 < ends.size() && ends[kept + 1] <= cut) ++kept;
        SCOPED_TRACE("cut " + std::to_string(cut));
        expect_restores_prefix(cut_path, kept);
    }
    std::remove(path.c_str());
    std::remove(cut_path.c_str());
}

TEST(CheckpointContextTest, FlippedBitDropsItsRecordAndEveryLaterOne) {
    const std::string path = temp_path("checkpoint_flip_source.bin");
    const std::string flip_path = temp_path("checkpoint_flip.bin");
    const std::vector<std::uint64_t> ends = small_journal(path);
    const std::vector<std::uint8_t> bytes = read_bytes(path);
    for (std::uint64_t record = 0; record < kJournalBlobs.size(); ++record) {
        for (std::uint64_t at = ends[record]; at < ends[record + 1]; ++at) {
            for (int bit = 0; bit < 8; ++bit) {
                std::vector<std::uint8_t> flipped = bytes;
                flipped[at] = static_cast<std::uint8_t>(flipped[at] ^ (1U << bit));
                write_bytes(flip_path, flipped, flipped.size());
                SCOPED_TRACE("byte " + std::to_string(at) + " bit " +
                             std::to_string(bit));
                expect_restores_prefix(flip_path, record);
            }
        }
    }
    std::remove(path.c_str());
    std::remove(flip_path.c_str());
}

TEST(CheckpointContextTest, StopBudgetThrowsAfterFreshTasks) {
    const std::string path = temp_path("checkpoint_stop.bin");
    CheckpointContext ctx(sample_header(), path, 0, 2);
    EXPECT_FALSE(ctx.stopping());
    ctx.complete_slot(0, {0x01}, 10);
    EXPECT_FALSE(ctx.stopping());
    try {
        ctx.complete_slot(1, {0x02}, 10);
        FAIL() << "expected CheckpointStop";
    } catch (const CheckpointStop& stop) {
        EXPECT_EQ(stop.completed(), 2u);
        EXPECT_EQ(stop.path(), path);
    }
    EXPECT_TRUE(ctx.stopping());
    // The stop snapshot includes the final task.
    CheckpointContext resumed(sample_header(), "", 0, 0);
    resumed.load(path);
    EXPECT_EQ(resumed.restored_count(), 2u);
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, EveryMsThrottleDefersWrites) {
    const std::string path = temp_path("checkpoint_throttle.bin");
    std::remove(path.c_str());
    CheckpointContext ctx(sample_header(), path, 1000, 0);
    ctx.complete_slot(0, {0x01}, 400);  // 400 < 1000: no write yet
    EXPECT_FALSE(file_exists(path));
    ctx.complete_slot(1, {0x02}, 700);  // 1100 >= 1000: write
    EXPECT_TRUE(file_exists(path));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace nbmg::snapshot
