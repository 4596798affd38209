// Tier-1 coverage of the snapshot container (src/snapshot/format.hpp) and
// the checkpoint context's identity checks (src/snapshot/checkpoint.hpp):
// scalar round trips are bit-exact, the wire layout is pinned
// little-endian, truncation / bad magic / future versions are rejected
// with diagnostics, file writes round-trip, and a CheckpointContext
// refuses snapshots whose fingerprint or engine shape differ from its own.
#include "snapshot/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/checkpoint.hpp"

namespace nbmg::snapshot {
namespace {

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
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

/// Writes a checkpoint-shaped snapshot by hand (header + slot table) so
/// malformed slot tables can be exercised.
void write_hand_rolled(const std::string& path, const CheckpointHeader& header,
                       const std::vector<std::uint64_t>& slots) {
    Writer header_writer;
    header_writer.put_u64(header.fingerprint);
    header_writer.put_u64(header.runs);
    header_writer.put_u64(header.cells);
    header_writer.put_u64(header.campaigns);
    Writer slots_writer;
    slots_writer.put_u64(slots.size());
    for (const std::uint64_t slot : slots) {
        slots_writer.put_u64(slot);
        slots_writer.put_blob({0x42});
    }
    write_snapshot_file(
        path, {Section{1, header_writer.take()}, Section{2, slots_writer.take()}});
}

TEST(CheckpointContextTest, LoadRejectsOutOfRangeSlot) {
    const std::string path = temp_path("checkpoint_range.bin");
    write_hand_rolled(path, sample_header(), {99});  // grid has 4 tasks
    CheckpointContext resumed(sample_header(), "", 0, 0);
    EXPECT_THROW(resumed.load(path), SnapshotError);
    std::remove(path.c_str());
}

TEST(CheckpointContextTest, LoadRejectsDuplicateSlot) {
    const std::string path = temp_path("checkpoint_duplicate.bin");
    write_hand_rolled(path, sample_header(), {1, 1});
    CheckpointContext resumed(sample_header(), "", 0, 0);
    EXPECT_THROW(resumed.load(path), SnapshotError);
    std::remove(path.c_str());
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
