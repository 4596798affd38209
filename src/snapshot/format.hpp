// Versioned, portable binary container for checkpoint snapshots.
//
// Layout: 8-byte magic "NBMGSNAP", a u32 format version, then a sequence
// of sections, each framed as (u32 section id, u64 payload length, payload
// bytes).  Every scalar is fixed-width little-endian, assembled and taken
// apart byte by byte — no struct dumps, no host-width integers — so a
// snapshot written on any supported platform reads identically on any
// other.  A reader that sees a different version (or a mangled frame)
// rejects the file with a diagnostic instead of guessing.
//
// Versioning policy: kFormatVersion bumps on ANY layout change, including
// additions — there are no optional trailing fields.  Old snapshots are
// not migrated; a version mismatch tells the user to re-run from the
// scenario instead of resuming.  ci/lint_determinism.py's `snapshot`
// category enforces the no-struct-dump / no-host-width rule over this
// directory.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nbmg::snapshot {

/// Any malformed, truncated, or version-mismatched snapshot.  Messages
/// carry the file path or section label so a failed resume names what was
/// wrong, not just that something was.
class SnapshotError : public std::runtime_error {
public:
    explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// 2: MechanismStats grew the fault-injection summaries (completion p99,
//    re-delivery bytes, stranded devices) and multicell CellRunTotals grew
//    their per-cell counterparts.
// 3: one engine — the checkpoint header lost its engine byte, and
//    single-cell scenarios checkpoint the 1-cell deployment's (run, cell)
//    slot blobs instead of per-run MechanismStats blobs.
// 4: the header's scenario fingerprint hashes the key table's results rows.
inline constexpr std::uint32_t kFormatVersion = 4;
inline constexpr std::string_view kMagic = "NBMGSNAP";  // exactly 8 bytes

/// One length-framed section of a snapshot file.
struct Section {
    std::uint32_t id = 0;
    std::vector<std::uint8_t> payload;

    friend bool operator==(const Section&, const Section&) = default;
};

/// Append-only little-endian scalar writer building one section payload.
class Writer {
public:
    void put_u8(std::uint8_t v) { out_.push_back(v); }
    void put_u16(std::uint16_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    /// Two's-complement via the value-preserving unsigned cast.
    void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
    /// IEEE-754 bit pattern (std::bit_cast), not a decimal round trip.
    void put_f64(double v);
    /// u64 byte length + the bytes.
    void put_string(std::string_view s);
    /// u64 element count + one u64 per element.
    void put_u64_vector(const std::vector<std::uint64_t>& v);
    /// u64 byte length + the bytes (nested blobs, e.g. per-slot payloads).
    void put_blob(const std::vector<std::uint8_t>& blob);
    /// Raw bytes, no framing (section assembly only).
    void append_raw(const std::vector<std::uint8_t>& bytes);

    [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
        return out_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
        return std::move(out_);
    }

private:
    std::vector<std::uint8_t> out_;
};

/// Sequential little-endian reader over one section payload.  Every take_*
/// throws SnapshotError naming `label` when the payload is too short;
/// expect_end() rejects trailing garbage.
class Reader {
public:
    Reader(const std::vector<std::uint8_t>& data, std::string label)
        : data_(&data), label_(std::move(label)) {}

    [[nodiscard]] std::uint8_t take_u8();
    [[nodiscard]] std::uint16_t take_u16();
    [[nodiscard]] std::uint32_t take_u32();
    [[nodiscard]] std::uint64_t take_u64();
    [[nodiscard]] std::int64_t take_i64() {
        return static_cast<std::int64_t>(take_u64());
    }
    [[nodiscard]] double take_f64();
    [[nodiscard]] std::string take_string();
    [[nodiscard]] std::vector<std::uint64_t> take_u64_vector();
    [[nodiscard]] std::vector<std::uint8_t> take_blob();

    [[nodiscard]] std::uint64_t remaining() const noexcept;
    /// Throws unless the payload was consumed exactly.
    void expect_end() const;

private:
    void need(std::uint64_t bytes) const;

    const std::vector<std::uint8_t>* data_;
    std::uint64_t pos_ = 0;
    std::string label_;
};

/// Frames `sections` into one snapshot byte stream (magic, version,
/// sections in the given order).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const std::vector<Section>& sections);

/// Validates magic + version and splits the stream back into sections.
/// `label` (usually the file path) prefixes every diagnostic.
[[nodiscard]] std::vector<Section> decode_snapshot(
    const std::vector<std::uint8_t>& bytes, const std::string& label);

/// Writes the framed snapshot to `path` via a sibling temp file and
/// std::rename, so a crash mid-write never leaves a torn snapshot under
/// the final name.  Throws SnapshotError on any I/O failure.
void write_snapshot_file(const std::string& path,
                         const std::vector<Section>& sections);

/// Reads and decodes a snapshot file; throws SnapshotError on I/O errors
/// or any framing/version problem.
[[nodiscard]] std::vector<Section> read_snapshot_file(const std::string& path);

}  // namespace nbmg::snapshot
