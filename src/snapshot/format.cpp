#include "snapshot/format.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <utility>

namespace nbmg::snapshot {

namespace {

/// Appends the `Width` little-endian bytes of `v` in one insert (one
/// capacity check instead of one per byte).
template <std::uint32_t Width>
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
    std::array<std::uint8_t, Width> bytes{};
    for (std::uint32_t i = 0; i < Width; ++i) {
        bytes[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFU);
    }
    out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace

void Writer::put_u16(std::uint16_t v) { put_le<2>(out_, v); }

void Writer::put_u32(std::uint32_t v) { put_le<4>(out_, v); }

void Writer::put_u64(std::uint64_t v) { put_le<8>(out_, v); }

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_string(std::string_view s) {
    put_u64(s.size());
    for (const char c : s) put_u8(static_cast<std::uint8_t>(c));
}

void Writer::put_u64_vector(const std::vector<std::uint64_t>& v) {
    put_u64(v.size());
    for (const std::uint64_t x : v) put_u64(x);
}

void Writer::put_blob(const std::vector<std::uint8_t>& blob) {
    put_u64(blob.size());
    append_raw(blob);
}

void Writer::append_raw(const std::vector<std::uint8_t>& bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void Writer::put_frame_header(std::uint32_t id, std::uint64_t length) {
    put_u32(id);
    put_u64(length);
}

void Reader::need(std::uint64_t bytes) const {
    if (bytes > data_->size() - pos_) {
        throw SnapshotError(label_ + ": truncated (wanted " +
                            std::to_string(bytes) + " more bytes, have " +
                            std::to_string(data_->size() - pos_) + ")");
    }
}

std::uint8_t Reader::take_u8() {
    need(1);
    return (*data_)[pos_++];
}

std::uint16_t Reader::take_u16() {
    need(2);
    std::uint16_t v = 0;
    v = static_cast<std::uint16_t>((*data_)[pos_]);
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>((*data_)[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
}

std::uint32_t Reader::take_u32() {
    need(4);
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>((*data_)[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
}

std::uint64_t Reader::take_u64() {
    need(8);
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>((*data_)[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
}

double Reader::take_f64() { return std::bit_cast<double>(take_u64()); }

std::string Reader::take_string() {
    const std::uint64_t length = take_u64();
    need(length);
    std::string s;
    s.reserve(length);
    for (std::uint64_t i = 0; i < length; ++i) {
        s.push_back(static_cast<char>((*data_)[pos_ + i]));
    }
    pos_ += length;
    return s;
}

std::vector<std::uint64_t> Reader::take_u64_vector() {
    const std::uint64_t count = take_count(8);
    std::vector<std::uint64_t> v;
    v.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) v.push_back(take_u64());
    return v;
}

std::vector<std::uint8_t> Reader::take_blob() { return take_bytes(take_u64()); }

std::vector<std::uint8_t> Reader::take_bytes(std::uint64_t count) {
    need(count);
    std::vector<std::uint8_t> bytes(data_->begin() + static_cast<std::int64_t>(pos_),
                                    data_->begin() +
                                        static_cast<std::int64_t>(pos_ + count));
    pos_ += count;
    return bytes;
}

std::uint64_t Reader::take_count(std::uint64_t element_bytes) {
    const std::uint64_t count = take_u64();
    // Divide rather than multiply: count * element_bytes can wrap.
    if (count > remaining() / element_bytes) {
        throw SnapshotError(label_ + ": count " + std::to_string(count) + " of " +
                            std::to_string(element_bytes) +
                            "-byte elements exceeds the " +
                            std::to_string(remaining()) + " bytes left");
    }
    return count;
}

std::uint64_t Reader::remaining() const noexcept { return data_->size() - pos_; }

void Reader::expect_end() const {
    if (pos_ != data_->size()) {
        throw SnapshotError(label_ + ": " + std::to_string(data_->size() - pos_) +
                            " trailing bytes after the last field");
    }
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
    for (const std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::vector<std::uint8_t> encode_snapshot(const std::vector<Section>& sections) {
    Writer w;
    for (const char c : kMagic) w.put_u8(static_cast<std::uint8_t>(c));
    w.put_u32(kFormatVersion);
    for (const Section& section : sections) {
        w.put_frame_header(section.id, section.payload.size());
        w.append_raw(section.payload);
    }
    return w.take();
}

Reader open_snapshot(const std::vector<std::uint8_t>& bytes,
                     const std::string& label) {
    Reader r(bytes, label);
    std::string magic;
    for (std::uint32_t i = 0; i < kMagic.size(); ++i) {
        if (r.remaining() == 0) {
            throw SnapshotError(label + ": not a snapshot file (too short)");
        }
        magic.push_back(static_cast<char>(r.take_u8()));
    }
    if (magic != kMagic) {
        throw SnapshotError(label + ": not a snapshot file (bad magic)");
    }
    const std::uint32_t version = r.take_u32();
    if (version != kFormatVersion) {
        throw SnapshotError(label + ": snapshot format version " +
                            std::to_string(version) + ", this build reads only " +
                            std::to_string(kFormatVersion) +
                            " — re-run the scenario instead of resuming");
    }
    return r;
}

std::vector<Section> decode_snapshot(const std::vector<std::uint8_t>& bytes,
                                     const std::string& label) {
    Reader r = open_snapshot(bytes, label);
    std::vector<Section> sections;
    while (r.remaining() > 0) {
        Section section;
        section.id = r.take_u32();
        section.payload = r.take_blob();
        sections.push_back(std::move(section));
    }
    return sections;
}

void write_snapshot_file(const std::string& path,
                         const std::vector<Section>& sections) {
    const std::vector<std::uint8_t> bytes = encode_snapshot(sections);
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        throw SnapshotError(tmp + ": cannot open for writing");
    }
    const std::uint64_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != bytes.size() || !closed) {
        std::remove(tmp.c_str());
        throw SnapshotError(tmp + ": short write");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError(path + ": rename from temp file failed");
    }
}

std::vector<std::uint8_t> read_snapshot_bytes(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        throw SnapshotError(path + ": cannot open snapshot file");
    }
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, 65536> chunk{};
    for (;;) {
        const std::uint64_t got = std::fread(chunk.data(), 1, chunk.size(), file);
        bytes.insert(bytes.end(), chunk.begin(),
                     chunk.begin() + static_cast<std::int64_t>(got));
        if (got < chunk.size()) break;
    }
    const bool ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!ok) throw SnapshotError(path + ": read error");
    return bytes;
}

std::vector<Section> read_snapshot_file(const std::string& path) {
    return decode_snapshot(read_snapshot_bytes(path), path);
}

}  // namespace nbmg::snapshot
