#include "snapshot/checkpoint.hpp"

#include <iterator>
#include <utility>

namespace nbmg::snapshot {
namespace {

// A slot record's payload around its blob: the u64 slot index before it
// and the u64 checksum after it.
constexpr std::uint64_t kRecordOverheadBytes = 16;

std::uint64_t record_checksum(std::uint64_t slot,
                              const std::vector<std::uint8_t>& blob) {
    Writer index;
    index.put_u64(slot);
    return fnv1a64(blob, fnv1a64(index.buffer()));
}

bool put(std::FILE* file, const std::vector<std::uint8_t>& bytes) {
    // An empty blob's data() may be null, which fwrite must not see.
    return bytes.empty() ||
           std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
}

bool put_record(std::FILE* file, std::uint64_t slot,
                const std::vector<std::uint8_t>& blob, std::uint64_t checksum) {
    Writer head;
    head.put_frame_header(kJournalRecordSection, blob.size() + kRecordOverheadBytes);
    head.put_u64(slot);
    Writer tail;
    tail.put_u64(checksum);
    return put(file, head.buffer()) && put(file, blob) && put(file, tail.buffer());
}

}  // namespace

void CheckpointContext::load(const std::string& path) {
    const std::vector<std::uint8_t> bytes = read_snapshot_bytes(path);
    Reader r = open_snapshot(bytes, path);
    if (r.take_u32() != kJournalHeaderSection) {
        throw SnapshotError(path + ": missing header section");
    }
    const std::vector<std::uint8_t> header_payload = r.take_blob();
    Reader header_reader(header_payload, path + " (header section)");
    CheckpointHeader loaded;
    loaded.fingerprint = header_reader.take_u64();
    loaded.runs = header_reader.take_u64();
    loaded.cells = header_reader.take_u64();
    loaded.campaigns = header_reader.take_u64();
    header_reader.expect_end();

    if (loaded.fingerprint != header_.fingerprint) {
        throw SnapshotError(
            path + ": snapshot was taken for a different scenario (fingerprint " +
            std::to_string(loaded.fingerprint) + ", this spec is " +
            std::to_string(header_.fingerprint) +
            ") — results-affecting keys must match the checkpointed run");
    }
    if (!(loaded == header_)) {
        throw SnapshotError(
            path + ": snapshot engine shape mismatch (snapshot: " +
            std::to_string(loaded.runs) + " runs x " +
            std::to_string(loaded.cells) + " cells x " +
            std::to_string(loaded.campaigns) + " campaigns; this spec: " +
            std::to_string(header_.runs) + " runs x " +
            std::to_string(header_.cells) + " cells x " +
            std::to_string(header_.campaigns) + " campaigns)");
    }

    const std::uint64_t total_slots = header_.runs * header_.cells;
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    next_slot_ = 0;
    // The journal ends at its first torn frame or checksum mismatch: a run
    // killed mid-append tears at most its last record, and the engine
    // recomputes every task past the end.
    while (r.remaining() >= kFrameHeaderBytes) {
        const std::uint32_t id = r.take_u32();
        const std::uint64_t length = r.take_u64();
        if (id != kJournalRecordSection || length < kRecordOverheadBytes ||
            length > r.remaining()) {
            break;
        }
        const std::uint64_t slot = r.take_u64();
        std::vector<std::uint8_t> blob = r.take_bytes(length - kRecordOverheadBytes);
        const std::uint64_t checksum = r.take_u64();
        if (checksum != record_checksum(slot, blob)) break;
        if (slot >= total_slots) {
            throw SnapshotError(path + ": slot index " + std::to_string(slot) +
                                " out of range (grid has " +
                                std::to_string(total_slots) + " tasks)");
        }
        if (!slots_.emplace(slot, Record{std::move(blob), checksum, true}).second) {
            throw SnapshotError(path + ": duplicate slot index " +
                                std::to_string(slot));
        }
    }
    restored_count_ = slots_.size();
}

const std::vector<std::uint8_t>* CheckpointContext::restored(
    std::uint64_t slot) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(slot);
    // Restored records are never erased and map nodes are address-stable,
    // so handing the pointer out of the lock is safe.
    return it == slots_.end() || !it->second.restored ? nullptr : &it->second.blob;
}

void CheckpointContext::complete_slot(std::uint64_t slot,
                                      std::vector<std::uint8_t> blob,
                                      std::int64_t sim_ms) {
    const bool persist = !out_path_.empty();
    const std::uint64_t checksum = persist ? record_checksum(slot, blob) : 0;
    std::lock_guard<std::mutex> lock(mutex_);
    if (persist) slots_.emplace(slot, Record{std::move(blob), checksum});
    ++fresh_completed_;
    unsaved_sim_ms_ += sim_ms < 0 ? 0 : sim_ms;

    const bool stop = stop_after_ != 0 && fresh_completed_ >= stop_after_ &&
                      !stopping_.load(std::memory_order_relaxed);
    const bool throttle_due = every_ms_ <= 0 || unsaved_sim_ms_ >= every_ms_;
    if (persist && (stop || throttle_due)) {
        flush_locked(false);
        unsaved_sim_ms_ = 0;
    }
    if (stop) {
        stopping_.store(true, std::memory_order_relaxed);
        throw CheckpointStop(out_path_, restored_count_ + fresh_completed_);
    }
}

void CheckpointContext::save_final() {
    if (out_path_.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    flush_locked(true);
    unsaved_sim_ms_ = 0;
}

void CheckpointContext::flush_locked(bool final) {
    // The first flush builds the journal under a temp name and renames it
    // into place, so the out path never holds a headerless journal or a
    // half-replaced older one; a flush after save_final appends.
    const std::string tmp = out_path_ + ".tmp";
    const std::string& target = journal_created_ ? out_path_ : tmp;
    bool ok = true;
    if (!journal_) {
        journal_.reset(std::fopen(target.c_str(), journal_created_ ? "ab" : "wb"));
        if (!journal_) throw SnapshotError(target + ": cannot open for writing");
        if (!journal_created_) {
            Writer header;
            header.put_u64(header_.fingerprint);
            header.put_u64(header_.runs);
            header.put_u64(header_.cells);
            header.put_u64(header_.campaigns);
            ok = put(journal_.get(),
                     encode_snapshot({Section{kJournalHeaderSection, header.take()}}));
        }
    }
    for (auto it = slots_.lower_bound(next_slot_);
         ok && it != slots_.end() && (final || it->first == next_slot_);) {
        ok = put_record(journal_.get(), it->first, it->second.blob,
                        it->second.checksum);
        next_slot_ = it->first + 1;
        it = it->second.restored ? std::next(it) : slots_.erase(it);
    }
    ok = std::fflush(journal_.get()) == 0 && ok;
    if (final) ok = std::fclose(journal_.release()) == 0 && ok;
    if (!ok) {
        journal_.reset();
        if (!journal_created_) std::remove(tmp.c_str());
        throw SnapshotError(target + ": short write");
    }
    if (!journal_created_) {
        if (std::rename(tmp.c_str(), out_path_.c_str()) != 0) {
            journal_.reset();
            std::remove(tmp.c_str());
            throw SnapshotError(out_path_ + ": rename from temp file failed");
        }
        journal_created_ = true;
    }
}

}  // namespace nbmg::snapshot
