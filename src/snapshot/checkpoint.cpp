#include "snapshot/checkpoint.hpp"

#include <utility>

namespace nbmg::snapshot {
namespace {

// Section ids of the checkpoint snapshot layout.
constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionSlots = 2;

}  // namespace

void CheckpointContext::load(const std::string& path) {
    const std::vector<Section> sections = read_snapshot_file(path);
    const Section* header_section = nullptr;
    const Section* slots_section = nullptr;
    for (const Section& section : sections) {
        if (section.id == kSectionHeader) header_section = &section;
        if (section.id == kSectionSlots) slots_section = &section;
    }
    if (header_section == nullptr || slots_section == nullptr) {
        throw SnapshotError(path + ": missing header or slot-table section");
    }

    Reader header_reader(header_section->payload, path + " (header section)");
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

    Reader slots_reader(slots_section->payload, path + " (slot-table section)");
    const std::uint64_t count = slots_reader.take_u64();
    const std::uint64_t total_slots = header_.runs * header_.cells;
    if (count > total_slots) {
        throw SnapshotError(path + ": slot table lists " + std::to_string(count) +
                            " completed tasks, grid only has " +
                            std::to_string(total_slots));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t slot = slots_reader.take_u64();
        if (slot >= total_slots) {
            throw SnapshotError(path + ": slot index " + std::to_string(slot) +
                                " out of range (grid has " +
                                std::to_string(total_slots) + " tasks)");
        }
        if (!slots_.emplace(slot, slots_reader.take_blob()).second) {
            throw SnapshotError(path + ": duplicate slot index " +
                                std::to_string(slot));
        }
    }
    slots_reader.expect_end();
    restored_count_ = count;
}

const std::vector<std::uint8_t>* CheckpointContext::restored(
    std::uint64_t slot) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(slot);
    // Map nodes are address-stable and never erased, so handing the pointer
    // out of the lock is safe.
    return it == slots_.end() ? nullptr : &it->second;
}

void CheckpointContext::complete_slot(std::uint64_t slot,
                                      std::vector<std::uint8_t> blob,
                                      std::int64_t sim_ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[slot] = std::move(blob);
    ++fresh_completed_;
    unsaved_sim_ms_ += sim_ms < 0 ? 0 : sim_ms;

    const bool stop = stop_after_ != 0 && fresh_completed_ >= stop_after_ &&
                      !stopping_.load(std::memory_order_relaxed);
    const bool throttle_due = every_ms_ <= 0 || unsaved_sim_ms_ >= every_ms_;
    if (!out_path_.empty() && (stop || throttle_due)) {
        save_locked();
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
    save_locked();
    unsaved_sim_ms_ = 0;
}

void CheckpointContext::save_locked() {
    Writer header_writer;
    header_writer.put_u64(header_.fingerprint);
    header_writer.put_u64(header_.runs);
    header_writer.put_u64(header_.cells);
    header_writer.put_u64(header_.campaigns);

    Writer slots_writer;
    slots_writer.put_u64(slots_.size());
    for (const auto& [slot, blob] : slots_) {
        slots_writer.put_u64(slot);
        slots_writer.put_blob(blob);
    }

    std::vector<Section> sections;
    sections.push_back(Section{kSectionHeader, header_writer.take()});
    sections.push_back(Section{kSectionSlots, slots_writer.take()});
    write_snapshot_file(out_path_, sections);
}

}  // namespace nbmg::snapshot
