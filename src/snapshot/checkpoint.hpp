// Checkpoint/resume orchestration over the snapshot container format.
//
// Safe points are (run, cell) task boundaries of the deployment engine's
// grid: every grid task is a pure function of (setup, derived seed), so a
// snapshot records the serialized outcome of each completed task — its
// raw campaign totals plus the telemetry sinks it filled — and a resume
// restores those outcomes verbatim and deterministically re-executes only
// the remaining tasks.  The final aggregates, reduced in index order
// exactly as an uninterrupted run reduces them, are bit-identical at any
// --threads because nothing about the snapshot depends on which worker
// computed what.
//
// The snapshot is an append-only journal in the container of format.hpp:
// the header section, then one record section per completed task — its
// slot index, its blob and a 64-bit FNV-1a checksum over both.  Records
// are committed in slot-index order, restored and fresh alike, so a run's
// journal is byte-identical at any --threads and across resume, and each
// record is written exactly once.  A journal cut short (a killed run) or
// damaged loads up to its first torn frame or checksum mismatch; the
// engine recomputes the tasks past it.
//
// The context is shared by every sweep worker: restored() and
// complete_slot() serialize on one mutex (the engine calls them once per
// task, never in the event-loop hot path; the checksum runs before the
// lock), and the stop flag is an atomic so in-flight tasks can poll it
// cheaply.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "snapshot/format.hpp"

namespace nbmg::snapshot {

/// Section ids of the checkpoint journal.  The header section comes
/// first; every later section is one slot record: u64 slot index, the
/// blob, then u64 fnv1a64 over the slot index's and the blob's bytes.
inline constexpr std::uint32_t kJournalHeaderSection = 1;
inline constexpr std::uint32_t kJournalRecordSection = 3;

/// Thrown by complete_slot() when the configured stop_after budget is
/// exhausted.  The sweep unwinds (remaining tasks see stopping() and skip
/// their work), the scenario layer reports the snapshot path, and the
/// process exits with status 3 — distinct from usage errors (2).
class CheckpointStop : public std::runtime_error {
public:
    CheckpointStop(std::string path, std::uint64_t completed)
        : std::runtime_error("checkpoint stop: " + std::to_string(completed) +
                             " tasks completed, snapshot at " + path),
          path_(std::move(path)),
          completed_(completed) {}

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

private:
    std::string path_;
    std::uint64_t completed_ = 0;
};

/// Identity of a snapshot: which scenario (a fingerprint over the
/// normalized scenario file text, thread-count and output paths excluded)
/// and which runs x cells x campaigns grid produced it.  load() rejects
/// any mismatch with a diagnostic instead of silently resuming into
/// different results.
struct CheckpointHeader {
    std::uint64_t fingerprint = 0;
    std::uint64_t runs = 0;
    std::uint64_t cells = 0;
    std::uint64_t campaigns = 0;  // mechanisms + 1 (slot 0 = unicast)

    friend bool operator==(const CheckpointHeader&, const CheckpointHeader&) =
        default;
};

class CheckpointContext {
public:
    /// `out_path` empty = never persist (pure resume); `every_ms` > 0 =
    /// flush the journal once at least that much simulated time has
    /// completed since the last flush, 0 = flush after every task;
    /// `stop_after` > 0 = throw CheckpointStop after that many freshly
    /// computed tasks (deterministic, wall-clock-free stop for tests and
    /// time-sharded drivers), 0 = run to completion.
    CheckpointContext(CheckpointHeader header, std::string out_path,
                      std::int64_t every_ms, std::uint64_t stop_after)
        : header_(header),
          out_path_(std::move(out_path)),
          every_ms_(every_ms),
          stop_after_(stop_after) {}

    CheckpointContext(const CheckpointContext&) = delete;
    CheckpointContext& operator=(const CheckpointContext&) = delete;

    /// Loads a journal and seeds the completed-slot table from its records
    /// up to the first torn frame or checksum mismatch.  Throws
    /// SnapshotError on a bad magic, version or header, when the header
    /// does not match this context's (different scenario, different engine
    /// grid shape), and on an intact record whose slot index is out of
    /// range or repeated.
    void load(const std::string& path);

    /// The restored blob for `slot`, or nullptr when the slot must run.
    /// The pointer stays valid for the context's lifetime (restored slots
    /// are never erased).
    [[nodiscard]] const std::vector<std::uint8_t>* restored(std::uint64_t slot) const;

    [[nodiscard]] std::uint64_t restored_count() const noexcept {
        return restored_count_;
    }

    /// True once the stop budget fired; tasks not yet started should
    /// return immediately without computing (their result is discarded —
    /// the CheckpointStop unwinds before any reduction).
    [[nodiscard]] bool stopping() const noexcept {
        return stopping_.load(std::memory_order_relaxed);
    }

    /// Records a freshly computed slot outcome.  `sim_ms` is the simulated
    /// time the task covered (its horizon); it drives the every_ms flush
    /// throttle.  A flush appends every record the slot-order cursor can
    /// reach (the first one creates the journal through a temp file and a
    /// rename) and drops the written blobs.  Flushes per the throttle, then
    /// throws CheckpointStop when the stop budget is exhausted.
    void complete_slot(std::uint64_t slot, std::vector<std::uint8_t> blob,
                       std::int64_t sim_ms);

    /// Appends every record not yet written, in slot order, and closes the
    /// journal, when an out path is configured; call after a run completes
    /// normally.
    void save_final();

    [[nodiscard]] const CheckpointHeader& header() const noexcept {
        return header_;
    }
    [[nodiscard]] const std::string& out_path() const noexcept {
        return out_path_;
    }

private:
    /// A completed slot's blob and its record checksum.
    struct Record {
        std::vector<std::uint8_t> blob;
        std::uint64_t checksum = 0;
        bool restored = false;  // loaded: kept for restored() once written
    };

    struct CloseFile {
        void operator()(std::FILE* file) const noexcept { std::fclose(file); }
    };

    /// Appends records from the cursor on — through gaps in the slot
    /// sequence too when `final` — then closes the journal when `final`.
    /// Caller holds mutex_.
    void flush_locked(bool final);

    CheckpointHeader header_;
    std::string out_path_;
    std::int64_t every_ms_ = 0;
    std::uint64_t stop_after_ = 0;

    mutable std::mutex mutex_;
    // Restored records, plus fresh ones not yet written, by slot index.
    std::map<std::uint64_t, Record> slots_;
    std::uint64_t next_slot_ = 0;  // the commit cursor: the next slot to append
    std::unique_ptr<std::FILE, CloseFile> journal_;
    bool journal_created_ = false;  // the first flush renamed it into place
    std::uint64_t restored_count_ = 0;
    std::uint64_t fresh_completed_ = 0;
    std::int64_t unsaved_sim_ms_ = 0;
    std::atomic<bool> stopping_{false};
};

}  // namespace nbmg::snapshot
