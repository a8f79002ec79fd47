#pragma once
// Deterministic storage-fault injection over POSIX file I/O.
//
// The disk is a fault domain exactly like the network: ENOSPC, EIO, short
// writes, failed fsyncs and non-atomic renames all happen in production,
// and every durable path in this repo (WAL segments, checkpoint files, the
// blob cache disk tier) must have defined behaviour when they do. This
// header mirrors net/fault.hpp's FaultPlan idiom for files: a seeded
// StorageFaultPlan is installed process-wide (ScopedStorageFaultPlan in
// tests) and every vfs operation consults it at its choke point —
// open/create, write, fsync, rename, unlink — so a single seed reproduces
// one storm across WAL, checkpoints and caches at once.
//
// Fault model:
//   - open_error_prob: create/append fails with injected EIO.
//   - write_error_prob: a write fails with EIO after landing 0 bytes.
//   - short_write_prob: a random prefix lands, then ENOSPC — the torn-tail
//     case WAL recovery must truncate.
//   - sync_error_prob: fsync reports EIO. Per fsyncgate semantics the
//     caller must treat the file's durability as unknown and rebuild it;
//     re-fsyncing the same descriptor is a bug, never a retry.
//   - sync_delay_prob / sync_delay_s: an fsync first stalls sync_delay_s
//     (a slow disk), mirroring net::FaultPlan's delay; with probability 1
//     it makes "while an fsync is running" a window a test can aim at.
//   - rename_error_prob: rename fails cleanly (destination untouched).
//   - torn_rename_prob: rename "fails" leaving the destination a truncated
//     copy of the source — a crash on a non-atomic filesystem. Readers must
//     detect this (CRC envelopes), never consume it silently.
//   - unlink_error_prob: unlink fails; the file (and its capacity charge)
//     stays.
//   - disk_capacity_bytes: a deterministic disk-budget model. The plan
//     tracks the live bytes written through the vfs per path; once the
//     total would exceed the capacity a write gets ENOSPC (after the
//     prefix that still fits lands — real filesystems fill up mid-write).
//     Unlinks and truncates credit bytes back, so WAL compaction genuinely
//     frees space: the degrade -> compact -> re-arm loop closes.
//   - path_filter: only paths containing this substring are faulted (and
//     capacity-charged), so a test can break the WAL directory while the
//     result files on the same real disk stay writable.
//
// The plan also records, per (filtered) path, how many bytes its last
// successful fsync covered: the file's size when that fsync began. A test
// can cut a file there to see exactly what a power cut would have kept.
//
// With no plan installed every operation is a thin RAII wrapper over the
// raw syscalls (one relaxed atomic load of overhead), throwing IoError
// with strerror text on real failure — the same taxonomy either way, so
// callers cannot tell injected faults from real ones. That is the point.
//
// Layering note: this lives in hdcs_util, *below* the obs metrics
// registry, so fault counters live inside the plan (stats()) rather than
// in obs counters; the dist/net layers mirror what they care about.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace hdcs::vfs {

struct StorageFaultSpec {
  std::uint64_t seed = 1;
  double open_error_prob = 0;
  double write_error_prob = 0;
  double short_write_prob = 0;
  double sync_error_prob = 0;
  double rename_error_prob = 0;
  double torn_rename_prob = 0;
  double unlink_error_prob = 0;
  double sync_delay_prob = 0;
  double sync_delay_s = 0;
  /// 0 = unlimited. See the capacity model above.
  std::uint64_t disk_capacity_bytes = 0;
  /// Only paths containing this substring are faulted; empty = all paths.
  std::string path_filter;

  [[nodiscard]] bool any() const {
    return open_error_prob > 0 || write_error_prob > 0 ||
           short_write_prob > 0 || sync_error_prob > 0 ||
           rename_error_prob > 0 || torn_rename_prob > 0 ||
           unlink_error_prob > 0 || sync_delay_prob > 0 ||
           disk_capacity_bytes > 0;
  }
};

class StorageFaultPlan {
 public:
  explicit StorageFaultPlan(StorageFaultSpec spec);

  /// Injected-fault counters (thread-safe snapshot). These are the plan's
  /// own bookkeeping — "how hostile was the storm" — distinct from the
  /// consumer-side failure counters the dist layer exports to obs.
  struct Stats {
    std::uint64_t open_errors = 0;
    std::uint64_t write_errors = 0;
    std::uint64_t short_writes = 0;
    std::uint64_t sync_errors = 0;
    std::uint64_t rename_errors = 0;
    std::uint64_t torn_renames = 0;
    std::uint64_t unlink_errors = 0;
    std::uint64_t enospc = 0;  // capacity-model rejections
    std::uint64_t sync_delays = 0;

    [[nodiscard]] std::uint64_t injected() const {
      return open_errors + write_errors + short_writes + sync_errors +
             rename_errors + torn_renames + unlink_errors + enospc +
             sync_delays;
    }
  };

  enum class WriteFault { kNone, kError, kShort, kNoSpace };
  enum class RenameFault { kNone, kError, kTorn };

  // Decision points, called by the vfs operations below. Each draws from
  // the shared seeded stream (thread-safe) and updates the capacity ledger
  // for the outcome it announces.
  [[nodiscard]] bool fail_open(const std::string& path);
  /// Outcome for writing `len` bytes to `path`. kShort/kNoSpace set
  /// `keep_prefix` to the bytes that still land (charged to the ledger).
  [[nodiscard]] WriteFault write_fault(const std::string& path,
                                       std::size_t len,
                                       std::size_t& keep_prefix);
  [[nodiscard]] bool fail_sync(const std::string& path);
  /// Seconds an fsync of `path` stalls before it runs (0 = none).
  [[nodiscard]] double sync_delay(const std::string& path);
  [[nodiscard]] RenameFault rename_fault(const std::string& to);
  [[nodiscard]] bool fail_unlink(const std::string& path);

  // Capacity-ledger maintenance for operations that free or move bytes.
  void note_unlink(const std::string& path);
  void note_truncate(const std::string& path, std::uint64_t new_size);
  void note_rename(const std::string& from, const std::string& to);
  /// A successful fsync of `path` covered its first `bytes` bytes.
  void note_sync(const std::string& path, std::uint64_t bytes);

  [[nodiscard]] Stats stats() const;
  /// Bytes of `path` its last successful fsync covered (0 = none since it
  /// was created or emptied). Truncates clamp it, renames carry it along.
  [[nodiscard]] std::uint64_t synced_bytes(const std::string& path) const;
  [[nodiscard]] const StorageFaultSpec& spec() const { return spec_; }
  /// Live bytes currently charged against disk_capacity_bytes.
  [[nodiscard]] std::uint64_t live_bytes() const;

 private:
  [[nodiscard]] bool matches(const std::string& path) const;
  [[nodiscard]] bool draw(double prob);  // mu_ held

  StorageFaultSpec spec_;
  mutable std::mutex mu_;
  Rng rng_;
  Stats stats_;
  std::uint64_t live_bytes_ = 0;
  std::unordered_map<std::string, std::uint64_t> sizes_;
  std::unordered_map<std::string, std::uint64_t> synced_;
};

/// Install `plan` as the process-global plan consulted by every vfs
/// operation; nullptr turns injection off (the default). Ownership is
/// shared: an operation that grabbed the plan keeps it alive even if it is
/// uninstalled mid-flight (a server thread can be inside a faulted compact
/// when the test's fault scope ends), so uninstall never races destruction.
void install_storage_fault_plan(std::shared_ptr<StorageFaultPlan> plan);
[[nodiscard]] std::shared_ptr<StorageFaultPlan> installed_storage_fault_plan();

/// RAII install/uninstall for tests.
class ScopedStorageFaultPlan {
 public:
  explicit ScopedStorageFaultPlan(StorageFaultSpec spec)
      : plan_(std::make_shared<StorageFaultPlan>(spec)) {
    install_storage_fault_plan(plan_);
  }
  ~ScopedStorageFaultPlan() { install_storage_fault_plan(nullptr); }
  ScopedStorageFaultPlan(const ScopedStorageFaultPlan&) = delete;
  ScopedStorageFaultPlan& operator=(const ScopedStorageFaultPlan&) = delete;

  [[nodiscard]] StorageFaultPlan& plan() { return *plan_; }

 private:
  std::shared_ptr<StorageFaultPlan> plan_;
};

/// RAII file handle for the durable write paths. All mutating operations
/// throw IoError (real or injected); close() and the destructor are
/// best-effort and never throw. After sync() throws, the handle refuses
/// further writes/syncs — fsyncgate: the kernel may have dropped the dirty
/// pages, so the only safe continuation is to rebuild the file, not to
/// retry the fsync.
class File {
 public:
  File() = default;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// O_WRONLY | O_CREAT | O_TRUNC, 0644.
  static File create(const std::string& path);
  /// O_WRONLY | O_APPEND (| O_CREAT when `create_missing`).
  static File append(const std::string& path, bool create_missing = false);

  /// Write every byte or throw IoError. A short-write injection lands its
  /// prefix before throwing (the on-disk file really is torn).
  void write_all(std::span<const std::byte> data);
  /// fsync. Throws IoError on real or injected failure and poisons the
  /// handle (see class comment).
  void sync();
  /// A second descriptor on the same file, opened anew rather than
  /// dup(2)ed, so it keeps its own writeback-error cursor: its sync()
  /// reports every error since this call even when another descriptor's
  /// fsync saw it first. Adds no draw to an installed plan (its sync()
  /// is injected as usual). Throws IoError.
  [[nodiscard]] File reopen() const;
  /// Close, ignoring errors. Idempotent.
  void close() noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
  bool poisoned_ = false;  // a sync failed; no further mutation allowed
};

/// Whole-file read. Throws IoError on any failure, including ENOENT.
std::vector<std::byte> read_file(const std::string& path);
/// Whole-file read; nullopt when the file does not exist.
std::optional<std::vector<std::byte>> read_file_if_exists(
    const std::string& path);

/// mkdir -p. Throws IoError.
void make_dirs(const std::string& dir);

/// rename(2) with clean-failure and torn-rename injection. Throws IoError
/// on failure; after a torn injection the destination holds a truncated
/// copy of the source (which is consumed), exactly like a crash on a
/// non-atomic filesystem.
void rename_file(const std::string& from, const std::string& to);

/// unlink(2). Returns false (without throwing) when the file is already
/// gone or the unlink failed — callers of this repo tolerate a stale file
/// (WAL recovery skips pre-base segments record-by-record).
bool remove_file(const std::string& path) noexcept;

/// truncate(2). Throws IoError.
void truncate_file(const std::string& path, std::uint64_t size);

/// fsync the parent directory of `path` (makes a rename durable).
/// Best-effort: some filesystems refuse O_RDONLY on directories.
void sync_parent_dir(const std::string& path) noexcept;

/// Total bytes of regular files directly inside `dir` (no recursion; the
/// WAL and blob-cache layouts are flat). 0 when the directory is missing.
/// Read-only — never faulted.
std::uint64_t dir_bytes(const std::string& dir) noexcept;

[[nodiscard]] bool exists(const std::string& path) noexcept;

}  // namespace hdcs::vfs
