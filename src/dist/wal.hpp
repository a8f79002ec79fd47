#pragma once
// Write-ahead log for SchedulerCore mutations: the server's one durability
// path. A crash loses zero accepted results. The scheduler is a
// deterministic state machine (seeded integrity RNG, stateless granularity
// policies, deterministic DataManagers), so logging its mutating calls —
// client join/leave, work request, result submission, tick, epoch bump —
// and replaying them over an exact base snapshot reproduces
// the pre-crash state field for field. The server appends each record
// under the same lock that serialises the core call, makes a result
// durable before acknowledging it (an fsync persists every earlier
// buffered record too, so durability is always a prefix of the log, and
// one fsync outside that lock — sync_point() + sync(point) — commits a
// whole group of results), and periodically folds old segments into a
// fresh exact snapshot (compaction: checkpoint = snapshot + WAL tail
// replay).
//
// On-disk layout under one directory:
//   base.ckpt            HKCP envelope; payload = u64 start_lsn,
//                        bytes(SchedulerCore::snapshot_exact)
//   wal-<lsn16hex>.seg   record frames: u32 len | u32 crc32(payload) |
//                        payload(u64 lsn, u8 op, f64 now, body)
// Records are strictly lsn-contiguous across segment rotation. open()
// truncates a torn tail (partial frame, CRC mismatch, lsn gap) back to the
// last valid record — a kill -9 mid-write must surface as a shorter log,
// never a crash or garbage replay. A record whose CRC holds but which does
// not decode (an op this build does not know, such as the retired op 3
// heartbeat) was written whole by some other build: open() refuses the
// directory with ProtocolError and leaves it untouched, since truncating
// there would silently drop every acked result logged after it.
//
// The same log doubles as the protocol v6 replication stream's storage on
// a hot standby: the primary ships its snapshot (the standby compact()s it
// in) followed by live records (the standby append()s them with the
// primary's lsn), so after promotion the standby's directory is a valid
// WAL for the next failover.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/work.hpp"
#include "util/vfs.hpp"

namespace hdcs::obs {
class Tracer;
}

namespace hdcs::dist {

class SchedulerCore;

enum class WalOp : std::uint8_t {
  kClientJoined = 1,
  kClientLeft = 2,
  // 3 was kHeartbeat; liveness now lives on the connection, not the log.
  kRequestWork = 4,
  kSubmitResult = 5,
  kTick = 6,
  kEpoch = 7,  // bump_epoch(new_epoch) on recovery / promotion
};

/// One logged SchedulerCore mutation. Which fields are meaningful depends
/// on `op`; unused ones stay default. The donor-measured span profile of a
/// submitted result is deliberately NOT logged — it feeds histograms and
/// the trace, never core state, and omitting it keeps replayed-core ==
/// live-core snapshot equality exact.
struct WalRecord {
  std::uint64_t lsn = 0;  // 0 in append() = "assign the next lsn"
  WalOp op = WalOp::kTick;
  double now = 0;          // the timestamp the server passed to the core
  std::uint64_t arg = 0;   // client id (left/request/submit),
                           // or the new epoch (kEpoch)
  std::string name;        // kClientJoined: donor name
  double benchmark = 0;    // kClientJoined: self-reported ops/sec
  ResultUnit result;       // kSubmitResult (profile omitted)
};

/// Record payload codec (lsn + op + body, no disk framing). The disk
/// frames add length + CRC; the v6 replication stream ships these payloads
/// inside its own CRC'd message frames.
std::vector<std::byte> encode_wal_record(const WalRecord& rec);
WalRecord decode_wal_record(std::span<const std::byte> payload);

/// Re-apply one logged mutation to a core. InputError from request_work
/// (unknown/inactive client can only arise from a log written by a buggy
/// primary) is swallowed exactly like the serving loop turns it into an
/// error frame; everything else propagates.
void apply_wal_record(SchedulerCore& core, const WalRecord& rec);

struct WalConfig {
  std::string dir;
  /// Rotate to a new segment once the current one reaches this size. The
  /// previous segment is fsynced at rotation so the durable prefix can
  /// only ever miss tail records of the *current* segment.
  std::size_t segment_bytes = 4u << 20;
};

/// What open() recovered from the directory: the newest base snapshot (if
/// any) and every valid record past it, in lsn order. The caller restores
/// the snapshot with restore_exact(), replays `tail` with
/// apply_wal_record(), then bumps the epoch (the truncated tail may have
/// contained unsynced RequestWork records whose unit ids the revived core
/// will reuse — stale results for them are fenced by term).
struct WalRecovery {
  std::optional<std::vector<std::byte>> base_snapshot;
  std::vector<WalRecord> tail;
  std::uint64_t next_lsn = 1;
  std::size_t segments_scanned = 0;
  std::size_t records_replayable = 0;
  std::size_t torn_bytes_truncated = 0;
};

class WalLog {
 public:
  /// Opens (creating the directory if needed) and recovers: validates the
  /// base snapshot, walks the segments, truncates any torn tail in place,
  /// and positions the log to append at next_lsn. Throws IoError on
  /// filesystem failure, ProtocolError on a corrupt base snapshot or on a
  /// CRC-valid record that does not decode (the files stay as they were).
  explicit WalLog(WalConfig config);
  ~WalLog();

  WalLog(const WalLog&) = delete;
  WalLog& operator=(const WalLog&) = delete;

  /// The recovery result captured by the constructor (tail records are
  /// moved out by the first call).
  WalRecovery take_recovery();

  /// Append one record (buffered write; durable only after sync() or a
  /// clean close). rec.lsn == 0 assigns the next lsn; a non-zero lsn (the
  /// standby tailing the primary) must equal next_lsn(). Returns the lsn
  /// written. Rotates segments as configured. On a write or rotation
  /// failure the log enters the failed state (see failed()) and throws.
  std::uint64_t append(const WalRecord& rec);

  /// fsync the current segment: every record appended so far is durable.
  /// On failure the log enters the failed state and throws — the segment
  /// is closed without a retry (fsyncgate: after a failed fsync the kernel
  /// may have dropped the dirty pages, so re-fsyncing would falsely report
  /// success); the only way back is compact(), which rebuilds from a fresh
  /// snapshot.
  void sync();

  /// Group commit: the records appended so far, and a handle to make them
  /// durable with outside the caller's lock. The handle is the current
  /// segment opened a second time: rotation, compaction, reset() and the
  /// failed state drop the log's reference but cannot close it, and its
  /// own error cursor reports a writeback error that an fsync through the
  /// append handle saw first. Records in earlier segments are already
  /// durable: rotation seals a segment with an fsync, compaction folds
  /// them into a synced base.
  struct SyncPoint {
    std::shared_ptr<vfs::File> file;
    std::uint64_t lsn = 0;  // durable through this lsn once `file` syncs
  };
  /// Under the caller's lock. Throws IoError in the failed state.
  [[nodiscard]] SyncPoint sync_point() const;
  /// fsync a sync point; touches nothing else of the log, so it runs
  /// without the caller's lock — one caller at a time per point. Throws
  /// IoError, after which the caller must fail() the log under its lock.
  static void sync(const SyncPoint& point);
  /// Enter the failed state after a failed sync(point): fsyncgate, the
  /// segment is closed, never re-fsynced, until compact() rebuilds.
  void fail() { mark_failed(); }

  /// Fold everything logged so far into a new base snapshot: write
  /// base.ckpt (atomic tmp+rename), delete the old segments, start a
  /// fresh one at the current lsn. Emits a wal_compacted trace event via
  /// the attached tracer with the caller's clock. This is also the
  /// recovery path out of the failed state: a successful compact() wrote
  /// the full current state durably, so whatever the broken segments lost
  /// no longer matters and the log is clean again.
  void compact(std::span<const std::byte> snapshot, double now);

  /// Adopt a replication sync: discard everything logged locally and
  /// restart the log at the primary's `start_lsn` with `snapshot` as the
  /// base. A standby calls this when it receives the ReplicaSnapshot, so
  /// its directory is a valid WAL from the stream's first record on.
  void reset(std::span<const std::byte> snapshot, std::uint64_t start_lsn,
             double now);

  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }
  [[nodiscard]] const std::string& dir() const { return config_.dir; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  /// True after a write/fsync/rotation failure: append() and sync() refuse
  /// until compact() rebuilds the log from a fresh snapshot.
  [[nodiscard]] bool failed() const { return failed_; }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void open_segment(std::uint64_t first_lsn);
  /// Seal the current segment. Returns false when the fsync failed (the
  /// descriptor is closed either way — never re-fsync after a failure).
  bool close_segment(bool fsync_it);
  /// Enter the failed state: close the segment WITHOUT an fsync and refuse
  /// further appends until compact() rebuilds.
  void mark_failed();
  void recover();

  WalConfig config_;
  WalRecovery recovery_;
  bool recovery_taken_ = false;
  std::vector<std::string> segments_;  // live segment paths, oldest first
  vfs::File file_;                     // current (last) segment
  std::shared_ptr<vfs::File> sync_file_;  // its group-commit handle
  std::size_t current_bytes_ = 0;      // size of the current segment
  std::uint64_t next_lsn_ = 1;
  bool failed_ = false;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hdcs::dist
