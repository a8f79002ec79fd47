#include "dist/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dist/checkpoint_file.hpp"
#include "dist/scheduler_core.hpp"
#include "net/bulk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {

namespace {

// Sanity cap on one record frame: a result payload is bounded by the wire
// layer's 64 MiB frame cap, so anything bigger is corruption, not data.
constexpr std::uint32_t kMaxWalRecordBytes = 80u << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

std::string segment_path(const std::string& dir, std::uint64_t first_lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%016llx.seg",
                static_cast<unsigned long long>(first_lsn));
  return dir + "/" + name;
}

std::string base_path(const std::string& dir) { return dir + "/base.ckpt"; }

/// One fsync of the log: wal.syncs counts them, wal.sync_s times them.
void timed_sync(vfs::File& file) {
  static obs::Counter& syncs = obs::Registry::global().counter("wal.syncs");
  static obs::Histogram& sync_s = obs::Registry::global().histogram(
      "wal.sync_s", obs::Histogram::latency_bounds());
  Stopwatch sw;
  file.sync();
  sync_s.observe(sw.seconds());
  syncs.inc();
}

}  // namespace

std::vector<std::byte> encode_wal_record(const WalRecord& rec) {
  ByteWriter w;
  w.u64(rec.lsn);
  w.u8(static_cast<std::uint8_t>(rec.op));
  w.f64(rec.now);
  switch (rec.op) {
    case WalOp::kClientJoined:
      w.str(rec.name);
      w.f64(rec.benchmark);
      break;
    case WalOp::kClientLeft:
    case WalOp::kRequestWork:
    case WalOp::kEpoch:
      w.u64(rec.arg);
      break;
    case WalOp::kSubmitResult:
      w.u64(rec.arg);
      w.u64(rec.result.problem_id);
      w.u64(rec.result.unit_id);
      w.u32(rec.result.stage);
      w.bytes(rec.result.payload);
      w.u32(rec.result.payload_crc);
      w.u64(rec.result.epoch);
      break;
    case WalOp::kTick:
      break;
  }
  return w.take();
}

WalRecord decode_wal_record(std::span<const std::byte> payload) {
  ByteReader r{payload};
  WalRecord rec;
  rec.lsn = r.u64();
  const auto op = r.u8();
  rec.op = static_cast<WalOp>(op);
  rec.now = r.f64();
  switch (rec.op) {
    case WalOp::kClientJoined:
      rec.name = r.str();
      rec.benchmark = r.f64();
      break;
    case WalOp::kClientLeft:
    case WalOp::kRequestWork:
    case WalOp::kEpoch:
      rec.arg = r.u64();
      break;
    case WalOp::kSubmitResult:
      rec.arg = r.u64();
      rec.result.problem_id = r.u64();
      rec.result.unit_id = r.u64();
      rec.result.stage = r.u32();
      rec.result.payload = r.bytes();
      rec.result.payload_crc = r.u32();
      rec.result.epoch = r.u64();
      break;
    case WalOp::kTick:
      break;
    default:  // includes 3, the retired heartbeat
      throw ProtocolError("wal record: unknown op " + std::to_string(op));
  }
  r.expect_end();
  return rec;
}

void apply_wal_record(SchedulerCore& core, const WalRecord& rec) {
  switch (rec.op) {
    case WalOp::kClientJoined:
      (void)core.client_joined(rec.name, rec.benchmark, rec.now);
      break;
    case WalOp::kClientLeft:
      core.client_left(rec.arg, rec.now);
      break;
    case WalOp::kRequestWork:
      try {
        (void)core.request_work(rec.arg, rec.now);
      } catch (const InputError&) {
        // The serving loop answered this with an error frame; the core was
        // untouched. Replay reproduces the no-op.
      }
      break;
    case WalOp::kSubmitResult:
      (void)core.submit_result(rec.arg, rec.result, rec.now);
      break;
    case WalOp::kTick:
      core.tick(rec.now);
      break;
    case WalOp::kEpoch:
      core.bump_epoch(rec.arg);
      break;
  }
}

WalLog::WalLog(WalConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) throw InputError("WalLog: empty directory");
  if (config_.segment_bytes < 1024) {
    throw InputError("WalLog: segment_bytes must be >= 1024");
  }
  vfs::make_dirs(config_.dir);
  recover();
}

WalLog::~WalLog() {
  // A failed log's segment was already closed without an fsync; sealing it
  // here would falsely suggest its tail is durable.
  if (!failed_ && !close_segment(/*fsync_it=*/true)) {
    LOG_WARN("wal: final fsync of " << (segments_.empty() ? config_.dir
                                                          : segments_.back())
                                    << " failed; tail may not be durable");
  }
}

WalRecovery WalLog::take_recovery() {
  if (recovery_taken_) throw Error("WalLog: recovery already taken");
  recovery_taken_ = true;
  return std::move(recovery_);
}

void WalLog::recover() {
  auto& reg = obs::Registry::global();

  // Base snapshot (if a compaction ever ran): payload = start_lsn + bytes.
  std::uint64_t expected = 1;
  if (auto payload = read_checkpoint_file(base_path(config_.dir))) {
    ByteReader r{std::span<const std::byte>(*payload)};
    expected = r.u64();
    auto view = r.raw(r.remaining());
    recovery_.base_snapshot.emplace(view.begin(), view.end());
  }

  // Every wal-*.seg, ordered by the first lsn baked into the name.
  std::vector<std::pair<std::uint64_t, std::string>> found;
  DIR* d = ::opendir(config_.dir.c_str());
  if (!d) throw_errno("opendir " + config_.dir);
  while (dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name.rfind("wal-", 0) != 0 || name.size() != 24 ||
        name.substr(20) != ".seg") {
      continue;
    }
    char* end = nullptr;
    std::uint64_t first = std::strtoull(name.c_str() + 4, &end, 16);
    if (!end || *end != '.') continue;
    found.emplace_back(first, config_.dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());

  bool torn = false;
  for (const auto& [first_lsn, path] : found) {
    if (torn) {
      // Past a gap nothing can be contiguous: drop the orphaned segment.
      vfs::remove_file(path);
      continue;
    }
    auto raw = vfs::read_file(path);
    recovery_.segments_scanned += 1;
    std::size_t off = 0;
    std::size_t valid_end = 0;
    while (raw.size() - off >= 8) {
      ByteReader header{std::span<const std::byte>(raw).subspan(off, 8)};
      std::uint32_t len = header.u32();
      std::uint32_t crc = header.u32();
      if (len == 0 || len > kMaxWalRecordBytes) break;
      if (raw.size() - off - 8 < len) break;  // partial final write
      auto payload = std::span<const std::byte>(raw).subspan(off + 8, len);
      if (net::crc32(payload) != crc) break;
      WalRecord rec;
      try {
        rec = decode_wal_record(payload);
      } catch (const ProtocolError& e) {
        // Written whole (the CRC holds), so not a torn tail: another build
        // wrote it. Truncating would drop every record after it; refuse.
        const int op = len > 8 ? std::to_integer<int>(payload[8]) : -1;
        throw ProtocolError("wal: " + path + ": record at byte " +
                            std::to_string(off) + " (op " +
                            std::to_string(op) + ") does not decode: " +
                            e.what() + "; refusing to open this log");
      }
      if (rec.lsn >= expected) {
        if (rec.lsn != expected) break;  // lsn gap: lost tail upstream
        recovery_.tail.push_back(std::move(rec));
        recovery_.records_replayable += 1;
        expected += 1;
      }
      // else: pre-base record left behind by an interrupted compaction —
      // a valid frame, already folded into the snapshot; skip silently.
      off += 8 + len;
      valid_end = off;
    }
    if (valid_end < raw.size()) {
      // Torn or corrupt tail: keep the valid prefix, drop the rest (and
      // every later segment) so the log ends at the last good record.
      recovery_.torn_bytes_truncated += raw.size() - valid_end;
      vfs::truncate_file(path, valid_end);
      torn = true;
      LOG_WARN("wal: truncated torn tail of " << path << " ("
                                              << raw.size() - valid_end
                                              << " bytes)");
      reg.counter("wal.torn_truncations").inc();
    }
    segments_.push_back(path);
    current_bytes_ = valid_end;
  }
  next_lsn_ = expected;
  recovery_.next_lsn = expected;

  if (segments_.empty()) {
    open_segment(next_lsn_);
  } else {
    // Append to the surviving last segment.
    file_ = vfs::File::append(segments_.back());
    sync_file_ = std::make_shared<vfs::File>(file_.reopen());
  }
  reg.gauge("wal.segments").set(static_cast<double>(segments_.size()));
}

void WalLog::open_segment(std::uint64_t first_lsn) {
  std::string path = segment_path(config_.dir, first_lsn);
  file_ = vfs::File::create(path);
  segments_.push_back(std::move(path));
  current_bytes_ = 0;
  sync_file_ = std::make_shared<vfs::File>(file_.reopen());
  auto& reg = obs::Registry::global();
  reg.counter("wal.segments_opened").inc();
  reg.gauge("wal.segments").set(static_cast<double>(segments_.size()));
}

bool WalLog::close_segment(bool fsync_it) {
  sync_file_.reset();  // a group commit still holding it keeps it open
  if (!file_.valid()) return true;
  bool ok = true;
  if (fsync_it) {
    try {
      file_.sync();
    } catch (const IoError& e) {
      LOG_WARN("wal: " << e.what());
      ok = false;
    }
  }
  file_.close();
  return ok;
}

void WalLog::mark_failed() {
  if (failed_) return;
  failed_ = true;
  // fsyncgate: the kernel may already have dropped the unsynced dirty
  // pages, so the descriptor must go — a later fsync on it would report
  // success for data that never hit the disk.
  file_.close();
  sync_file_.reset();
  obs::Registry::global().counter("wal.failures").inc();
}

std::uint64_t WalLog::append(const WalRecord& rec) {
  if (failed_) {
    throw IoError("wal append: log is in the failed state (compact() "
                  "rebuilds it from a fresh snapshot)");
  }
  WalRecord stamped = rec;
  if (stamped.lsn == 0) {
    stamped.lsn = next_lsn_;
  } else if (stamped.lsn != next_lsn_) {
    throw ProtocolError("wal append: lsn " + std::to_string(stamped.lsn) +
                        " != expected " + std::to_string(next_lsn_));
  }
  auto payload = encode_wal_record(stamped);
  ByteWriter frame(payload.size() + 8);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(net::crc32(std::span<const std::byte>(payload)));
  frame.raw(payload);
  try {
    file_.write_all(frame.data());
  } catch (const IoError&) {
    // The segment may hold a torn frame now; recovery truncates it. The
    // in-memory lsn does NOT advance — the record was never logged.
    mark_failed();
    throw;
  }
  current_bytes_ += frame.data().size();
  next_lsn_ = stamped.lsn + 1;

  auto& reg = obs::Registry::global();
  reg.counter("wal.records").inc();
  reg.counter("wal.bytes").inc(frame.data().size());

  if (current_bytes_ >= config_.segment_bytes) {
    // Seal the full segment durably before its successor takes appends:
    // the durable prefix may then only ever miss current-segment tails.
    if (!close_segment(/*fsync_it=*/true)) {
      mark_failed();
      throw IoError("wal rotate: fsync of sealed segment " +
                    segments_.back() + " failed");
    }
    try {
      open_segment(next_lsn_);
    } catch (const IoError&) {
      mark_failed();
      throw;
    }
  }
  return stamped.lsn;
}

void WalLog::sync() {
  if (failed_) {
    throw IoError("wal sync: log is in the failed state (compact() "
                  "rebuilds it from a fresh snapshot)");
  }
  if (file_.valid()) {
    try {
      timed_sync(file_);
    } catch (const IoError&) {
      mark_failed();
      throw;
    }
  }
}

WalLog::SyncPoint WalLog::sync_point() const {
  if (failed_ || !sync_file_) {
    throw IoError("wal sync: log is in the failed state (compact() "
                  "rebuilds it from a fresh snapshot)");
  }
  return SyncPoint{sync_file_, next_lsn_ - 1};
}

void WalLog::sync(const SyncPoint& point) { timed_sync(*point.file); }

void WalLog::compact(std::span<const std::byte> snapshot, double now) {
  const bool rebuilding = failed_;
  ByteWriter payload(snapshot.size() + 8);
  payload.u64(next_lsn_);
  payload.raw(snapshot);
  // Throws on failure with the log state unchanged: a healthy log stays
  // healthy (the old base + segments are intact), a failed log stays
  // failed until a later compact() succeeds.
  write_checkpoint_file(base_path(config_.dir), payload.data());
  // The snapshot is durable; every record it folded in can go. A crash
  // between these unlinks leaves stale pre-base segments behind, which
  // recovery skips record-by-record. An unlink failure is likewise
  // tolerable — but it keeps hogging disk, so count it loudly.
  close_segment(/*fsync_it=*/false);
  for (const std::string& path : segments_) {
    if (!vfs::remove_file(path)) {
      LOG_WARN("wal: could not unlink folded segment " << path);
      obs::Registry::global().counter("wal.unlink_failures").inc();
    }
  }
  segments_.clear();
  try {
    open_segment(next_lsn_);
  } catch (const IoError&) {
    mark_failed();
    throw;
  }
  failed_ = false;  // everything durable lives in the fresh base now
  auto& reg = obs::Registry::global();
  reg.counter("wal.compactions").inc();
  if (rebuilding) reg.counter("wal.rebuilds").inc();
  reg.gauge("wal.base_bytes").set(static_cast<double>(snapshot.size()));
  if (tracer_) {
    tracer_->event(now, "wal_compacted")
        .u64("lsn", next_lsn_)
        .u64("base_bytes", snapshot.size());
  }
}

void WalLog::reset(std::span<const std::byte> snapshot, std::uint64_t start_lsn,
                   double now) {
  next_lsn_ = start_lsn;
  compact(snapshot, now);
}

}  // namespace hdcs::dist
