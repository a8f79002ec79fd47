// WAL durability edges: record codec, segment rotation + recovery,
// compaction, torn/corrupt tail fuzzing (recovery must stop at the last
// valid record, never crash), refusal of a whole record it cannot decode,
// replayed-core == live-core equivalence, the epoch fence, and the
// client's session-surviving reconnect backoff.

#include "dist/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/client.hpp"
#include "dist/scheduler_core.hpp"
#include "net/bulk.hpp"
#include "tests/toy_problem.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumAlgorithm;
using test::ToySumDataManager;

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

SchedulerConfig small_config() {
  SchedulerConfig cfg;
  cfg.lease_timeout = 100.0;
  cfg.bounds.min_ops = 1;
  cfg.bounds.max_ops = 1e9;
  return cfg;
}

ResultUnit execute(const WorkUnit& unit, std::span<const std::byte> problem_data) {
  ToySumAlgorithm algo;
  algo.initialize(problem_data);
  ResultUnit r;
  r.problem_id = unit.problem_id;
  r.unit_id = unit.unit_id;
  r.stage = unit.stage;
  r.epoch = unit.epoch;
  r.payload = algo.process(unit);
  return r;
}

// Every op a record can carry (3, the retired heartbeat, is none of them).
constexpr WalOp kAllOps[] = {WalOp::kClientJoined, WalOp::kClientLeft,
                             WalOp::kRequestWork,  WalOp::kSubmitResult,
                             WalOp::kTick,         WalOp::kEpoch};

WalOp op_at(std::size_t i) { return kAllOps[i % std::size(kAllOps)]; }

WalRecord sample_record(WalOp op, std::uint64_t lsn) {
  WalRecord rec;
  rec.lsn = lsn;
  rec.op = op;
  rec.now = 1.25 * static_cast<double>(lsn);
  switch (op) {
    case WalOp::kClientJoined:
      rec.name = "lab3-pc07";
      rec.benchmark = 5.25e7;
      break;
    case WalOp::kClientLeft:
    case WalOp::kRequestWork:
      rec.arg = 17;
      break;
    case WalOp::kEpoch:
      rec.arg = 4;
      break;
    case WalOp::kSubmitResult: {
      rec.arg = 17;
      rec.result.problem_id = 2;
      rec.result.unit_id = 33;
      rec.result.stage = 1;
      ByteWriter w;
      w.str("result payload");
      rec.result.payload = w.take();
      rec.result.payload_crc = 0xfeedf00d;
      rec.result.epoch = 3;
      break;
    }
    case WalOp::kTick:
      break;
  }
  return rec;
}

TEST(Wal, RecordCodecRoundTripsEveryOp) {
  for (auto op : kAllOps) {
    auto rec = sample_record(op, 42);
    auto back = decode_wal_record(encode_wal_record(rec));
    EXPECT_EQ(back.lsn, rec.lsn);
    EXPECT_EQ(back.op, rec.op);
    EXPECT_DOUBLE_EQ(back.now, rec.now);
    EXPECT_EQ(back.arg, rec.arg);
    EXPECT_EQ(back.name, rec.name);
    EXPECT_DOUBLE_EQ(back.benchmark, rec.benchmark);
    if (op == WalOp::kSubmitResult) {
      EXPECT_EQ(back.result.problem_id, rec.result.problem_id);
      EXPECT_EQ(back.result.unit_id, rec.result.unit_id);
      EXPECT_EQ(back.result.stage, rec.result.stage);
      EXPECT_EQ(back.result.payload, rec.result.payload);
      EXPECT_EQ(back.result.payload_crc, rec.result.payload_crc);
      EXPECT_EQ(back.result.epoch, rec.result.epoch);
    }
  }
}

TEST(Wal, RecordCodecRejectsCorruption) {
  auto bytes = encode_wal_record(sample_record(WalOp::kSubmitResult, 1));
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(decode_wal_record(truncated), Error);
  auto bad_op = bytes;
  bad_op[8] = std::byte{0xff};  // op byte follows the u64 lsn
  EXPECT_THROW(decode_wal_record(bad_op), ProtocolError);
  bad_op[8] = std::byte{3};  // the retired heartbeat
  EXPECT_THROW(decode_wal_record(bad_op), ProtocolError);
}

TEST(Wal, AppendRotateReopenRecovers) {
  std::string dir = fresh_dir("wal_rotate");
  constexpr int kRecords = 60;
  {
    WalLog wal({dir, 1024});  // tiny segments to force several rotations
    auto rec0 = wal.take_recovery();
    EXPECT_FALSE(rec0.base_snapshot.has_value());
    EXPECT_TRUE(rec0.tail.empty());
    EXPECT_EQ(rec0.next_lsn, 1u);
    for (int i = 0; i < kRecords; ++i) {
      auto lsn = wal.append(sample_record(
          op_at(static_cast<std::size_t>(i)), 0));  // 0 = assign next lsn
      EXPECT_EQ(lsn, static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_GT(wal.segment_count(), 1u);  // rotation actually happened
    wal.sync();
  }
  WalLog wal({dir, 1024});
  auto rec = wal.take_recovery();
  EXPECT_FALSE(rec.base_snapshot.has_value());
  ASSERT_EQ(rec.tail.size(), static_cast<std::size_t>(kRecords));
  EXPECT_GT(rec.segments_scanned, 1u);
  EXPECT_EQ(rec.torn_bytes_truncated, 0u);
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(rec.tail[static_cast<std::size_t>(i)].lsn,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(rec.tail[static_cast<std::size_t>(i)].op,
              op_at(static_cast<std::size_t>(i)));
  }
  EXPECT_EQ(wal.next_lsn(), static_cast<std::uint64_t>(kRecords + 1));
  // Appending a wrong explicit lsn (a standby fed a gapped stream) throws.
  EXPECT_THROW(wal.append(sample_record(WalOp::kTick, 5)), ProtocolError);
}

TEST(Wal, CompactionFoldsTailIntoBase) {
  std::string dir = fresh_dir("wal_compact");
  std::vector<std::byte> snapshot;
  for (int i = 0; i < 100; ++i) snapshot.push_back(std::byte{std::uint8_t(i)});
  {
    WalLog wal({dir, 1024});
    (void)wal.take_recovery();
    for (int i = 0; i < 10; ++i) wal.append(sample_record(WalOp::kTick, 0));
    wal.compact(snapshot, 1.0);
    EXPECT_EQ(wal.segment_count(), 1u);  // old segments unlinked
    for (int i = 0; i < 3; ++i) wal.append(sample_record(WalOp::kRequestWork, 0));
    wal.sync();
  }
  WalLog wal({dir, 1024});
  auto rec = wal.take_recovery();
  ASSERT_TRUE(rec.base_snapshot.has_value());
  EXPECT_EQ(*rec.base_snapshot, snapshot);
  ASSERT_EQ(rec.tail.size(), 3u);  // only the post-compaction records
  EXPECT_EQ(rec.tail[0].lsn, 11u);
  EXPECT_EQ(rec.next_lsn, 14u);
}

TEST(Wal, ResetAdoptsPrimarySnapshotAndLsn) {
  std::string dir = fresh_dir("wal_reset");
  std::vector<std::byte> snapshot(32, std::byte{0xab});
  {
    WalLog wal({dir, 4096});
    (void)wal.take_recovery();
    for (int i = 0; i < 5; ++i) wal.append(sample_record(WalOp::kTick, 0));
    // Replication sync: discard local history, adopt the primary's base
    // and stream position.
    wal.reset(snapshot, 500, 2.0);
    EXPECT_EQ(wal.next_lsn(), 500u);
    wal.append(sample_record(WalOp::kTick, 500));
    wal.sync();
  }
  WalLog wal({dir, 4096});
  auto rec = wal.take_recovery();
  ASSERT_TRUE(rec.base_snapshot.has_value());
  EXPECT_EQ(*rec.base_snapshot, snapshot);
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].lsn, 500u);
}

/// Copy a pristine WAL directory into a scratch one for corruption.
void clone_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename());
  }
}

std::size_t recovered_count(const std::string& dir) {
  WalLog wal({dir, 1024});
  auto rec = wal.take_recovery();
  // Whatever survives must be an lsn-contiguous prefix from 1.
  for (std::size_t i = 0; i < rec.tail.size(); ++i) {
    EXPECT_EQ(rec.tail[i].lsn, static_cast<std::uint64_t>(i + 1));
  }
  return rec.tail.size();
}

TEST(Wal, TornAndBitFlippedTailsNeverCrashRecovery) {
  // Build a multi-segment log, then attack the newest segment with every
  // truncation length and a sweep of single-bit flips (including frames
  // straddling the segment boundary via the *previous* segment's tail).
  // Recovery must never throw and must always yield an lsn-contiguous
  // prefix of what was written.
  std::string pristine = fresh_dir("wal_fuzz_pristine");
  constexpr std::size_t kRecords = 40;
  {
    WalLog wal({pristine, 1024});
    (void)wal.take_recovery();
    for (std::size_t i = 0; i < kRecords; ++i) {
      wal.append(sample_record(op_at(i), 0));
    }
    wal.sync();
  }
  ASSERT_EQ(recovered_count(pristine), kRecords);

  // Newest-first segment paths (recovery sorts by the lsn in the name).
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(pristine)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segs.push_back(entry.path().string());
    }
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_GE(segs.size(), 2u);

  std::string work = testing::TempDir() + "wal_fuzz_work";
  auto mutate = [&](const std::string& seg, auto&& fn) {
    clone_dir(pristine, work);
    std::string target =
        work + "/" + fs::path(seg).filename().string();
    auto size = fs::file_size(target);
    fn(target, size);
    std::size_t n = 0;
    EXPECT_NO_THROW(n = recovered_count(work)) << target;
    EXPECT_LE(n, kRecords);
  };

  // Truncations: every length of the last segment, plus a torn tail of the
  // *previous* segment (which orphans the whole last segment).
  const std::string& last = segs.back();
  auto last_size = fs::file_size(last);
  for (std::uintmax_t cut = 0; cut < last_size; ++cut) {
    mutate(last, [&](const std::string& target, std::uintmax_t) {
      fs::resize_file(target, cut);
    });
  }
  mutate(segs[segs.size() - 2], [&](const std::string& target,
                                    std::uintmax_t size) {
    ASSERT_GT(size, 3u);
    fs::resize_file(target, size - 3);
  });

  // Bit flips: deterministic sample of byte offsets across the last two
  // segments (length fields, CRCs, lsns, and payload bytes all get hit).
  Rng rng(99);
  for (const std::string& seg : {segs[segs.size() - 2], last}) {
    auto size = fs::file_size(seg);
    for (int trial = 0; trial < 48; ++trial) {
      auto at = static_cast<std::uintmax_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
      auto bit = static_cast<int>(rng.uniform_int(0, 7));
      mutate(seg, [&](const std::string& target, std::uintmax_t) {
        std::fstream f(target, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(at));
        char c = 0;
        f.get(c);
        c = static_cast<char>(c ^ (1 << bit));
        f.seekp(static_cast<std::streamoff>(at));
        f.put(c);
      });
    }
  }
  fs::remove_all(pristine);
  fs::remove_all(work);
}

TEST(Wal, ReplayedCoreMatchesLiveCoreFieldForField) {
  // Drive a live core through joins, leases, submissions, ticks, a
  // departure and an epoch bump, logging each mutation exactly
  // like the server does. Replaying base + tail into a fresh core with the
  // same problems must land in a byte-identical exact snapshot.
  std::string dir = fresh_dir("wal_replay");
  SchedulerCore live(small_config(), std::make_unique<FixedGranularity>(40));
  auto pid = live.submit_problem(std::make_shared<ToySumDataManager>(400));
  auto problem_data = ToySumDataManager(400).problem_data();

  {
    WalLog wal({dir, 4096});
    (void)wal.take_recovery();
    ByteWriter base;
    live.snapshot_exact(base);
    wal.compact(base.data(), 0.0);

    auto log = [&](WalRecord rec) {
      rec.lsn = 0;
      wal.append(rec);
    };
    double t = 1.0;
    WalRecord join;
    join.op = WalOp::kClientJoined;
    join.now = t;
    join.name = "donor-a";
    join.benchmark = 1e6;
    auto a = live.client_joined(join.name, join.benchmark, t);
    join.arg = a;
    log(join);
    join.name = "donor-b";
    auto b = live.client_joined(join.name, join.benchmark, t += 0.5);
    join.now = t;
    join.arg = b;
    log(join);

    for (int round = 0; round < 6; ++round) {
      for (ClientId c : {a, b}) {
        t += 0.25;
        auto unit = live.request_work(c, t);
        WalRecord req;
        req.op = WalOp::kRequestWork;
        req.now = t;
        req.arg = c;
        log(req);
        if (!unit) continue;
        t += 0.25;
        auto result = execute(*unit, problem_data);
        WalRecord sub;
        sub.op = WalOp::kSubmitResult;
        sub.now = t;
        sub.arg = c;
        sub.result = result;
        live.submit_result(c, result, t);
        log(sub);
      }
      t += 0.2;
      live.tick(t);
      WalRecord tick;
      tick.op = WalOp::kTick;
      tick.now = t;
      log(tick);
    }
    t += 0.5;
    live.client_left(b, t);
    WalRecord left;
    left.op = WalOp::kClientLeft;
    left.now = t;
    left.arg = b;
    log(left);
    t += 0.5;
    live.bump_epoch(live.epoch() + 1);
    WalRecord ep;
    ep.op = WalOp::kEpoch;
    ep.now = t;
    ep.arg = live.epoch();
    log(ep);
    wal.sync();
  }

  SchedulerCore replayed(small_config(),
                         std::make_unique<FixedGranularity>(40));
  auto pid2 = replayed.submit_problem(std::make_shared<ToySumDataManager>(400));
  ASSERT_EQ(pid2, pid);
  WalLog wal({dir, 4096});
  auto rec = wal.take_recovery();
  ASSERT_TRUE(rec.base_snapshot.has_value());
  ByteReader r{std::span<const std::byte>(*rec.base_snapshot)};
  replayed.restore_exact(r);
  EXPECT_GT(rec.tail.size(), 10u);
  for (const auto& record : rec.tail) apply_wal_record(replayed, record);

  ByteWriter live_snap, replay_snap;
  live.snapshot_exact(live_snap);
  replayed.snapshot_exact(replay_snap);
  EXPECT_EQ(live_snap.data().size(), replay_snap.data().size());
  EXPECT_TRUE(std::equal(live_snap.data().begin(), live_snap.data().end(),
                         replay_snap.data().begin(), replay_snap.data().end()))
      << "replayed core diverged from the live core";
  fs::remove_all(dir);
}

TEST(Wal, EpochFenceRejectsDeposedPrimaryResults) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(50));
  core.submit_problem(std::make_shared<ToySumDataManager>(200));
  auto problem_data = ToySumDataManager(200).problem_data();
  auto c = core.client_joined("donor", 1e6, 0.0);

  auto unit = core.request_work(c, 1.0);
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->epoch, 1u);  // leases carry the current term
  auto stale = execute(*unit, problem_data);

  // A standby promoted: the term advances, the old lease's echo is fenced.
  core.bump_epoch(2);
  EXPECT_FALSE(core.submit_result(c, stale, 2.0));
  EXPECT_EQ(core.stats().results_rejected_stale_epoch, 1u);

  // Fresh lease under the new term is accepted...
  auto unit2 = core.request_work(c, 3.0);
  ASSERT_TRUE(unit2.has_value());
  EXPECT_EQ(unit2->epoch, 2u);
  EXPECT_TRUE(core.submit_result(c, execute(*unit2, problem_data), 4.0));

  // ...but an unstamped (epoch 0) result answers no lease and is fenced
  // too; the same unit's correctly stamped result still merges.
  auto unit3 = core.request_work(c, 5.0);
  ASSERT_TRUE(unit3.has_value());
  auto unstamped = execute(*unit3, problem_data);
  unstamped.epoch = 0;
  EXPECT_FALSE(core.submit_result(c, unstamped, 6.0));
  EXPECT_EQ(core.stats().results_rejected_stale_epoch, 2u);
  EXPECT_TRUE(core.submit_result(c, execute(*unit3, problem_data), 7.0));

  // Terms are monotonic.
  EXPECT_THROW(core.bump_epoch(1), ProtocolError);
}

TEST(Wal, ReconnectBackoffResetsOnlyAfterHealthySession) {
  ReconnectBackoff backoff(0.1, 1.0);
  EXPECT_DOUBLE_EQ(backoff.current_delay(), 0.0);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.1);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.2);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.4);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.8);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 1.0);  // capped
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 1.0);

  // Reconnecting alone does not reset: a session that dies before any of
  // its results is acked leaves the escalation where it was.
  EXPECT_DOUBLE_EQ(backoff.current_delay(), 1.0);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 1.0);

  // An acked result proves the session healthy and resets the delay, so
  // the donor that survived one blip pays the short initial wait again.
  backoff.session_healthy();
  EXPECT_DOUBLE_EQ(backoff.current_delay(), 0.0);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.1);
}

TEST(Wal, UndecodableRecordRefusedNotTruncated) {
  // A frame whose CRC holds was written whole, so it is no torn tail. A
  // record this build cannot decode — op 3, the retired heartbeat, laid
  // out as the previous build wrote it — must refuse the directory, not
  // truncate it along with every acked result logged after it.
  std::string dir = fresh_dir("wal_refuse");
  {
    WalLog wal({dir, 1 << 20});
    (void)wal.take_recovery();
    for (int i = 0; i < 5; ++i) wal.append(sample_record(WalOp::kTick, 0));
    wal.sync();
  }
  std::string seg;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      seg = entry.path().string();
    }
  }
  ASSERT_FALSE(seg.empty());
  auto frame = [](std::vector<std::byte> payload) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(net::crc32(payload));
    w.raw(payload);
    return w.take();
  };
  auto heartbeat = encode_wal_record(sample_record(WalOp::kRequestWork, 6));
  heartbeat[8] = std::byte{3};  // same body as kRequestWork: one client id
  std::vector<std::byte> appended;
  for (auto payload : {heartbeat,
                       encode_wal_record(sample_record(WalOp::kSubmitResult, 7)),
                       encode_wal_record(sample_record(WalOp::kTick, 8))}) {
    auto bytes = frame(std::move(payload));
    appended.insert(appended.end(), bytes.begin(), bytes.end());
  }
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(appended.data()),
              static_cast<std::streamsize>(appended.size()));
  }
  const auto before = vfs::read_file(seg);

  try {
    WalLog reopened({dir, 1 << 20});
    ADD_FAILURE() << "recovery accepted an undecodable record";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("op 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(vfs::read_file(seg), before) << "the refused log was modified";
  fs::remove_all(dir);
}

TEST(Wal, FsyncFailureEntersFailedStateNotSilence) {
  // The pre-v7 bug: close_segment ignored ::fsync's return value. Now an
  // injected fsync failure must surface as the failed state — append and
  // sync refuse — instead of being silently swallowed.
  std::string dir = fresh_dir("wal_fsyncgate");
  WalLog wal({dir, 1 << 20});
  (void)wal.take_recovery();
  wal.append(sample_record(WalOp::kTick, 0));
  {
    vfs::StorageFaultSpec spec;
    spec.sync_error_prob = 1.0;
    spec.path_filter = "wal_fsyncgate";
    vfs::ScopedStorageFaultPlan scoped(spec);
    EXPECT_THROW(wal.sync(), IoError);
  }
  EXPECT_TRUE(wal.failed());
  // fsyncgate: no retry path exists — both mutations refuse even though
  // the injection plan is gone.
  EXPECT_THROW(wal.sync(), IoError);
  EXPECT_THROW(wal.append(sample_record(WalOp::kTick, 0)), IoError);
}

TEST(Wal, SyncPointOutlivesRotationAndCompaction) {
  // A group commit takes its sync point under the server's lock and fsyncs
  // it after more records, a rotation and a compaction have happened: the
  // handle stays open, and the fsync covers exactly what it was taken at.
  std::string dir = fresh_dir("wal_sync_point");
  vfs::StorageFaultSpec spec;
  spec.path_filter = "wal_sync_point";
  vfs::ScopedStorageFaultPlan scoped(spec);
  WalLog wal({dir, 1024});
  (void)wal.take_recovery();
  wal.append(sample_record(WalOp::kTick, 0));
  wal.append(sample_record(WalOp::kTick, 0));
  const WalLog::SyncPoint point = wal.sync_point();
  EXPECT_EQ(point.lsn, 2u);
  const std::string first_segment = point.file->path();
  const std::uint64_t covered = fs::file_size(first_segment);
  for (int i = 0; i < 200 && wal.segment_count() < 2; ++i) {
    wal.append(sample_record(WalOp::kTick, 0));
  }
  ASSERT_GE(wal.segment_count(), 2u);  // rotated past the point's segment
  WalLog::sync(point);
  EXPECT_GE(scoped.plan().synced_bytes(first_segment), covered);
  wal.compact(std::vector<std::byte>(8), 0);  // unlinks that segment
  WalLog::sync(point);  // still a valid handle, on an unlinked file
  EXPECT_FALSE(wal.failed());

  // Failed: no sync point until a rebuild, whatever a caller holds.
  {
    vfs::StorageFaultSpec fail = spec;
    fail.sync_error_prob = 1.0;
    vfs::ScopedStorageFaultPlan broken(fail);
    const WalLog::SyncPoint doomed = wal.sync_point();
    EXPECT_THROW(WalLog::sync(doomed), IoError);
    wal.fail();
  }
  EXPECT_THROW((void)wal.sync_point(), IoError);
  wal.compact(std::vector<std::byte>(8), 0);
  EXPECT_EQ(wal.sync_point().lsn, wal.next_lsn() - 1);
}

TEST(Wal, WriteFailureMarksFailedAndCompactRebuilds) {
  std::string dir = fresh_dir("wal_rebuild");
  std::vector<std::byte> snapshot(64, std::byte{0xcd});
  WalLog wal({dir, 1 << 20});
  (void)wal.take_recovery();
  for (int i = 0; i < 4; ++i) wal.append(sample_record(WalOp::kTick, 0));
  wal.sync();
  {
    vfs::StorageFaultSpec spec;
    spec.write_error_prob = 1.0;
    spec.path_filter = "wal_rebuild";
    vfs::ScopedStorageFaultPlan scoped(spec);
    EXPECT_THROW(wal.append(sample_record(WalOp::kTick, 0)), IoError);
    EXPECT_GE(scoped.plan().stats().write_errors, 1u);
  }
  EXPECT_TRUE(wal.failed());
  const std::uint64_t lsn_after_failure = wal.next_lsn();
  EXPECT_EQ(lsn_after_failure, 5u);  // the failed append assigned no lsn

  // compact() is the recovery path out of the failed state: the snapshot
  // captures everything (including whatever the broken segments lost), so
  // a successful rebuild makes the log clean again.
  wal.compact(snapshot, 9.0);
  EXPECT_FALSE(wal.failed());
  wal.append(sample_record(WalOp::kRequestWork, 0));
  wal.sync();

  WalLog reopened({dir, 1 << 20});
  auto rec = reopened.take_recovery();
  ASSERT_TRUE(rec.base_snapshot.has_value());
  EXPECT_EQ(*rec.base_snapshot, snapshot);
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].op, WalOp::kRequestWork);
}

TEST(Wal, FaultStormFuzzRecoveryNeverCrashes) {
  // Seeded storms over every WAL operation: whatever the storm did, a
  // clean reopen must yield an lsn-contiguous tail and a consistent
  // next_lsn — shorter history is acceptable, crashes and gaps are not.
  // (torn_rename is exercised against the checkpoint envelope in
  // test_checkpoint.cpp; the WAL's base.ckpt write goes through the same
  // envelope and would surface as ProtocolError, a different contract.)
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::string dir = fresh_dir("wal_fuzz");
    vfs::StorageFaultSpec spec;
    spec.seed = seed;
    spec.write_error_prob = 0.08;
    spec.short_write_prob = 0.05;
    spec.sync_error_prob = 0.08;
    spec.open_error_prob = 0.03;
    spec.unlink_error_prob = 0.10;
    spec.path_filter = "wal_fuzz";
    std::vector<std::byte> snapshot(48, std::byte{0x5e});
    {
      vfs::ScopedStorageFaultPlan scoped(spec);
      std::unique_ptr<WalLog> wal;
      try {
        wal = std::make_unique<WalLog>(WalConfig{dir, 1024});
        (void)wal->take_recovery();
      } catch (const IoError&) {
        continue;  // the storm killed the open itself; nothing to verify
      }
      for (int i = 0; i < 80; ++i) {
        try {
          wal->append(sample_record(op_at(static_cast<std::size_t>(i)), 0));
          if (i % 9 == 0) wal->sync();
        } catch (const IoError&) {
          ASSERT_TRUE(wal->failed());
          try {
            wal->compact(snapshot, static_cast<double>(i));
          } catch (const IoError&) {
            // Still failed; keep trying — later iterations re-attempt.
          }
        }
        if (i == 40) {
          try {
            wal->compact(snapshot, 40.0);
          } catch (const IoError&) {
          }
        }
      }
    }
    // Plan uninstalled: recovery on the real bytes the storm left behind.
    WalLog reopened({dir, 1024});
    auto rec = reopened.take_recovery();
    for (std::size_t i = 1; i < rec.tail.size(); ++i) {
      ASSERT_EQ(rec.tail[i].lsn, rec.tail[i - 1].lsn + 1)
          << "lsn gap after storm seed " << seed;
    }
    if (!rec.tail.empty()) {
      EXPECT_EQ(rec.next_lsn, rec.tail.back().lsn + 1);
    }
    reopened.append(sample_record(WalOp::kTick, 0));  // log is writable again
    reopened.sync();
  }
}

}  // namespace
}  // namespace hdcs::dist
