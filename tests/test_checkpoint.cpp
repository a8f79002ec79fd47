// Restart from the scheduler's state image: a server restart in the middle
// of a computation must lose nothing — merged progress survives via
// DataManager snapshots inside SchedulerCore::snapshot_exact(), and
// in-flight units survive because the scheduler keeps their payloads and
// the new term's client sweep requeues every lease of the dead
// incarnation. Over TCP the image is the WAL's base plus its record tail.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bio/seqgen.hpp"
#include "dboot/dboot.hpp"
#include "dist/checkpoint_file.hpp"
#include "dist/client.hpp"
#include "dist/scheduler_core.hpp"
#include "dist/server.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "obs/metrics.hpp"
#include "phylo/simulate.hpp"
#include "tests/restart.hpp"
#include "tests/toy_problem.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {
namespace {

using test::restart_from;
using test::state_image;
using test::ToySumDataManager;

SchedulerConfig cfg() {
  SchedulerConfig c;
  c.lease_timeout = 1e6;
  c.bounds.min_ops = 1;
  return c;
}

/// A donor's answer to the lease `u`: the algorithm's payload, echoing the
/// lease's epoch as dist::Client does.
ResultUnit answer(Algorithm& algo, const WorkUnit& u) {
  ResultUnit r;
  r.problem_id = u.problem_id;
  r.unit_id = u.unit_id;
  r.stage = u.stage;
  r.epoch = u.epoch;
  r.payload = algo.process(u);
  return r;
}

/// Drive `core` for `steps` request/submit cycles using the toy algorithm.
template <typename Exec>
void drive(SchedulerCore& core, ClientId cid, Exec&& execute, int steps,
           double& t) {
  for (int i = 0; i < steps; ++i) {
    auto unit = core.request_work(cid, t);
    if (!unit) return;
    core.materialize_unit_blobs(*unit);
    core.submit_result(cid, execute(*unit), t + 0.5);
    t += 1;
  }
}

TEST(Checkpoint, ToyProblemSurvivesRestartMidRun) {
  test::register_toy_algorithm();
  auto make_dm = [] {
    return std::make_shared<ToySumDataManager>(100000, 7, /*stages=*/3);
  };

  // Uninterrupted reference run.
  std::uint64_t expected = make_dm()->expected();

  // Run 1: do part of the work, leave units in flight, take the image.
  SchedulerCore core1(cfg(), std::make_unique<FixedGranularity>(5000));
  auto dm1 = make_dm();
  core1.submit_problem(dm1);
  auto data = dm1->problem_data();
  test::ToySumAlgorithm algo;
  algo.initialize(data);
  auto execute = [&](const WorkUnit& u) { return answer(algo, u); };
  auto c1 = core1.client_joined("c1", 1e6, 0.0);
  double t = 0;
  drive(core1, c1, execute, 3, t);
  // Take two more units WITHOUT submitting: in flight at image time.
  ASSERT_TRUE(core1.request_work(c1, t));
  ASSERT_TRUE(core1.request_work(c1, t));
  auto image = state_image(core1);
  // The first core "crashes" here.

  // Run 2: fresh core, same problem inputs, restart, finish.
  SchedulerCore core2(cfg(), std::make_unique<FixedGranularity>(5000));
  auto dm2 = make_dm();
  auto pid2 = core2.submit_problem(dm2);
  restart_from(image, core2, t);

  auto c2 = core2.client_joined("fresh-donor", 1e6, t);
  int spins = 0;
  while (!core2.problem_complete(pid2)) {
    auto unit = core2.request_work(c2, t);
    ASSERT_TRUE(unit) << "restarted core stalled";
    core2.submit_result(c2, execute(*unit), t + 0.5);
    t += 1;
    ASSERT_LT(++spins, 10000);
  }
  EXPECT_EQ(test::read_u64_result(core2.final_result(pid2)), expected);
  // The two in-flight units were re-delivered, not lost.
  EXPECT_GE(core2.stats().units_reissued, 2u);
}

TEST(Checkpoint, RestoreValidatesShape) {
  test::register_toy_algorithm();
  SchedulerCore core(cfg(), std::make_unique<FixedGranularity>(100));
  core.submit_problem(std::make_shared<ToySumDataManager>(1000));
  auto image = state_image(core);
  auto restore_into = [](SchedulerCore& target,
                         const std::vector<std::byte>& bytes) {
    ByteReader r{std::span<const std::byte>(bytes)};
    target.restore_exact(r);
  };

  // Restoring into a core with a different problem count fails.
  SchedulerCore empty(cfg(), std::make_unique<FixedGranularity>(100));
  EXPECT_THROW(restore_into(empty, image), ProtocolError);

  // A damaged magic, an image from an older format version (v1 still
  // listed every merged unit id) and a truncated image are all refused.
  auto fresh = [] {
    auto c = std::make_unique<SchedulerCore>(
        cfg(), std::make_unique<FixedGranularity>(100));
    c->submit_problem(std::make_shared<ToySumDataManager>(1000));
    return c;
  };
  auto bad_magic = image;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_THROW(restore_into(*fresh(), bad_magic), ProtocolError);
  auto old_version = image;
  ByteWriter v1;
  v1.u32(1);
  std::copy(v1.data().begin(), v1.data().end(), old_version.begin() + 4);
  EXPECT_THROW(restore_into(*fresh(), old_version), ProtocolError);
  auto truncated = image;
  truncated.resize(image.size() / 2);
  EXPECT_THROW(restore_into(*fresh(), truncated), ProtocolError);

  // The intact image restores byte-identically.
  auto ok = fresh();
  restore_into(*ok, image);
  EXPECT_EQ(state_image(*ok), image);
}

TEST(Checkpoint, RefusedRestoreLeavesCoreUnchanged) {
  // restore_exact is all or nothing: the decoder reaches the problem count
  // and the DataManager states only after it has read stats, blobs, clients
  // and reputation, so a refused image must be undone, not left half
  // applied (a standby whose resync is refused may still promote).
  test::register_toy_algorithm();
  test::ToySumAlgorithm algo;
  auto progressed = [&](int problems, const char* donor, int steps) {
    auto core = std::make_unique<SchedulerCore>(
        cfg(), std::make_unique<FixedGranularity>(5000));
    for (int i = 0; i < problems; ++i) {
      core->submit_problem(std::make_shared<ToySumDataManager>(100000));
    }
    auto data = ToySumDataManager(100000).problem_data();
    algo.initialize(data);
    auto cid = core->client_joined(donor, 1e6, 0.0);
    double t = 0;
    drive(*core, cid, [&](const WorkUnit& u) { return answer(algo, u); },
          steps, t);
    EXPECT_TRUE(core->request_work(cid, t));  // one lease in flight
    return core;
  };
  auto restore_into = [](SchedulerCore& target,
                         const std::vector<std::byte>& bytes) {
    ByteReader r{std::span<const std::byte>(bytes)};
    target.restore_exact(r);
  };

  auto live = progressed(1, "live-donor", 2);
  const auto before = state_image(*live);
  const auto other = state_image(*progressed(1, "other-donor", 5));
  ASSERT_NE(other, before);

  auto truncated = other;
  truncated.resize(other.size() - 8);
  EXPECT_THROW(restore_into(*live, truncated), ProtocolError);
  EXPECT_EQ(state_image(*live), before) << "truncated image half-applied";

  const auto two_problems = state_image(*progressed(2, "other-donor", 3));
  EXPECT_THROW(restore_into(*live, two_problems), ProtocolError);
  EXPECT_EQ(state_image(*live), before) << "wrong-count image half-applied";

  // An image it accepts still replaces the state outright.
  restore_into(*live, other);
  EXPECT_EQ(state_image(*live), other);
}

TEST(Checkpoint, DSearchResumeMatchesUninterrupted) {
  dsearch::register_algorithm();
  Rng rng(21);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto reference = dsearch::search_serial(queries, database, dcfg);

  SchedulerCore core1(cfg(), std::make_unique<FixedGranularity>(2e5));
  auto dm1 =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  core1.submit_problem(dm1);
  dsearch::DSearchAlgorithm algo;
  auto data = dm1->problem_data();
  algo.initialize(data);
  auto execute = [&](const WorkUnit& u) { return answer(algo, u); };
  auto c1 = core1.client_joined("c1", 1e6, 0.0);
  double t = 0;
  drive(core1, c1, execute, 2, t);
  ASSERT_TRUE(core1.request_work(c1, t));  // one unit left in flight
  auto image = state_image(core1);

  SchedulerCore core2(cfg(), std::make_unique<FixedGranularity>(2e5));
  auto dm2 =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto pid2 = core2.submit_problem(dm2);
  restart_from(image, core2, t);
  auto c2 = core2.client_joined("c2", 1e6, t);
  while (!core2.problem_complete(pid2)) {
    auto unit = core2.request_work(c2, t);
    ASSERT_TRUE(unit);
    core2.materialize_unit_blobs(*unit);
    core2.submit_result(c2, execute(*unit), t);
    t += 1;
  }
  EXPECT_EQ(dm2->result(), reference);
}

TEST(Checkpoint, DPRmlResumeMidStageMatchesSerial) {
  dprml::register_algorithm();
  Rng rng(23);
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto model = phylo::SubstModel::jc69();
  auto aln = phylo::simulate_alignment(rng, tree, model,
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;
  auto serial = dprml::build_tree_serial(aln, pcfg);

  SchedulerCore core1(cfg(), std::make_unique<FixedGranularity>(1.0));
  auto dm1 = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  core1.submit_problem(dm1);
  dprml::DPRmlAlgorithm algo;
  auto data = dm1->problem_data();
  algo.initialize(data);
  auto execute = [&](const WorkUnit& u) { return answer(algo, u); };
  auto c1 = core1.client_joined("c1", 1e6, 0.0);
  double t = 0;
  // Get into the middle of an eval stage, with one candidate in flight.
  drive(core1, c1, execute, 4, t);
  core1.request_work(c1, t);  // may be nullopt at a barrier — also fine
  auto image = state_image(core1);

  SchedulerCore core2(cfg(), std::make_unique<FixedGranularity>(1.0));
  auto dm2 = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  auto pid2 = core2.submit_problem(dm2);
  restart_from(image, core2, t);
  auto c2 = core2.client_joined("c2", 1e6, t);
  int spins = 0;
  while (!core2.problem_complete(pid2)) {
    auto unit = core2.request_work(c2, t);
    t += 1;
    if (!unit) {
      ASSERT_LT(++spins, 100000) << "restarted DPRml stalled";
      continue;
    }
    core2.materialize_unit_blobs(*unit);
    core2.submit_result(c2, execute(*unit), t);
  }
  auto resumed = dm2->result();
  EXPECT_EQ(resumed.newick, serial.newick);
  EXPECT_DOUBLE_EQ(resumed.log_likelihood, serial.log_likelihood);
}

TEST(Checkpoint, ServerLevelRestartOverTcp) {
  // A server restarted on the same WAL directory resumes from the log:
  // the result acked before the stop is not recomputed, and the lease the
  // crashed donor held goes back to the queue.
  test::register_toy_algorithm();
  std::string wal_dir = testing::TempDir() + "hdcs_ckpt_tcp_wal";
  std::filesystem::remove_all(wal_dir);
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:400000";  // 5 units
  scfg.tick_interval_s = 0.05;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;

  std::uint64_t expected = ToySumDataManager(2000000, 5).expected();
  {
    Server server(scfg);
    server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    // One donor does a single unit, then the server "crashes".
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "early-bird";
    ccfg.crash_after_units = 2;  // computes one, crashes on the 2nd
    Client(ccfg).run();
    EXPECT_EQ(server.stats().results_accepted, 1u);
    server.stop();
  }
  {
    Server server(scfg);
    auto pid = server.submit_problem(
        std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();  // restore_exact + replay + new term
    EXPECT_EQ(server.stats().results_accepted, 1u);
    EXPECT_EQ(server.epoch(), 2u);
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "finisher";
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    EXPECT_EQ(test::read_u64_result(server.final_result(pid)), expected);
    EXPECT_EQ(server.stats().results_accepted, 5u);  // none merged twice
    server.stop();
  }
  std::filesystem::remove_all(wal_dir);
}

TEST(Checkpoint, HedgedDuplicateInFlightAcrossRestoreDropped) {
  test::register_toy_algorithm();
  auto c = cfg();
  c.hedge_endgame = true;
  SchedulerCore core1(c, std::make_unique<FixedGranularity>(1000));
  auto dm1 = std::make_shared<ToySumDataManager>(1000, 3);  // one unit
  core1.submit_problem(dm1);
  auto data = dm1->problem_data();
  test::ToySumAlgorithm algo;
  algo.initialize(data);
  auto execute = [&](const WorkUnit& u) { return answer(algo, u); };

  // Two donors race the same unit (endgame hedge), then the server dies
  // with the hedged unit still in flight.
  auto slow = core1.client_joined("slow", 1e6, 0.0);
  auto fast = core1.client_joined("fast", 1e6, 0.0);
  auto original = core1.request_work(slow, 0.0);
  ASSERT_TRUE(original);
  auto hedged = core1.request_work(fast, 1.0);
  ASSERT_TRUE(hedged);
  ASSERT_EQ(hedged->unit_id, original->unit_id);
  auto image = state_image(core1);

  SchedulerCore core2(c, std::make_unique<FixedGranularity>(1000));
  auto dm2 = std::make_shared<ToySumDataManager>(1000, 3);
  auto pid2 = core2.submit_problem(dm2);
  restart_from(image, core2, 2.0);
  // Both leases were swept; the unit is queued once, not twice.
  EXPECT_EQ(core2.pending_units(), 1u);

  // A fresh donor finishes the requeued unit. Both old racers' buffered
  // results then arrive late (resubmitted after their reconnect) under
  // the dead term and are fenced; a repeat of the accepted result is a
  // duplicate. Stats stay exact: one accept, nothing merged twice.
  auto fresh = core2.client_joined("fresh", 1e6, 2.0);
  auto reissued = core2.request_work(fresh, 2.0);
  ASSERT_TRUE(reissued);
  EXPECT_EQ(reissued->unit_id, original->unit_id);
  EXPECT_TRUE(core2.submit_result(fresh, execute(*reissued), 3.0));
  EXPECT_TRUE(core2.problem_complete(pid2));

  auto late1 = core2.client_joined("slow-rejoined", 1e6, 4.0);
  auto late2 = core2.client_joined("fast-rejoined", 1e6, 4.0);
  EXPECT_FALSE(core2.submit_result(late1, execute(*original), 5.0));
  EXPECT_FALSE(core2.submit_result(late2, execute(*hedged), 5.0));
  EXPECT_EQ(core2.stats().results_rejected_stale_epoch, 2u);
  EXPECT_FALSE(core2.submit_result(fresh, execute(*reissued), 6.0));
  EXPECT_EQ(core2.stats().duplicate_results_dropped, 1u);
  EXPECT_EQ(core2.stats().results_accepted, 1u);
  EXPECT_EQ(test::read_u64_result(core2.final_result(pid2)),
            ToySumDataManager(1000, 3).expected());
}

TEST(Checkpoint, EpochFenceRejectsResultsForReusedIdsAfterRestart) {
  test::register_toy_algorithm();
  SchedulerCore core1(cfg(), std::make_unique<FixedGranularity>(1000));
  auto dm1 = std::make_shared<ToySumDataManager>(10000);
  core1.submit_problem(dm1);
  auto data = dm1->problem_data();
  test::ToySumAlgorithm algo;
  algo.initialize(data);
  auto c1 = core1.client_joined("c1", 1e6, 0.0);

  auto image = state_image(core1);
  // A unit issued AFTER the durable image: its id dies with the crash.
  auto lost = core1.request_work(c1, 1.0);
  ASSERT_TRUE(lost);

  SchedulerCore core2(cfg(), std::make_unique<FixedGranularity>(1000));
  auto dm2 = std::make_shared<ToySumDataManager>(10000);
  core2.submit_problem(dm2);
  restart_from(image, core2, 2.0);

  // The restarted core reuses the lost id for its next unit; only the
  // term tells the two leases apart.
  auto c2 = core2.client_joined("c2", 1e6, 2.0);
  auto fresh = core2.request_work(c2, 2.0);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->unit_id, lost->unit_id);
  EXPECT_GT(fresh->epoch, lost->epoch);

  // A reconnecting donor's buffered result for the lost lease is fenced,
  // and so is the same result unstamped — never merged into the new unit.
  auto stale = answer(algo, *lost);
  EXPECT_FALSE(core2.submit_result(c2, stale, 3.0));
  stale.epoch = 0;
  EXPECT_FALSE(core2.submit_result(c2, stale, 3.0));
  EXPECT_EQ(core2.stats().results_rejected_stale_epoch, 2u);
  EXPECT_EQ(core2.stats().results_accepted, 0u);
  EXPECT_TRUE(core2.submit_result(c2, answer(algo, *fresh), 4.0));
}

TEST(Checkpoint, AttemptCountsAndQuarantineSurviveRestore) {
  test::register_toy_algorithm();
  auto c = cfg();
  c.lease_timeout = 10.0;
  c.max_attempts_per_unit = 2;
  SchedulerCore core1(c, std::make_unique<FixedGranularity>(1000));
  auto dm1 = std::make_shared<ToySumDataManager>(1000);
  core1.submit_problem(dm1);
  auto data = dm1->problem_data();
  test::ToySumAlgorithm algo;
  algo.initialize(data);

  // Burn attempt 1 before the crash.
  auto c1 = core1.client_joined("c1", 1e6, 0.0);
  auto unit = core1.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  core1.tick(20.0);  // expired: attempt 1 of 2 burned, unit requeued
  auto image = state_image(core1);

  // The restarted core remembers the burned attempt: one more failure
  // quarantines the unit instead of starting the count over.
  SchedulerCore core2(c, std::make_unique<FixedGranularity>(1000));
  auto dm2 = std::make_shared<ToySumDataManager>(1000);
  core2.submit_problem(dm2);
  restart_from(image, core2, 21.0);
  auto c2 = core2.client_joined("c2", 1e6, 21.0);
  ASSERT_TRUE(core2.request_work(c2, 21.0));  // attempt 2
  core2.tick(40.0);
  EXPECT_EQ(core2.stats().units_quarantined, 1u);
  auto c3 = core2.client_joined("c3", 1e6, 41.0);
  EXPECT_FALSE(core2.request_work(c3, 41.0).has_value());

  // Quarantine itself survives: a third incarnation still refuses to
  // reissue the unit, and a genuine late result in its term still
  // rescues it.
  SchedulerCore core3(c, std::make_unique<FixedGranularity>(1000));
  auto dm3 = std::make_shared<ToySumDataManager>(1000);
  auto pid3 = core3.submit_problem(dm3);
  restart_from(state_image(core2), core3, 50.0);
  auto c4 = core3.client_joined("c4", 1e6, 50.0);
  EXPECT_FALSE(core3.request_work(c4, 50.0).has_value());
  ResultUnit genuine = answer(algo, *unit);
  genuine.epoch = core3.epoch();
  EXPECT_TRUE(core3.submit_result(c4, genuine, 51.0));
  EXPECT_TRUE(core3.problem_complete(pid3));
  EXPECT_EQ(test::read_u64_result(core3.final_result(pid3)),
            dm1->expected());
}

TEST(Checkpoint, StateImageSizeIndependentOfMergedUnits) {
  // The image carries no per-merged-unit record: a finished ToySum job
  // images to the same size at 10 units as at 100 000.
  test::register_toy_algorithm();
  auto finished_image_size = [](std::uint64_t units) {
    SchedulerCore core(cfg(), std::make_unique<FixedGranularity>(1));
    auto dm = std::make_shared<ToySumDataManager>(units);
    auto pid = core.submit_problem(dm);
    auto data = dm->problem_data();
    test::ToySumAlgorithm algo;
    algo.initialize(data);
    auto cid = core.client_joined("c", 1e6, 0.0);
    double t = 0;
    while (auto unit = core.request_work(cid, t)) {
      core.submit_result(cid, answer(algo, *unit), t);
      t += 1;
    }
    EXPECT_TRUE(core.problem_complete(pid));
    EXPECT_EQ(core.stats().results_accepted, units);
    return state_image(core).size();
  };
  EXPECT_EQ(finished_image_size(10), finished_image_size(100000));
}

TEST(CheckpointFile, RoundTripAndMissingFile) {
  std::string path = testing::TempDir() + "hdcs_ckpt_roundtrip.bin";
  std::remove(path.c_str());
  EXPECT_EQ(read_checkpoint_file(path), std::nullopt);

  ByteWriter w;
  w.str("durable scheduler state");
  w.u64(123456789);
  auto payload = w.take();
  write_checkpoint_file(path, payload);
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, AtomicOverwriteKeepsLatest) {
  std::string path = testing::TempDir() + "hdcs_ckpt_overwrite.bin";
  ByteWriter w1;
  w1.str("first");
  write_checkpoint_file(path, w1.data());
  ByteWriter w2;
  w2.str("second checkpoint, longer than the first");
  write_checkpoint_file(path, w2.data());
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::vector<std::byte>(w2.data().begin(), w2.data().end()), *back);
  std::remove(path.c_str());
}

TEST(CheckpointFile, CorruptionAndTruncationDetected) {
  std::string path = testing::TempDir() + "hdcs_ckpt_corrupt.bin";
  ByteWriter w;
  w.str("state that must not be trusted after bit rot");
  write_checkpoint_file(path, w.data());

  // Flip one payload byte in place: CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);  // inside the payload (header is 16 bytes)
    char b = 0;
    f.seekg(20);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(20);
    f.write(&b, 1);
  }
  EXPECT_THROW(read_checkpoint_file(path), ProtocolError);

  // Truncate the file mid-payload: also detected, not fed to restore().
  write_checkpoint_file(path, w.data());
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ByteWriter part;
    part.u32(0x484b4350);  // valid magic, then nothing
    f.write(reinterpret_cast<const char*>(part.data().data()),
            static_cast<std::streamsize>(part.data().size()));
  }
  EXPECT_THROW(read_checkpoint_file(path), ProtocolError);
  std::remove(path.c_str());
}

TEST(Checkpoint, ServerAutosavesAndRestoresFromDisk) {
  // WAL compaction is the server's autosave: it folds the log into a
  // fresh base image on disk. A restart reads that base and finishes the
  // job.
  test::register_toy_algorithm();
  std::string wal_dir = testing::TempDir() + "hdcs_ckpt_autosave_wal";
  std::filesystem::remove_all(wal_dir);

  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:400000";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.wal_compact_every = 1;  // every tick folds the log

  std::uint64_t expected = ToySumDataManager(2000000, 5).expected();
  auto& compactions = obs::Registry::global().counter("wal.compactions");

  {
    Server server(scfg);
    server.submit_problem(std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "early-bird";
    ccfg.crash_after_units = 2;  // computes one unit, vanishes on the 2nd
    Client(ccfg).run();
    // Two more compactions: the later one began after the result was
    // acked, so the base on disk holds it.
    std::uint64_t before = compactions.value();
    for (int i = 0; i < 500 && compactions.value() < before + 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(compactions.value(), before + 2);
    server.stop();  // "kill -9": only the WAL directory is carried over
  }
  EXPECT_TRUE(vfs::exists(wal_dir + "/base.ckpt"));
  {
    Server server(scfg);
    auto pid = server.submit_problem(
        std::make_shared<ToySumDataManager>(2000000, 5));
    server.start();
    EXPECT_EQ(server.stats().results_accepted, 1u);
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "finisher";
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    EXPECT_EQ(test::read_u64_result(server.final_result(pid)), expected);
    server.stop();
  }
  std::filesystem::remove_all(wal_dir);
}

TEST(Checkpoint, DBootSnapshotRoundTrips) {
  Rng rng(31);
  auto tree = phylo::random_tree(rng, {6, 0.15, "t"});
  auto model = phylo::SubstModel::jc69();
  auto aln = phylo::simulate_alignment(rng, tree, model,
                                       phylo::RateModel::uniform(), {200});
  dboot::DBootConfig bcfg;
  bcfg.replicates = 20;
  dboot::DBootDataManager dm(aln, bcfg);
  SizeHint hint{1.0};
  ASSERT_TRUE(dm.next_unit(hint));  // one replicate handed out

  ByteWriter w;
  dm.snapshot(w);
  dboot::DBootDataManager dm2(aln, bcfg);
  ByteReader r{std::span<const std::byte>(w.data())};
  dm2.restore(r);
  r.expect_end();
  // The restored manager continues from replicate 1, not 0.
  auto unit = dm2.next_unit(hint);
  ASSERT_TRUE(unit);
  ByteReader pr(unit->payload);
  EXPECT_EQ(pr.u64(), 1u);
}

TEST(CheckpointFile, WriteFailureLeavesOldCheckpointAndNoTmp) {
  std::string path = testing::TempDir() + "hdcs_ckpt_faultclean.bin";
  std::remove(path.c_str());
  ByteWriter w1;
  w1.str("the good old state");
  write_checkpoint_file(path, w1.data());

  ByteWriter w2;
  w2.str("the state the dying disk rejects");
  {
    vfs::StorageFaultSpec spec;
    spec.write_error_prob = 1.0;
    spec.path_filter = "hdcs_ckpt_faultclean";
    vfs::ScopedStorageFaultPlan scoped(spec);
    EXPECT_THROW(write_checkpoint_file(path, w2.data()), IoError);
  }
  // The failed save must not have touched the durable copy, and its tmp
  // must be cleaned up (a tmp graveyard eats the disk budget).
  auto back = read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::vector<std::byte>(w1.data().begin(), w1.data().end()), *back);
  EXPECT_FALSE(vfs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointFile, FaultStormFuzzNeverServesGarbage) {
  // Seeded storms over the tmp+fsync+rename save path, torn renames
  // included: afterwards the file is either the old checkpoint, the new
  // one, or detectably corrupt (ProtocolError) — never silently wrong and
  // never a crash.
  ByteWriter old_w;
  old_w.str("old but consistent scheduler state");
  const auto old_payload =
      std::vector<std::byte>(old_w.data().begin(), old_w.data().end());
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::string path = testing::TempDir() + "hdcs_ckpt_fuzz.bin";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    write_checkpoint_file(path, old_payload);

    ByteWriter new_w;
    new_w.str("new state, seed ");
    new_w.u64(seed);
    const auto new_payload =
        std::vector<std::byte>(new_w.data().begin(), new_w.data().end());
    bool saved = false;
    {
      vfs::StorageFaultSpec spec;
      spec.seed = seed;
      spec.open_error_prob = 0.15;
      spec.write_error_prob = 0.2;
      spec.short_write_prob = 0.15;
      spec.sync_error_prob = 0.2;
      spec.rename_error_prob = 0.15;
      spec.torn_rename_prob = 0.2;
      spec.path_filter = "hdcs_ckpt_fuzz";
      vfs::ScopedStorageFaultPlan scoped(spec);
      try {
        write_checkpoint_file(path, new_payload);
        saved = true;
      } catch (const IoError&) {
      }
    }
    try {
      auto back = read_checkpoint_file(path);
      ASSERT_TRUE(back.has_value()) << "seed " << seed;
      if (saved) {
        EXPECT_EQ(*back, new_payload) << "seed " << seed;
      } else {
        EXPECT_TRUE(*back == old_payload || *back == new_payload)
            << "seed " << seed;
      }
    } catch (const ProtocolError&) {
      // A torn rename left a truncated envelope: detected, not consumed.
      EXPECT_FALSE(saved) << "seed " << seed;
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

}  // namespace
}  // namespace hdcs::dist
