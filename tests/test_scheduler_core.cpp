#include "dist/scheduler_core.hpp"

#include <gtest/gtest.h>

#include "tests/toy_problem.hpp"
#include "util/error.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumAlgorithm;
using test::ToySumDataManager;

SchedulerConfig small_config() {
  SchedulerConfig cfg;
  cfg.lease_timeout = 10.0;
  cfg.bounds.min_ops = 1;
  cfg.bounds.max_ops = 1e9;
  return cfg;
}

/// Run a unit through the real algorithm and hand the result back.
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

TEST(SchedulerCore, RejectsNullPolicyAndProblem) {
  EXPECT_THROW(SchedulerCore(small_config(), nullptr), InputError);
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  EXPECT_THROW(core.submit_problem(nullptr), InputError);
}

TEST(SchedulerCore, SingleClientRunsProblemToCompletion) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  double t = 0;
  while (!core.problem_complete(pid)) {
    auto unit = core.request_work(cid, t);
    ASSERT_TRUE(unit.has_value()) << "scheduler stalled";
    EXPECT_EQ(unit->problem_id, pid);
    core.submit_result(cid, execute(*unit, data), t + 1);
    t += 1;
  }
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  EXPECT_EQ(core.stats().units_issued, 10u);
  EXPECT_EQ(core.stats().results_accepted, 10u);
  EXPECT_EQ(core.stats().units_reissued, 0u);
}

TEST(SchedulerCore, UnitsCarryUniqueIncreasingIds) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(500);
  core.submit_problem(dm);
  auto cid = core.client_joined("c1", 1e6, 0.0);
  UnitId prev = 0;
  for (int i = 0; i < 5; ++i) {
    auto unit = core.request_work(cid, 0.0);
    ASSERT_TRUE(unit);
    EXPECT_GT(unit->unit_id, prev);
    prev = unit->unit_id;
  }
}

TEST(SchedulerCore, DuplicateResultDropped) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  auto unit = core.request_work(cid, 0.0);
  ASSERT_TRUE(unit);
  auto result = execute(*unit, data);
  EXPECT_TRUE(core.submit_result(cid, result, 1.0));
  EXPECT_FALSE(core.submit_result(cid, result, 2.0));  // duplicate
  EXPECT_EQ(core.stats().duplicate_results_dropped, 1u);
  EXPECT_TRUE(core.problem_complete(pid));
}

TEST(SchedulerCore, UnknownResultDroppedAsStale) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  core.submit_problem(std::make_shared<ToySumDataManager>(1000));
  auto cid = core.client_joined("c1", 1e6, 0.0);
  ResultUnit bogus;
  bogus.problem_id = 999;
  bogus.unit_id = 1;
  bogus.epoch = core.epoch();
  EXPECT_FALSE(core.submit_result(cid, bogus, 0.0));
  EXPECT_EQ(core.stats().stale_results_dropped, 1u);
}

TEST(SchedulerCore, ExpiredLeaseIsReissued) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto slow = core.client_joined("slow", 1e6, 0.0);
  auto fast = core.client_joined("fast", 1e6, 0.0);

  auto unit = core.request_work(slow, 0.0);
  ASSERT_TRUE(unit);
  // Lease timeout is 10s; at t=20 the unit expires.
  core.tick(20.0);
  auto reissued = core.request_work(fast, 21.0);
  ASSERT_TRUE(reissued);
  EXPECT_EQ(reissued->unit_id, unit->unit_id);
  EXPECT_EQ(core.stats().units_reissued, 1u);

  EXPECT_TRUE(core.submit_result(fast, execute(*reissued, data), 22.0));
  EXPECT_TRUE(core.problem_complete(pid));
  // The slow client's late duplicate is dropped.
  EXPECT_FALSE(core.submit_result(slow, execute(*unit, data), 23.0));
}

TEST(SchedulerCore, LateResultFromOriginalOwnerAcceptedBeforeReissue) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  core.tick(20.0);  // expired, sitting in the requeue
  // Original owner submits late, before anyone picked up the reissue.
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 21.0));
  EXPECT_TRUE(core.problem_complete(pid));
  // The requeued copy must be gone: another client gets nothing.
  auto c2 = core.client_joined("c2", 1e6, 21.0);
  EXPECT_FALSE(core.request_work(c2, 22.0).has_value());
}

TEST(SchedulerCore, ClientLeftRequeuesItsUnits) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto leaver = core.client_joined("leaver", 1e6, 0.0);
  auto stayer = core.client_joined("stayer", 1e6, 0.0);

  auto u1 = core.request_work(leaver, 0.0);
  auto u2 = core.request_work(leaver, 0.0);
  ASSERT_TRUE(u1 && u2);
  core.client_left(leaver, 1.0);

  // The stayer gets both units back (reissues) and finishes the problem.
  while (!core.problem_complete(pid)) {
    auto unit = core.request_work(stayer, 2.0);
    ASSERT_TRUE(unit);
    core.submit_result(stayer, execute(*unit, data), 3.0);
  }
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  EXPECT_THROW(core.request_work(leaver, 4.0), InputError);
}

TEST(SchedulerCore, EwmaTracksObservedThroughput) {
  auto cfg = small_config();
  cfg.ewma_alpha = 0.5;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(100000);
  core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  // Complete a unit of 1000 ops in 2 seconds -> 500 ops/s.
  auto unit = core.request_work(cid, 0.0);
  ASSERT_TRUE(unit);
  core.submit_result(cid, execute(*unit, data), 2.0);
  const auto* stats = core.client_stats(cid);
  ASSERT_NE(stats, nullptr);
  EXPECT_NEAR(stats->ewma_ops_per_sec, 500.0, 1e-6);

  // Second unit in 1 second -> rate 1000; EWMA(0.5) -> 750.
  auto unit2 = core.request_work(cid, 2.0);
  ASSERT_TRUE(unit2);
  core.submit_result(cid, execute(*unit2, data), 3.0);
  EXPECT_NEAR(stats->ewma_ops_per_sec, 750.0, 1e-6);
}

TEST(SchedulerCore, StagedProblemBlocksAtBarrier) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(400, 0, /*stages=*/2);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  // Drain stage 0 units (200 ops in 2 units of 100).
  auto u1 = core.request_work(cid, 0.0);
  auto u2 = core.request_work(cid, 0.0);
  ASSERT_TRUE(u1 && u2);
  EXPECT_EQ(u1->stage, 0u);
  EXPECT_EQ(u2->stage, 0u);
  // Barrier: no stage-1 unit until both results are in.
  EXPECT_FALSE(core.request_work(cid, 0.0).has_value());
  core.submit_result(cid, execute(*u1, data), 1.0);
  EXPECT_FALSE(core.request_work(cid, 1.0).has_value());
  core.submit_result(cid, execute(*u2, data), 2.0);

  auto u3 = core.request_work(cid, 3.0);
  ASSERT_TRUE(u3);
  EXPECT_EQ(u3->stage, 1u);
  core.submit_result(cid, execute(*u3, data), 3.5);

  while (!core.problem_complete(pid)) {
    auto unit = core.request_work(cid, 4.0);
    ASSERT_TRUE(unit);
    core.submit_result(cid, execute(*unit, data), 5.0);
  }
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
}

TEST(SchedulerCore, MultiProblemInterleavingFillsBarrierIdleTime) {
  // Two staged problems: when one is stage-blocked the scheduler serves
  // the other — the mechanism behind running 6 DPRml instances (Fig. 2).
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm_a = std::make_shared<ToySumDataManager>(200, 0, /*stages=*/2);
  auto dm_b = std::make_shared<ToySumDataManager>(200, 7, /*stages=*/2);
  auto pa = core.submit_problem(dm_a);
  auto pb = core.submit_problem(dm_b);
  auto data_a = dm_a->problem_data();
  auto data_b = dm_b->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  // Take stage-0 unit from A (A has one more stage-0 unit).
  auto ua = core.request_work(cid, 0.0);
  ASSERT_TRUE(ua);
  // Round-robin: next requests drain both problems' stage 0 units, then
  // hit both barriers — but only after serving from B too.
  bool served_b = false;
  std::vector<WorkUnit> held;
  while (auto u = core.request_work(cid, 0.0)) {
    if (u->problem_id == pb) served_b = true;
    held.push_back(*u);
    if (held.size() > 10) break;
  }
  EXPECT_TRUE(served_b) << "scheduler never interleaved problem B";

  // Finish everything.
  auto finish = [&](const WorkUnit& u) {
    core.submit_result(cid, execute(u, u.problem_id == pa ? data_a : data_b), 1.0);
  };
  finish(*ua);
  for (const auto& u : held) finish(u);
  while (!core.all_complete()) {
    auto u = core.request_work(cid, 2.0);
    ASSERT_TRUE(u);
    finish(*u);
  }
  EXPECT_EQ(test::read_u64_result(core.final_result(pa)), dm_a->expected());
  EXPECT_EQ(test::read_u64_result(core.final_result(pb)), dm_b->expected());
}

TEST(SchedulerCore, RequeuedUnitsServedBeforeFreshOnes) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(10000);
  core.submit_problem(dm);
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto u1 = core.request_work(c1, 0.0);
  ASSERT_TRUE(u1);
  core.client_left(c1, 1.0);  // u1 requeued

  auto c2 = core.client_joined("c2", 1e6, 1.0);
  auto u2 = core.request_work(c2, 2.0);
  ASSERT_TRUE(u2);
  EXPECT_EQ(u2->unit_id, u1->unit_id) << "requeued unit should be served first";
}

TEST(SchedulerCore, HedgingRescuesStragglerBeforeLeaseExpiry) {
  auto cfg = small_config();
  cfg.lease_timeout = 1000.0;  // expiry alone would take ages
  cfg.hedge_endgame = true;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto slow = core.client_joined("slow", 1e6, 0.0);
  auto fast = core.client_joined("fast", 1e6, 0.0);

  // The straggler takes a unit and never returns it.
  auto stuck = core.request_work(slow, 0.0);
  ASSERT_TRUE(stuck);
  // The fast client drains the rest...
  auto u2 = core.request_work(fast, 1.0);
  ASSERT_TRUE(u2);
  core.submit_result(fast, execute(*u2, data), 2.0);
  // ...and then, instead of idling until t=1000, is hedged the stuck unit.
  auto hedged = core.request_work(fast, 3.0);
  ASSERT_TRUE(hedged);
  EXPECT_EQ(hedged->unit_id, stuck->unit_id);
  EXPECT_EQ(core.stats().units_hedged, 1u);

  core.submit_result(fast, execute(*hedged, data), 4.0);
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  // The straggler's eventual result is a harmless duplicate.
  EXPECT_FALSE(core.submit_result(slow, execute(*stuck, data), 900.0));
}

TEST(SchedulerCore, HedgingBoundedByAttemptCap) {
  auto cfg = small_config();
  cfg.lease_timeout = 1000.0;
  cfg.hedge_endgame = true;
  static_assert(kMaxHedgesPerUnit == 1, "the attempts below assume one hedge");
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  core.submit_problem(dm);
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);
  auto c3 = core.client_joined("c3", 1e6, 0.0);

  auto original = core.request_work(c1, 0.0);  // attempt 1
  ASSERT_TRUE(original);
  auto hedge1 = core.request_work(c2, 1.0);  // attempt 2 (= 1 + cap)
  ASSERT_TRUE(hedge1);
  EXPECT_EQ(hedge1->unit_id, original->unit_id);
  // Cap reached: no further hedging, and no self-steal either.
  EXPECT_FALSE(core.request_work(c3, 2.0).has_value());
  EXPECT_FALSE(core.request_work(c2, 3.0).has_value());
}

TEST(SchedulerCore, HedgingOffByDefault) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  core.submit_problem(dm);
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);
  ASSERT_TRUE(core.request_work(c1, 0.0));
  EXPECT_FALSE(core.request_work(c2, 1.0).has_value());
  EXPECT_EQ(core.stats().units_hedged, 0u);
}

TEST(SchedulerCore, PoisonUnitQuarantinedAfterAttemptCap) {
  auto cfg = small_config();
  cfg.max_attempts_per_unit = 3;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);  // one unit total
  auto pid = core.submit_problem(dm);
  auto cid = core.client_joined("c1", 1e6, 0.0);

  // A unit that crashes every donor that touches it: take it, let the
  // lease expire, repeat. Each expiry burns one attempt.
  double t = 0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    auto unit = core.request_work(cid, t);
    ASSERT_TRUE(unit) << "attempt " << attempt;
    t += 20.0;       // lease_timeout is 10s
    core.tick(t);    // expires the lease
    // tick() also expires the silent client; re-join to keep requesting.
    if (core.active_client_count() == 0) {
      cid = core.client_joined("c1", 1e6, t);
    }
  }
  // Attempt cap burned: the unit is quarantined, not reissued.
  EXPECT_FALSE(core.request_work(cid, t + 1).has_value());
  EXPECT_EQ(core.stats().units_quarantined, 1u);
  EXPECT_FALSE(core.problem_complete(pid));
  // Quarantined units are parked, not in flight.
  EXPECT_EQ(core.in_flight_units(), 0u);
}

TEST(SchedulerCore, QuarantinedUnitRescuedByGenuineLateResult) {
  auto cfg = small_config();
  cfg.max_attempts_per_unit = 1;  // quarantine on the first failure
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("c1", 1e6, 0.0);

  auto unit = core.request_work(cid, 0.0);
  ASSERT_TRUE(unit);
  core.tick(20.0);  // expired -> straight to quarantine (cap = 1)
  EXPECT_EQ(core.stats().units_quarantined, 1u);

  // The "dead" donor was merely slow: its genuine result still lands, and
  // the problem completes instead of being stuck in quarantine forever.
  EXPECT_TRUE(core.submit_result(cid, execute(*unit, data), 30.0));
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
}

TEST(SchedulerCore, NoQuarantineWhenCapUnset) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  core.submit_problem(dm);

  double t = 0;
  for (int i = 0; i < 6; ++i) {
    auto cid = core.client_joined("c", 1e6, t);
    ASSERT_TRUE(core.request_work(cid, t).has_value()) << "round " << i;
    t += 20.0;
    core.tick(t);
  }
  EXPECT_EQ(core.stats().units_quarantined, 0u);
  EXPECT_GE(core.stats().units_reissued, 5u);
}

TEST(SchedulerCore, ClientCrashAttemptsCountTowardQuarantine) {
  auto cfg = small_config();
  cfg.max_attempts_per_unit = 2;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1000));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  core.submit_problem(dm);

  // Two donors take the unit and leave without finishing it: client_left
  // requeues count as failed attempts just like lease expiries.
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  ASSERT_TRUE(core.request_work(c1, 0.0));
  core.client_left(c1, 1.0);
  auto c2 = core.client_joined("c2", 1e6, 2.0);
  ASSERT_TRUE(core.request_work(c2, 2.0));
  core.client_left(c2, 3.0);

  auto c3 = core.client_joined("c3", 1e6, 4.0);
  EXPECT_FALSE(core.request_work(c3, 4.0).has_value());
  EXPECT_EQ(core.stats().units_quarantined, 1u);
}

TEST(SchedulerCore, FinalResultBeforeCompletionThrows) {
  SchedulerCore core(small_config(), std::make_unique<FixedGranularity>(100));
  auto pid = core.submit_problem(std::make_shared<ToySumDataManager>(1000));
  EXPECT_THROW(core.final_result(pid), Error);
  EXPECT_THROW(core.final_result(999), InputError);
}

TEST(SchedulerCore, GranularityBoundsClampPolicy) {
  auto cfg = small_config();
  cfg.bounds.min_ops = 50;
  cfg.bounds.max_ops = 120;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(1e9));
  auto dm = std::make_shared<ToySumDataManager>(10000);
  core.submit_problem(dm);
  auto cid = core.client_joined("c1", 1e6, 0.0);
  auto unit = core.request_work(cid, 0.0);
  ASSERT_TRUE(unit);
  EXPECT_LE(unit->cost_ops, 120.0);
  EXPECT_GE(unit->cost_ops, 1.0);
}

TEST(SchedulerCore, PerClientOutstandingCapLimitsInFlight) {
  auto cfg = small_config();
  cfg.max_outstanding_per_client = 2;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto cid = core.client_joined("greedy", 1e6, 0.0);

  // The cap bites on the third concurrent request...
  auto u1 = core.request_work(cid, 0.0);
  auto u2 = core.request_work(cid, 0.0);
  ASSERT_TRUE(u1);
  ASSERT_TRUE(u2);
  EXPECT_FALSE(core.request_work(cid, 0.0));
  EXPECT_EQ(core.stats().work_requests_unserved, 1u);
  // ...but never wedges anyone else or overall progress: a second client
  // still gets work, and completing a unit frees a slot.
  auto other = core.client_joined("other", 1e6, 0.0);
  EXPECT_TRUE(core.request_work(other, 0.0));
  EXPECT_TRUE(core.submit_result(cid, execute(*u1, data), 1.0));
  EXPECT_TRUE(core.request_work(cid, 1.0));

  // Cap 0 (the default) means unbounded.
  SchedulerCore open(small_config(), std::make_unique<FixedGranularity>(100));
  auto dm2 = std::make_shared<ToySumDataManager>(1000);
  open.submit_problem(dm2);
  auto cid2 = open.client_joined("c", 1e6, 0.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(open.request_work(cid2, 0.0));
  (void)pid;
}

}  // namespace
}  // namespace hdcs::dist
