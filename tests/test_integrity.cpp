// Result integrity: replication, quorum voting, donor reputation and the
// client-table hygiene that rides along. Donors cannot be trusted to return
// correct bytes — a lying donor corrupts a payload and signs its lie with a
// matching digest, so only cross-donor digest votes can catch it. These
// tests drive SchedulerCore directly (no transport) with scripted honest
// and lying donors.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "dist/scheduler_core.hpp"
#include "net/bulk.hpp"
#include "obs/trace.hpp"
#include "tests/restart.hpp"
#include "tests/toy_problem.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumAlgorithm;
using test::ToySumDataManager;

SchedulerConfig integrity_config(int replicas = 2, int quorum = 0) {
  SchedulerConfig cfg;
  cfg.lease_timeout = 10.0;
  cfg.bounds.min_ops = 1;
  cfg.bounds.max_ops = 1e9;
  cfg.replication_factor = replicas;
  cfg.quorum = quorum;
  cfg.spot_check_rate = 0.0;  // deterministic unless a test opts in
  return cfg;
}

/// Run a unit through the real algorithm; the digest rides the result like
/// a real donor's SubmitResult frame.
ResultUnit execute(const WorkUnit& unit, std::span<const std::byte> problem_data) {
  ToySumAlgorithm algo;
  algo.initialize(problem_data);
  ResultUnit r;
  r.problem_id = unit.problem_id;
  r.unit_id = unit.unit_id;
  r.stage = unit.stage;
  r.epoch = unit.epoch;
  r.payload = algo.process(unit);
  r.payload_crc = net::crc32(std::span<const std::byte>(r.payload));
  return r;
}

/// A lying donor: flip one byte, then recompute the digest over the lie so
/// the transport-level self-check passes — only voting can catch it.
ResultUnit corrupt(ResultUnit r) {
  r.payload.front() ^= std::byte{0x5a};
  r.payload_crc = net::crc32(std::span<const std::byte>(r.payload));
  return r;
}

int count_events(const obs::Tracer& tracer, const std::string& ev) {
  int n = 0;
  for (const auto& line : tracer.lines()) {
    if (obs::parse_trace_line(line).ev == ev) ++n;
  }
  return n;
}

TEST(SchedulerIntegrity, ReplicatedUnitAcceptedOnlyOnQuorum) {
  SchedulerCore core(integrity_config(2, 2),
                     std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);  // one unit
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  auto replica = core.request_work(c2, 0.0);
  ASSERT_TRUE(replica);
  EXPECT_EQ(replica->unit_id, unit->unit_id);  // the queued second copy
  EXPECT_EQ(replica->payload, unit->payload);

  // The first vote records but must not merge: quorum is 2.
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 1.0));
  EXPECT_FALSE(core.problem_complete(pid));
  EXPECT_EQ(core.stats().results_accepted, 0u);

  EXPECT_TRUE(core.submit_result(c2, execute(*replica, data), 2.0));
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());

  const auto& s = core.stats();
  EXPECT_EQ(s.units_issued, 2u);  // both copies count as issuances
  EXPECT_EQ(s.units_replicated, 1u);
  EXPECT_EQ(s.replicas_issued, 1u);
  EXPECT_EQ(s.votes_recorded, 2u);
  EXPECT_EQ(s.vote_quorums, 1u);
  EXPECT_EQ(s.results_accepted, 1u);
  EXPECT_EQ(s.vote_mismatches, 0u);
  EXPECT_EQ(s.results_rejected_mismatch, 0u);

  // Both voters won; reputation moves up from the 0.5 prior.
  ASSERT_NE(core.reputation("c1"), nullptr);
  EXPECT_EQ(core.reputation("c1")->vote_wins, 1u);
  EXPECT_DOUBLE_EQ(core.reputation("c1")->score, 0.6);
  EXPECT_EQ(core.reputation("c2")->vote_wins, 1u);

  // Resubmission after the quorum is an ordinary duplicate.
  EXPECT_FALSE(core.submit_result(c1, execute(*unit, data), 3.0));
  EXPECT_EQ(core.stats().duplicate_results_dropped, 1u);
}

TEST(SchedulerIntegrity, ReplicasGoToDistinctDonors) {
  SchedulerCore core(integrity_config(2, 2),
                     std::make_unique<FixedGranularity>(500));
  core.submit_problem(std::make_shared<ToySumDataManager>(500));
  auto c1 = core.client_joined("c1", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  // The only other copy in the system is this unit's replica, and c1 must
  // never be handed its own replica — one donor voting twice is no vote.
  EXPECT_FALSE(core.request_work(c1, 1.0));
  auto c2 = core.client_joined("c2", 1e6, 2.0);
  auto replica = core.request_work(c2, 2.0);
  ASSERT_TRUE(replica);
  EXPECT_EQ(replica->unit_id, unit->unit_id);
}

TEST(SchedulerIntegrity, LyingDonorLosesVoteAndTieBreakerResolves) {
  obs::Tracer tracer;
  tracer.to_memory();
  SchedulerCore core(integrity_config(2, 2),
                     std::make_unique<FixedGranularity>(500));
  core.set_tracer(&tracer);
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto honest1 = core.client_joined("honest1", 1e6, 0.0);
  auto liar = core.client_joined("liar", 1e6, 0.0);
  auto honest2 = core.client_joined("honest2", 1e6, 0.0);

  auto unit = core.request_work(honest1, 0.0);
  ASSERT_TRUE(unit);
  auto replica = core.request_work(liar, 0.0);
  ASSERT_TRUE(replica);

  // The lie is recorded as a vote (it is self-consistent), then the honest
  // vote arrives: 1 vs 1, no quorum — a tie-breaker replica is queued.
  EXPECT_TRUE(core.submit_result(liar, corrupt(execute(*replica, data)), 1.0));
  EXPECT_TRUE(core.submit_result(honest1, execute(*unit, data), 2.0));
  EXPECT_FALSE(core.problem_complete(pid));
  EXPECT_EQ(core.stats().vote_mismatches, 1u);

  auto tie_breaker = core.request_work(honest2, 3.0);
  ASSERT_TRUE(tie_breaker);
  EXPECT_EQ(tie_breaker->unit_id, unit->unit_id);
  EXPECT_TRUE(core.submit_result(honest2, execute(*tie_breaker, data), 4.0));

  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  EXPECT_EQ(core.stats().vote_quorums, 1u);
  EXPECT_EQ(core.stats().results_rejected_mismatch, 1u);

  // Reputation: winners up, the liar down (0.5 -> 0.4 with alpha 0.2).
  EXPECT_DOUBLE_EQ(core.reputation("liar")->score, 0.4);
  EXPECT_EQ(core.reputation("liar")->vote_losses, 1u);
  EXPECT_FALSE(core.reputation("liar")->blacklisted);  // blacklist_after=3
  EXPECT_EQ(core.reputation("honest1")->vote_wins, 1u);
  EXPECT_EQ(core.reputation("honest2")->vote_wins, 1u);

  EXPECT_EQ(count_events(tracer, "unit_replicated"), 1);
  EXPECT_EQ(count_events(tracer, "vote_recorded"), 3);
  EXPECT_EQ(count_events(tracer, "vote_mismatch"), 1);
  EXPECT_EQ(count_events(tracer, "vote_quorum"), 1);
  EXPECT_EQ(count_events(tracer, "result_rejected"), 1);
  bool saw_vote_lost = false;
  for (const auto& line : tracer.lines()) {
    if (line.find("\"reason\":\"vote_lost\"") != std::string::npos &&
        line.find("\"name\":\"liar\"") != std::string::npos) {
      saw_vote_lost = true;
    }
  }
  EXPECT_TRUE(saw_vote_lost);
}

TEST(SchedulerIntegrity, WireDigestMismatchRejectedAndUnitReissued) {
  // Transport-level certification, independent of replication: a result
  // whose digest does not cover its bytes never reaches the merge.
  SchedulerCore core(integrity_config(1),
                     std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  auto bad = execute(*unit, data);
  bad.payload_crc ^= 0xdeadbeefu;  // digest no longer covers the payload
  EXPECT_FALSE(core.submit_result(c1, bad, 1.0));
  EXPECT_EQ(core.stats().results_rejected_digest, 1u);
  EXPECT_FALSE(core.problem_complete(pid));

  // The submitting donor's lease was failed; the unit comes back as a
  // reissue and an honest donor completes it.
  auto reissued = core.request_work(c2, 2.0);
  ASSERT_TRUE(reissued);
  EXPECT_EQ(reissued->unit_id, unit->unit_id);
  EXPECT_EQ(core.stats().units_reissued, 1u);
  EXPECT_TRUE(core.submit_result(c2, execute(*reissued, data), 3.0));
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
}

TEST(SchedulerIntegrity, RepeatOffenderBlacklistedAndRefusedWork) {
  obs::Tracer tracer;
  tracer.to_memory();
  auto cfg = integrity_config(2, 2);
  cfg.blacklist_after = 2;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(100));
  core.set_tracer(&tracer);
  auto dm = std::make_shared<ToySumDataManager>(200);  // two units
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto liar = core.client_joined("liar", 1e6, 0.0);
  auto h1 = core.client_joined("h1", 1e6, 0.0);
  auto h2 = core.client_joined("h2", 1e6, 0.0);

  // The liar loses the vote on two consecutive units.
  for (int round = 0; round < 2; ++round) {
    double t = round * 10.0;
    auto unit = core.request_work(liar, t);
    ASSERT_TRUE(unit);
    auto replica = core.request_work(h1, t);
    ASSERT_TRUE(replica);
    EXPECT_TRUE(core.submit_result(liar, corrupt(execute(*unit, data)), t + 1));
    EXPECT_TRUE(core.submit_result(h1, execute(*replica, data), t + 2));
    auto tie_breaker = core.request_work(h2, t + 3);
    ASSERT_TRUE(tie_breaker);
    EXPECT_TRUE(core.submit_result(h2, execute(*tie_breaker, data), t + 4));
  }
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());

  ASSERT_NE(core.reputation("liar"), nullptr);
  EXPECT_TRUE(core.reputation("liar")->blacklisted);
  EXPECT_EQ(core.reputation("liar")->vote_losses, 2u);
  EXPECT_EQ(core.stats().donors_blacklisted, 1u);
  EXPECT_EQ(count_events(tracer, "donor_blacklisted"), 1);

  // A banned donor gets no work and its results are refused.
  auto unserved_before = core.stats().work_requests_unserved;
  EXPECT_FALSE(core.request_work(liar, 30.0));
  EXPECT_EQ(core.stats().work_requests_unserved, unserved_before + 1);
  ResultUnit late;
  late.problem_id = pid;
  late.unit_id = 999;
  late.epoch = core.epoch();
  EXPECT_FALSE(core.submit_result(liar, late, 31.0));
  EXPECT_EQ(core.stats().results_rejected_blacklisted, 1u);

  // The blacklist follows the donor *name* across reconnects.
  auto liar2 = core.client_joined("liar", 1e6, 32.0);
  EXPECT_FALSE(core.request_work(liar2, 33.0));

  // The per-client snapshot (MSG_STATS / hdcs_top) carries the verdict.
  bool flagged = false;
  for (const auto& row : core.all_client_stats()) {
    if (row.name == "liar") {
      EXPECT_TRUE(row.blacklisted);
      EXPECT_EQ(row.vote_losses, 2u);
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(SchedulerIntegrity, TrustedDonorsRunUnreplicated) {
  SchedulerCore core(integrity_config(2, 2),
                     std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(1000);  // ten units
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  // Five clean agreed votes lift both donors past the 0.8 trust threshold
  // (0.5 prior, alpha 0.2: 5 wins -> ~0.836).
  for (int round = 0; round < 5; ++round) {
    double t = round * 10.0;
    auto unit = core.request_work(c1, t);
    ASSERT_TRUE(unit);
    auto replica = core.request_work(c2, t);
    ASSERT_TRUE(replica);
    EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), t + 1));
    EXPECT_TRUE(core.submit_result(c2, execute(*replica, data), t + 2));
  }
  EXPECT_EQ(core.stats().units_replicated, 5u);
  EXPECT_GE(core.reputation("c1")->score, 0.8);

  // With spot_check_rate 0 a trusted donor's next unit is not replicated:
  // its single result merges immediately.
  auto unit = core.request_work(c1, 60.0);
  ASSERT_TRUE(unit);
  EXPECT_EQ(core.stats().units_replicated, 5u);  // unchanged
  auto accepted_before = core.stats().results_accepted;
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 61.0));
  EXPECT_EQ(core.stats().results_accepted, accepted_before + 1);
  EXPECT_EQ(core.stats().spot_checks, 0u);
  EXPECT_FALSE(core.problem_complete(pid));  // nine units down, one merged solo
}

TEST(SchedulerIntegrity, SpotChecksStillAuditTrustedDonors) {
  auto cfg = integrity_config(2, 2);
  cfg.spot_check_rate = 1.0;  // audit every trusted issuance
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<ToySumDataManager>(1000);
  core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  for (int round = 0; round < 5; ++round) {
    double t = round * 10.0;
    auto unit = core.request_work(c1, t);
    ASSERT_TRUE(unit);
    auto replica = core.request_work(c2, t);
    ASSERT_TRUE(replica);
    EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), t + 1));
    EXPECT_TRUE(core.submit_result(c2, execute(*replica, data), t + 2));
  }
  ASSERT_TRUE(core.reputation("c1")->score >= 0.8);
  EXPECT_EQ(core.stats().spot_checks, 0u);  // untrusted phase replicates anyway

  // Trusted now, but every draw is an audit: the unit is replicated and
  // needs a second vote before it merges.
  auto unit = core.request_work(c1, 60.0);
  ASSERT_TRUE(unit);
  EXPECT_EQ(core.stats().spot_checks, 1u);
  EXPECT_EQ(core.stats().units_replicated, 6u);
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 61.0));
  EXPECT_EQ(core.stats().vote_quorums, 5u);  // still waiting on the auditor
  auto audit = core.request_work(c2, 62.0);
  ASSERT_TRUE(audit);
  EXPECT_EQ(audit->unit_id, unit->unit_id);
  EXPECT_TRUE(core.submit_result(c2, execute(*audit, data), 63.0));
  EXPECT_EQ(core.stats().vote_quorums, 6u);
}

TEST(SchedulerIntegrity, LostReplicaDoesNotBurnAttemptsOrQuarantine) {
  // Satellite pin (hedging x quarantine x replication): losing one *copy*
  // of a replicated unit must not inflate `attempt` — under the old
  // single-lease accounting this flow would quarantine a healthy unit at
  // max_attempts_per_unit=1.
  auto cfg = integrity_config(2, 2);
  cfg.max_attempts_per_unit = 1;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  auto replica = core.request_work(c2, 5.0);  // lease deadline 15
  ASSERT_TRUE(replica);
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 6.0));  // vote 1

  // c2's replica lease expires with c1's vote alive: the unit is healthy,
  // so the lost copy is replaced instead of burning the attempt cap.
  core.tick(16.0);
  EXPECT_EQ(core.stats().units_quarantined, 0u);
  EXPECT_EQ(core.stats().units_reissued, 0u);

  auto c3 = core.client_joined("c3", 1e6, 17.0);
  auto replacement = core.request_work(c3, 17.0);
  ASSERT_TRUE(replacement);
  EXPECT_EQ(replacement->unit_id, unit->unit_id);
  EXPECT_TRUE(core.submit_result(c3, execute(*replacement, data), 18.0));
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  EXPECT_EQ(core.stats().units_quarantined, 0u);
}

TEST(SchedulerIntegrity, LostHedgeDoesNotBurnAttemptsOrQuarantine) {
  auto cfg = integrity_config(1);
  cfg.hedge_endgame = true;
  cfg.max_attempts_per_unit = 1;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  auto hedge = core.request_work(c2, 1.0);  // nothing fresh -> hedge copy
  ASSERT_TRUE(hedge);
  EXPECT_EQ(hedge->unit_id, unit->unit_id);
  EXPECT_EQ(core.stats().units_hedged, 1u);

  // The hedger crashes; its copy is dropped for free — the primary lease
  // is untouched and the attempt cap never fires.
  core.client_left(c2, 2.0);
  EXPECT_EQ(core.stats().units_quarantined, 0u);
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 3.0));
  EXPECT_TRUE(core.problem_complete(pid));
  EXPECT_EQ(core.stats().units_reissued, 0u);
  EXPECT_EQ(core.stats().units_quarantined, 0u);
}

TEST(SchedulerIntegrity, VoteStateSurvivesCheckpointRestore) {
  auto cfg = integrity_config(2, 2);
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto c1 = core.client_joined("c1", 1e6, 0.0);
  auto c2 = core.client_joined("c2", 1e6, 0.0);

  auto unit = core.request_work(c1, 0.0);
  ASSERT_TRUE(unit);
  ASSERT_TRUE(core.request_work(c2, 0.0));  // replica leased to c2
  EXPECT_TRUE(core.submit_result(c1, execute(*unit, data), 1.0));  // one vote in

  // Crash. The restarted core must resume the vote — c1's recorded digest
  // still counts, so ONE more agreeing vote reaches quorum (re-trusting a
  // single donor with the whole unit would defeat replication). c2's
  // replica lease is requeued by the new term's client sweep.
  auto image = test::state_image(core);
  SchedulerCore restored(cfg, std::make_unique<FixedGranularity>(500));
  auto dm2 = std::make_shared<ToySumDataManager>(500);
  auto pid2 = restored.submit_problem(dm2);
  ASSERT_EQ(pid2, pid);
  test::restart_from(image, restored, 50.0);
  EXPECT_EQ(restored.pending_units(), 1u);

  auto c3 = restored.client_joined("c3", 1e6, 100.0);
  auto copy = restored.request_work(c3, 100.0);
  ASSERT_TRUE(copy);
  EXPECT_EQ(copy->unit_id, unit->unit_id);
  EXPECT_EQ(copy->payload, unit->payload);
  EXPECT_FALSE(restored.problem_complete(pid2));
  EXPECT_TRUE(
      restored.submit_result(c3, execute(*copy, dm2->problem_data()), 101.0));
  EXPECT_TRUE(restored.problem_complete(pid2));
  EXPECT_EQ(test::read_u64_result(restored.final_result(pid2)), dm2->expected());
  EXPECT_EQ(restored.stats().vote_quorums, 1u);
  // The pre-crash voter is settled as a winner in the restored core.
  ASSERT_NE(restored.reputation("c1"), nullptr);
  EXPECT_EQ(restored.reputation("c1")->vote_wins, 1u);
}

TEST(SchedulerIntegrity, ReputationLedgerSurvivesCheckpointRestore) {
  auto cfg = integrity_config(2, 2);
  cfg.blacklist_after = 1;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  auto liar = core.client_joined("liar", 1e6, 0.0);
  auto h1 = core.client_joined("h1", 1e6, 0.0);
  auto h2 = core.client_joined("h2", 1e6, 0.0);

  auto unit = core.request_work(liar, 0.0);
  ASSERT_TRUE(unit);
  auto replica = core.request_work(h1, 0.0);
  ASSERT_TRUE(replica);
  EXPECT_TRUE(core.submit_result(liar, corrupt(execute(*unit, data)), 1.0));
  EXPECT_TRUE(core.submit_result(h1, execute(*replica, data), 2.0));
  auto tie_breaker = core.request_work(h2, 3.0);
  ASSERT_TRUE(tie_breaker);
  EXPECT_TRUE(core.submit_result(h2, execute(*tie_breaker, data), 4.0));
  ASSERT_TRUE(core.problem_complete(pid));
  ASSERT_TRUE(core.reputation("liar")->blacklisted);

  // A liar must not launder its record by crashing the server.
  SchedulerCore restored(cfg, std::make_unique<FixedGranularity>(500));
  restored.submit_problem(std::make_shared<ToySumDataManager>(500));
  test::restart_from(test::state_image(core), restored, 50.0);
  ASSERT_NE(restored.reputation("liar"), nullptr);
  EXPECT_TRUE(restored.reputation("liar")->blacklisted);
  EXPECT_EQ(restored.reputation("liar")->vote_losses, 1u);
  EXPECT_DOUBLE_EQ(restored.reputation("liar")->score,
                   core.reputation("liar")->score);
  EXPECT_EQ(restored.reputation("h1")->vote_wins, 1u);

  auto liar2 = restored.client_joined("liar", 1e6, 100.0);
  EXPECT_FALSE(restored.request_work(liar2, 100.0));
}

TEST(SchedulerIntegrity, DepartedClientRowsEvictedAfterRetention) {
  auto cfg = integrity_config(1);
  cfg.client_retention_s = 50.0;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  auto dm = std::make_shared<ToySumDataManager>(500);
  core.submit_problem(dm);
  auto data = dm->problem_data();
  auto gone = core.client_joined("gone", 1e6, 0.0);
  (void)core.client_joined("stays", 1e6, 0.0);  // active rows never age out

  auto unit = core.request_work(gone, 0.0);
  ASSERT_TRUE(unit);
  EXPECT_TRUE(core.submit_result(gone, execute(*unit, data), 1.0));
  core.client_left(gone, 1.0);

  // Inside the retention window the departed row is still visible.
  core.tick(40.0);
  EXPECT_EQ(core.all_client_stats().size(), 2u);

  // Past it, the row is evicted; the aggregate completion count survives.
  core.tick(100.0);
  auto rows = core.all_client_stats();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "stays");  // active rows are never evicted
  EXPECT_EQ(core.stats().clients_evicted, 1u);
  EXPECT_EQ(core.evicted_units_completed(), 1u);
}

TEST(SchedulerIntegrity, RetentionZeroKeepsDepartedRowsForever) {
  auto cfg = integrity_config(1);
  cfg.client_retention_s = 0.0;
  SchedulerCore core(cfg, std::make_unique<FixedGranularity>(500));
  core.submit_problem(std::make_shared<ToySumDataManager>(500));
  auto gone = core.client_joined("gone", 1e6, 0.0);
  core.client_left(gone, 1.0);
  core.tick(1e9);
  EXPECT_EQ(core.all_client_stats().size(), 1u);
  EXPECT_EQ(core.stats().clients_evicted, 0u);
}

TEST(SchedulerIntegrity, ConfigValidation) {
  auto bad = [](auto mutate) {
    auto cfg = integrity_config(2, 2);
    mutate(cfg);
    EXPECT_THROW(SchedulerCore(cfg, std::make_unique<FixedGranularity>(100)),
                 InputError);
  };
  bad([](SchedulerConfig& c) { c.replication_factor = 0; });
  bad([](SchedulerConfig& c) { c.quorum = 3; });  // > replication_factor
  bad([](SchedulerConfig& c) { c.quorum = -1; });
  bad([](SchedulerConfig& c) { c.spot_check_rate = 1.5; });
  bad([](SchedulerConfig& c) { c.reputation_alpha = 0.0; });
  bad([](SchedulerConfig& c) { c.max_tie_breakers = -1; });
}

}  // namespace
}  // namespace hdcs::dist
