// Chaos: the whole system — TCP server, resilient donors, the WAL —
// driven through injected network faults, donor churn, and a server
// kill/restart that recovers only from the on-disk log. The final merged
// answers must be byte-identical to a fault-free local run: faults and
// crashes may cost time, never correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bio/seqgen.hpp"
#include "dist/checkpoint_file.hpp"
#include "dist/client.hpp"
#include "dist/granularity.hpp"
#include "dist/local_runner.hpp"
#include "dist/scheduler_core.hpp"
#include "dist/server.hpp"
#include "dist/wal.hpp"
#include "dist/wire.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/simulate.hpp"
#include "sim/sim_driver.hpp"
#include "tests/toy_problem.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {
namespace {

/// Reserve a loopback port the restarted server can come back on. (Bind an
/// ephemeral port, read it, release it — fine for a single-process test.)
std::uint16_t pick_port() {
  auto listener = net::TcpListener::bind(0);
  std::uint16_t port = listener.port();
  listener.close();
  return port;
}

std::uint64_t total_injected_faults() {
  auto& reg = obs::Registry::global();
  return reg.counter("net.fault.connects_refused").value() +
         reg.counter("net.fault.recv_disconnects").value() +
         reg.counter("net.fault.sends_truncated").value() +
         reg.counter("net.fault.bytes_corrupted").value() +
         reg.counter("net.fault.delays_injected").value();
}

/// CI artifact hook: when HDCS_TRACE_DIR is set, persist a test's in-memory
/// trace to <dir>/<name>.jsonl. The chaos CI jobs upload those timelines
/// and lint every line with `trace_summary --json`, so a schema drift in
/// either emitter fails the job even if no assertion here noticed.
void dump_trace(const obs::Tracer& tracer, const std::string& name) {
  const char* dir = std::getenv("HDCS_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) / (name + ".jsonl"));
  for (const auto& line : tracer.lines()) out << line << '\n';
}

TEST(Chaos, RealWorkloadsSurviveServerKillDonorChurnAndFrameFaults) {
  dsearch::register_algorithm();
  dprml::register_algorithm();

  // --- Build the two workloads and their fault-free reference answers.
  Rng rng(117);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;

  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  // --- Server config: aggressive ticks, short leases, a WAL.
  std::string wal_dir = testing::TempDir() + "hdcs_chaos_kill_wal";
  std::filesystem::remove_all(wal_dir);
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.client_timeout_s = 1.5;
  scfg.scheduler.hedge_endgame = true;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;

  std::uint64_t faults_before = total_injected_faults();

  // --- The storm: every TCP operation in the process rides through this.
  net::FaultSpec storm;
  storm.seed = 2026;
  storm.connect_refuse_prob = 0.10;
  storm.recv_disconnect_prob = 0.01;
  storm.send_truncate_prob = 0.01;
  storm.corrupt_prob = 0.01;
  storm.delay_prob = 0.05;
  storm.delay_max_s = 0.002;
  net::ScopedFaultPlan scoped(storm);

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto dm_ds =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto dm_ml = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  auto pid_ds = server->submit_problem(dm_ds);
  auto pid_ml = server->submit_problem(dm_ml);

  // --- Resilient donors: retry forever, must never exit on a fault.
  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::vector<ClientRunStats> donor_stats(kDonors);
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "resilient-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;  // service mode: outlast any outage
      try {
        donor_stats[static_cast<std::size_t>(i)] = Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }
  // --- Churn: donors that crash mid-lease, over and over.
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    int n = 0;
    while (!stop_churn.load()) {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "churn-" + std::to_string(n++);
      ccfg.crash_after_units = 2;
      ccfg.send_heartbeats = false;
      ccfg.max_connect_attempts = 3;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        // Churn donors are *expected* casualties (refused connects, etc.).
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // --- Let durable progress accumulate (every acked result was fsynced
  // into the WAL before its ack)...
  for (int i = 0; i < 500 && server->stats().results_accepted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(server->stats().results_accepted, 0u) << "no result acked";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // --- ...then kill the server. Everything in memory is gone; donors are
  // mid-loop and must fall back to reconnect-with-backoff.
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // --- Restart on the same port from the on-disk WAL only.
  server = std::make_unique<Server>(scfg);
  auto dm_ds2 =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto dm_ml2 = std::make_shared<dprml::DPRmlDataManager>(aln, pcfg);
  auto pid_ds2 = server->submit_problem(dm_ds2);
  auto pid_ml2 = server->submit_problem(dm_ml2);
  ASSERT_EQ(pid_ds2, pid_ds);  // same submit order -> same problem ids
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // replays the WAL and enters a new term

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  stop_churn.store(true);
  for (auto& t : donors) t.join();
  churn.join();

  // --- Byte-identical answers despite kill, churn, and frame faults.
  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);

  // --- No resilient donor exited; the outage forced real reconnects.
  EXPECT_EQ(donor_failures.load(), 0);
  std::uint64_t reconnects = 0;
  for (const auto& s : donor_stats) reconnects += s.reconnects;
  EXPECT_GE(reconnects, 1u);

  // --- Faults actually fired, were detected, and were never merged.
  EXPECT_GT(total_injected_faults(), faults_before);
  server->stop();
  std::filesystem::remove_all(wal_dir);
}

int count_events(const obs::Tracer& tracer, const std::string& ev) {
  int n = 0;
  for (const auto& line : tracer.lines()) {
    if (obs::parse_trace_line(line).ev == ev) ++n;
  }
  return n;
}

TEST(Chaos, LyingDonorsCannotCorruptResultsAcrossServerRestart) {
  // 20% of the fleet lies deterministically: one donor in five corrupts
  // every payload it produces — each lie carrying a *matching* digest, so
  // only replication voting can catch it. Mid-run the server is killed and
  // restarted from its WAL (partial votes and the reputation ledger ride
  // the log). The merged answers must still be byte-identical to
  // fault-free local runs, and the liar must end up blacklisted.
  //
  // The liar's two losing votes (blacklist_after = 2) are set up, not left
  // to the race between a small job and the slowest donor: until the
  // restart only the liar and one honest donor run, so no unit can reach
  // its quorum of two matching digests from distinct donors. Every vote
  // stays pending and the job cannot finish before the kill. The other
  // three honest donors join the restarted server and outvote the liar's
  // logged votes.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(211);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_dir = testing::TempDir() + "hdcs_chaos_integrity_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;  // shared across both server incarnations
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 2.0;
  scfg.client_timeout_s = 2.0;
  scfg.scheduler.hedge_endgame = true;
  scfg.scheduler.replication_factor = 2;
  scfg.scheduler.quorum = 2;
  scfg.scheduler.blacklist_after = 2;
  scfg.scheduler.spot_check_rate = 0.05;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.tracer = &tracer;

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));

  constexpr int kDonors = 5;  // donor 0 lies on every unit it touches
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  auto start_donor = [&](int i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = i == 0 ? "liar" : "honest-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;  // outlast the restart
      if (i == 0) {
        ccfg.corrupt_rate = 1.0;
        ccfg.corrupt_seed = 7;
      }
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  };
  auto wait_until = [](auto&& done) {
    for (int i = 0; i < 3000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
  };
  auto liar_votes = [&] {
    std::vector<double> liar_ids;
    for (const auto& c : server->client_stats()) {
      if (c.name == "liar") liar_ids.push_back(static_cast<double>(c.id));
    }
    int n = 0;
    for (const auto& line : tracer.lines()) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != "vote_recorded") continue;
      for (double id : liar_ids) n += rec.number("client") == id ? 1 : 0;
    }
    return n;
  };

  start_donor(0);
  start_donor(1);
  ASSERT_TRUE(wait_until([&] { return liar_votes() >= 2; }))
      << "the liar never cast two votes";
  // Each vote is acked only after its WAL record is fsynced, under the core
  // lock; stats() takes that lock, so both votes are on disk past it, and
  // only the log carries them into the restarted server.
  ASSERT_GE(server->stats().votes_recorded, 2u);
  ASSERT_EQ(server->stats().results_accepted, 0u) << "a unit resolved early";
  auto rejected_before_kill = server->stats().results_rejected_mismatch;
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server = std::make_unique<Server>(scfg);
  auto pid_ds2 = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml2 =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds2, pid_ds);
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // replays the WAL and enters a new term
  for (int i = 2; i < kDonors; ++i) start_donor(i);

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // Byte-identical despite a 20% lying fleet and a mid-run restart.
  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);

  // Corrupt payloads were outvoted, never merged, and the liar was caught.
  auto rejected_total =
      rejected_before_kill + server->stats().results_rejected_mismatch;
  EXPECT_GT(rejected_total, 0u);
  EXPECT_GE(count_events(tracer, "donor_blacklisted"), 1);
  bool liar_banned = false;
  for (const auto& line : tracer.lines()) {
    if (obs::parse_trace_line(line).ev == "donor_blacklisted" &&
        line.find("\"name\":\"liar\"") != std::string::npos) {
      liar_banned = true;
    }
  }
  EXPECT_TRUE(liar_banned);
  server->stop();
  std::filesystem::remove_all(wal_dir);
  dump_trace(tracer, "chaos_lying_donors_tcp_restart");
}

TEST(Chaos, LyingDonorsInSimulatedFleetMatchFaultFreeRuns) {
  // The simulator drives the same SchedulerCore: 2 of 10 machines lie on
  // every unit. Both applications' final payloads must be byte-identical
  // to fault-free local runs, with the liars outvoted and blacklisted.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(223);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 30;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {6, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {200});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e4);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  obs::Tracer tracer;
  tracer.to_memory();
  sim::SimConfig simcfg;
  simcfg.reference_ops_per_sec = 1e6;
  simcfg.scheduler.lease_timeout = 1e5;
  simcfg.scheduler.bounds.min_ops = 1;
  simcfg.scheduler.replication_factor = 2;
  simcfg.scheduler.quorum = 2;
  simcfg.scheduler.blacklist_after = 2;
  simcfg.scheduler.spot_check_rate = 0.05;
  simcfg.policy_spec = "adaptive:0.02";  // many units -> many votes
  simcfg.no_work_retry_s = 0.25;
  simcfg.tracer = &tracer;

  auto fleet = sim::lab_fleet(10);
  fleet[0].corrupt_rate = 1.0;  // 20% of the fleet lies deterministically
  fleet[1].corrupt_rate = 1.0;
  sim::SimDriver sim(simcfg, fleet);
  auto pid_ds = sim.add_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      sim.add_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  auto outcome = sim.run();

  EXPECT_EQ(outcome.final_results.at(pid_ds), ref_ds);
  EXPECT_EQ(outcome.final_results.at(pid_ml), ref_ml);
  EXPECT_GT(outcome.scheduler.results_rejected_mismatch, 0u);
  EXPECT_GE(outcome.scheduler.donors_blacklisted, 1u);
  EXPECT_GE(count_events(tracer, "donor_blacklisted"), 1);
  EXPECT_GT(outcome.scheduler.vote_quorums, 0u);
  dump_trace(tracer, "chaos_lying_donors_sim");
}

TEST(Chaos, VoteTraceSchemaSharedAcrossServerAndSim) {
  // Pinned schema: the TCP server (wall clock) and the simulator (virtual
  // clock) must emit replication/vote events with exactly the same fields,
  // so one trace tool reads either. Both runs include a lying donor so
  // every event type actually fires.
  test::register_toy_algorithm();

  // Server half: two donors at first, so the liar is guaranteed to be the
  // second voter on every early unit; a third joins to break the ties.
  obs::Tracer server_tracer;
  server_tracer.to_memory();
  {
    ServerConfig cfg;
    cfg.scheduler.bounds.min_ops = 1000;
    cfg.scheduler.replication_factor = 2;
    cfg.scheduler.quorum = 2;
    cfg.scheduler.blacklist_after = 1;
    cfg.policy_spec = "fixed:1000";
    cfg.tick_interval_s = 0.02;
    cfg.no_work_retry_s = 0.02;
    cfg.tracer = &server_tracer;
    Server server(cfg);
    server.start();
    auto pid = server.submit_problem(std::make_shared<test::ToySumDataManager>(4000));

    auto donor = [&](const std::string& name, double corrupt_rate) {
      ClientConfig ccfg;
      ccfg.server_port = server.port();
      ccfg.name = name;
      ccfg.corrupt_rate = corrupt_rate;
      ccfg.corrupt_seed = 11;
      return std::thread([ccfg] { Client(ccfg).run(); });
    };
    auto liar = donor("liar", 1.0);
    auto h1 = donor("h1", 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto h2 = donor("h2", 0.0);
    ASSERT_TRUE(server.wait_for_problem(pid, 60.0));
    liar.join();
    h1.join();
    h2.join();
    server.stop();
  }

  // Simulator half: three machines, one lying.
  obs::Tracer sim_tracer;
  sim_tracer.to_memory();
  {
    sim::SimConfig simcfg;
    simcfg.reference_ops_per_sec = 1e6;
    simcfg.scheduler.lease_timeout = 1e5;
    simcfg.scheduler.bounds.min_ops = 1;
    simcfg.scheduler.replication_factor = 2;
    simcfg.scheduler.quorum = 2;
    simcfg.scheduler.blacklist_after = 1;
    simcfg.policy_spec = "fixed:250000";
    simcfg.tracer = &sim_tracer;
    auto fleet = sim::lab_fleet(3);
    fleet[0].corrupt_rate = 1.0;
    sim::SimDriver sim(simcfg, fleet);
    sim.add_problem(std::make_shared<test::ToySumDataManager>(5000000));
    sim.run();
  }

  auto first_fields = [](const obs::Tracer& tracer, const char* ev) {
    std::vector<std::string> keys;
    for (const auto& line : tracer.lines()) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != ev) continue;
      for (const auto& [k, v] : rec.fields) {
        if (k != "schema" && k != "t" && k != "ev") keys.push_back(k);
      }
      return keys;  // fields is an ordered map: keys come out sorted
    }
    return keys;
  };

  const std::map<std::string, std::vector<std::string>> pinned = {
      {"replica_issued", {"client", "cost_ops", "problem", "stage", "unit"}},
      {"unit_replicated", {"problem", "quorum", "replicas", "spot_check", "unit"}},
      {"vote_recorded", {"client", "digest", "problem", "unit", "votes"}},
      {"vote_quorum", {"digest", "problem", "unit", "votes"}},
      {"vote_mismatch", {"problem", "tie_breakers", "unit", "votes"}},
      {"result_rejected", {"name", "problem", "reason", "unit"}},
      {"donor_blacklisted", {"losses", "name", "score"}},
  };
  for (const auto& [ev, expected] : pinned) {
    auto server_keys = first_fields(server_tracer, ev.c_str());
    auto sim_keys = first_fields(sim_tracer, ev.c_str());
    ASSERT_FALSE(server_keys.empty()) << "server emitted no " << ev;
    ASSERT_FALSE(sim_keys.empty()) << "sim emitted no " << ev;
    EXPECT_EQ(server_keys, sim_keys) << ev;
    EXPECT_EQ(server_keys, expected) << ev;
  }
  dump_trace(server_tracer, "chaos_vote_schema_server");
  dump_trace(sim_tracer, "chaos_vote_schema_sim");
}

TEST(Chaos, WalReplayLosesNoAcceptedResultAcrossKill) {
  // A WAL'd server is killed with results accepted: everything the
  // restarted server knows comes from base-snapshot + record replay. Every
  // result acked before the kill must still be counted after it — the
  // durability window is zero.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(311);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_dir = testing::TempDir() + "hdcs_chaos_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.client_timeout_s = 1.5;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.wal_segment_bytes = 16 << 10;  // force rotations under load
  scfg.tracer = &tracer;

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));

  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "durable-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Let real progress accrue, then kill. The accepted count read here is a
  // floor for what replay must reproduce: each of these results was WAL'd
  // and fsynced *before* its ack was sent.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the kill";
  server.reset();

  server = std::make_unique<Server>(scfg);
  auto pid_ds2 = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml2 =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds2, pid_ds);
  ASSERT_EQ(pid_ml2, pid_ml);
  server->start();  // recovers from the WAL: snapshot + replay

  // Replay restored at least everything acked before the kill, and the
  // revived server entered a new term so stale pre-kill leases are fenced.
  EXPECT_GE(server->stats().results_accepted, accepted_before);
  EXPECT_GE(server->epoch(), 2u);
  EXPECT_GE(count_events(tracer, "wal_recovered"), 1);

  ASSERT_TRUE(server->wait_for_problem(pid_ds2, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml2, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  EXPECT_EQ(server->final_result(pid_ds2), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml2), ref_ml);
  server->stop();
  dump_trace(tracer, "chaos_wal_replay_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, WalEnospcMidRunDegradesThenRestoresByteIdentical) {
  // The disk fills mid-run under a WAL'd server in kContinue mode: every
  // write into the WAL directory hits injected ENOSPC. The server must
  // degrade (epoch bump + durability_degraded on the timeline), keep
  // scheduling without crashing or hanging, then re-arm once space returns
  // — and the merged answers must be byte-identical to fault-free runs.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(613);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_dir = testing::TempDir() + "hdcs_enospc_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.port = pick_port();
  scfg.scheduler.bounds.min_ops = 1;
  scfg.scheduler.lease_timeout = 1.5;
  scfg.client_timeout_s = 1.5;
  scfg.policy_spec = "adaptive:0.02";
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.wal_segment_bytes = 16 << 10;
  scfg.durability_mode = DurabilityMode::kContinue;
  scfg.rearm_retry_s = 0.1;  // fast re-arm probes for the test
  scfg.tracer = &tracer;

  auto server = std::make_unique<Server>(scfg);
  server->start();
  auto pid_ds = server->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml =
      server->submit_problem(std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  EXPECT_EQ(server->durability(), Server::Durability::kDurable);

  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.server_port = scfg.port;
      ccfg.name = "enospc-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      ccfg.backoff_max_s = 0.2;
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Real durable progress first, so the degrade happens mid-run.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the disk filled";
  std::uint64_t epoch_before = server->epoch();

  {
    // The disk fills: a 1-byte capacity means the very next WAL append (or
    // re-arm attempt) gets ENOSPC. Only the WAL directory is affected.
    vfs::StorageFaultSpec full_disk;
    full_disk.seed = 31;
    full_disk.disk_capacity_bytes = 1;
    full_disk.path_filter = "hdcs_enospc_wal";
    vfs::ScopedStorageFaultPlan scoped(full_disk);

    // The next accepted result's append/fsync fails -> degraded. The server
    // must neither crash nor stop scheduling.
    bool degraded = false;
    for (int i = 0; i < 1000 && !degraded; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      degraded = server->durability() == Server::Durability::kDegraded;
    }
    ASSERT_TRUE(degraded) << "server never degraded on ENOSPC";
    EXPECT_FALSE(server->storage_failed());  // kContinue keeps accepting
    EXPECT_GE(server->epoch(), epoch_before + 2) << "degrade must fence";
    EXPECT_NE(server->stats_json().find("\"durability\":\"degraded\""),
              std::string::npos);
    // Stay degraded for a while: re-arm probes keep failing on the full
    // disk and must not crash or flap the state.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_EQ(server->durability(), Server::Durability::kDegraded);
  }

  // Space is back: the watchdog's next probe rebuilds the WAL and restores.
  bool restored = false;
  for (int i = 0; i < 1000 && !restored; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    restored = server->durability() == Server::Durability::kDurable;
  }
  EXPECT_TRUE(restored) << "durability never re-armed after space returned";

  ASSERT_TRUE(server->wait_for_problem(pid_ds, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(server->wait_for_problem(pid_ml, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // Byte-identical answers: the full disk cost a durability window, never
  // a result.
  EXPECT_EQ(server->final_result(pid_ds), ref_ds);
  EXPECT_EQ(server->final_result(pid_ml), ref_ml);
  EXPECT_GE(count_events(tracer, "durability_degraded"), 1);
  EXPECT_GE(count_events(tracer, "durability_restored"), 1);
  server->stop();
  dump_trace(tracer, "chaos_wal_enospc_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, FailStopShedsDonorsAndNeverAcksNonDurably) {
  // kFailStop: the first storage fault freezes intake. Donors holding
  // finished units get retryable NACKs (never a silent non-durable ack),
  // the server reports storage_failed() so the embedding process can
  // exit non-zero, and nothing crashes or hangs.
  test::register_toy_algorithm();

  std::string wal_dir = testing::TempDir() + "hdcs_failstop_wal";
  std::filesystem::remove_all(wal_dir);
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:1000000";  // many small units
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  scfg.wal_dir = wal_dir;
  scfg.durability_mode = DurabilityMode::kFailStop;
  scfg.retry_later_s = 0.05;  // fast donor retries for the test
  scfg.tracer = &tracer;
  Server server(scfg);
  server.start();
  server.submit_problem(std::make_shared<test::ToySumDataManager>(100000000));

  auto& client_retries = obs::Registry::global().counter("client.retry_laters");
  std::uint64_t retries_before = client_retries.value();

  std::atomic<int> donor_failures{0};
  std::thread donor([&] {
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "failstop-donor";
    ccfg.max_connect_attempts = 2;
    ccfg.backoff_max_s = 0.1;
    try {
      Client(ccfg).run();
    } catch (const Error&) {
      donor_failures.fetch_add(1);  // expected once the server is stopped
    }
  });

  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = server.stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 3u) << "no progress before the fault";

  // Every WAL fsync now fails. The next result submission trips fail-stop.
  vfs::StorageFaultSpec broken;
  broken.seed = 5;
  broken.sync_error_prob = 1.0;
  broken.path_filter = "hdcs_failstop_wal";
  vfs::ScopedStorageFaultPlan scoped(broken);

  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    failed = server.storage_failed();
  }
  ASSERT_TRUE(failed) << "fail-stop never tripped";
  EXPECT_EQ(server.durability(), Server::Durability::kDegraded);

  // The donor's in-flight submission was NACKed retryable and it is now
  // riding the retry loop — no new results are merged, none are lost.
  std::uint64_t accepted_at_failure = server.stats().results_accepted;
  bool donor_retried = false;
  for (int i = 0; i < 1000 && !donor_retried; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    donor_retried = client_retries.value() > retries_before;
  }
  EXPECT_TRUE(donor_retried) << "donor never saw a retryable NACK";
  EXPECT_EQ(server.stats().results_accepted, accepted_at_failure);
  EXPECT_GE(count_events(tracer, "durability_degraded"), 1);
  EXPECT_GT(obs::Registry::global().counter("server.retry_laters").value(), 0u);

  // The embedding process reacts like hdcs_submit: stop and exit non-zero.
  // Stopping while a donor is mid-retry must not deadlock.
  server.stop();
  donor.join();
  dump_trace(tracer, "chaos_wal_failstop_tcp");
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, StandbyPromotesAndFinishesAfterPrimaryKill) {
  // Full failover over real TCP: a WAL'd primary streams its state to a
  // hot standby; donors carry both endpoints. Mid-run the primary is
  // killed — the standby promotes (epoch bump), the donors rotate to it,
  // and both workloads finish byte-identical. Results computed under the
  // deposed term are fenced by epoch, never merged twice.
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(419);
  auto queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 40;
  spec.mean_length = 80;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 8;
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {250});
  dprml::DPRmlConfig pcfg;
  pcfg.model_spec = "JC69";
  pcfg.branch_tolerance = 1e-3;
  pcfg.eval_passes = 1;
  pcfg.refine_passes = 1;
  pcfg.use_eval_cache = false;

  std::vector<std::byte> ref_ds, ref_ml;
  {
    dsearch::DSearchDataManager dm(queries, database, dcfg);
    ref_ds = run_locally(dm, 2e5);
  }
  {
    dprml::DPRmlDataManager dm(aln, pcfg);
    ref_ml = run_locally(dm, 1.0);
  }

  std::string wal_primary = testing::TempDir() + "hdcs_failover_primary";
  std::string wal_standby = testing::TempDir() + "hdcs_failover_standby";
  std::filesystem::remove_all(wal_primary);
  std::filesystem::remove_all(wal_standby);

  obs::Tracer tracer;  // shared: primary + standby write one timeline
  tracer.to_memory();
  ServerConfig pcfg_srv;
  pcfg_srv.port = pick_port();
  pcfg_srv.scheduler.bounds.min_ops = 1;
  pcfg_srv.scheduler.lease_timeout = 1.5;
  pcfg_srv.client_timeout_s = 1.5;
  pcfg_srv.policy_spec = "adaptive:0.02";
  pcfg_srv.tick_interval_s = 0.02;
  pcfg_srv.no_work_retry_s = 0.02;
  pcfg_srv.wal_dir = wal_primary;
  pcfg_srv.tracer = &tracer;

  ServerConfig scfg_srv = pcfg_srv;
  scfg_srv.port = pick_port();
  scfg_srv.wal_dir = wal_standby;
  scfg_srv.primary_host = "127.0.0.1";
  scfg_srv.primary_port = pcfg_srv.port;
  scfg_srv.failover_timeout_s = 0.4;
  scfg_srv.standby_name = "standby-1";

  auto primary = std::make_unique<Server>(pcfg_srv);
  auto pid_ds = primary->submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml = primary->submit_problem(
      std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  primary->start();

  // The standby registers the same problems (same order -> same ids), then
  // syncs the primary's exact snapshot and tails its record stream.
  Server standby(scfg_srv);
  auto pid_ds_s = standby.submit_problem(
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg));
  auto pid_ml_s = standby.submit_problem(
      std::make_shared<dprml::DPRmlDataManager>(aln, pcfg));
  ASSERT_EQ(pid_ds_s, pid_ds);
  ASSERT_EQ(pid_ml_s, pid_ml);
  standby.start();
  ASSERT_TRUE(standby.is_standby());

  for (int i = 0; i < 500 && !standby.standby_synced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(standby.standby_synced()) << "standby never synced";

  // Donors know both endpoints; they stick with the one that answers.
  constexpr int kDonors = 3;
  std::vector<std::thread> donors;
  std::atomic<int> donor_failures{0};
  for (int i = 0; i < kDonors; ++i) {
    donors.emplace_back([&, i] {
      ClientConfig ccfg;
      ccfg.servers = {{"127.0.0.1", pcfg_srv.port}, {"127.0.0.1", scfg_srv.port}};
      ccfg.name = "ha-" + std::to_string(i);
      ccfg.max_connect_attempts = 0;
      ccfg.backoff_max_s = 0.2;  // keep the promotion gap cheap
      try {
        Client(ccfg).run();
      } catch (const Error&) {
        donor_failures.fetch_add(1);
      }
    });
  }

  // Progress on the primary, then kill it mid-run. Donors are mid-lease.
  std::uint64_t accepted_before = 0;
  for (int i = 0; i < 1000 && accepted_before < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    accepted_before = primary->stats().results_accepted;
  }
  ASSERT_GE(accepted_before, 5u) << "no progress before the kill";
  primary.reset();

  // The stream goes silent; after failover_timeout_s the standby promotes.
  for (int i = 0; i < 1000 && standby.is_standby(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(standby.is_standby()) << "standby never promoted";
  EXPECT_GE(standby.epoch(), 2u);  // a new term fences deposed-primary work

  ASSERT_TRUE(standby.wait_for_problem(pid_ds_s, 120.0)) << "DSEARCH stalled";
  ASSERT_TRUE(standby.wait_for_problem(pid_ml_s, 120.0)) << "DPRml stalled";
  for (auto& t : donors) t.join();
  EXPECT_EQ(donor_failures.load(), 0);

  // The replicated state picked up where the primary left off: everything
  // the primary acked was already on the standby, and the merged answers
  // are byte-identical to fault-free local runs.
  EXPECT_GE(standby.stats().results_accepted, accepted_before);
  EXPECT_EQ(standby.final_result(pid_ds_s), ref_ds);
  EXPECT_EQ(standby.final_result(pid_ml_s), ref_ml);

  // The failover left its audit trail on the shared timeline.
  EXPECT_GE(count_events(tracer, "replica_attached"), 1);
  EXPECT_GE(count_events(tracer, "standby_synced"), 1);
  EXPECT_GE(count_events(tracer, "failover_promoted"), 1);
  standby.stop();
  dump_trace(tracer, "chaos_failover_tcp");
  std::filesystem::remove_all(wal_primary);
  std::filesystem::remove_all(wal_standby);
}

TEST(Chaos, PoisonUnitQuarantinedOverTcp) {
  test::register_toy_algorithm();
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.scheduler.lease_timeout = 0.15;
  scfg.client_timeout_s = 0.15;
  scfg.scheduler.max_attempts_per_unit = 2;
  scfg.policy_spec = "fixed:1000000000";  // the whole problem in one unit
  scfg.tick_interval_s = 0.02;
  scfg.no_work_retry_s = 0.02;
  Server server(scfg);
  server.start();
  auto pid = server.submit_problem(
      std::make_shared<test::ToySumDataManager>(100000));

  // The "poison" unit kills every donor that takes it: two crashers burn
  // the attempt cap.
  for (int attempt = 0; attempt < 2; ++attempt) {
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "victim-" + std::to_string(attempt);
    ccfg.crash_after_units = 1;  // take the unit, vanish before submitting
    ccfg.send_heartbeats = false;
    Client(ccfg).run();
    // Wait for the client timeout to reap the crashed donor (and fail its
    // lease) before the next victim asks for work.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }

  // Quarantined: a healthy donor gets nothing, the problem stays open, and
  // the stats snapshot (MSG_STATS / hdcs_top) reports the quarantine.
  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "healthy";
  ccfg.max_idle_polls = 3;
  auto stats = Client(ccfg).run();
  EXPECT_EQ(stats.units_processed, 0u);
  EXPECT_FALSE(server.wait_for_problem(pid, 0.2));
  auto json = server.stats_json();
  EXPECT_NE(json.find("\"units_quarantined\":1"), std::string::npos) << json;
  server.stop();
}

// ---- group commit: an ack implies a durable result ----

/// ToySum that also remembers which units it merged, in its snapshot too,
/// so a core restored from a WAL directory names the results that survived.
class MergeLedgerToy final : public DataManager {
 public:
  explicit MergeLedgerToy(std::uint64_t n) : inner_(n) {}
  [[nodiscard]] std::string algorithm_name() const override {
    return inner_.algorithm_name();
  }
  [[nodiscard]] std::vector<std::byte> problem_data() const override {
    return inner_.problem_data();
  }
  std::optional<WorkUnit> next_unit(const SizeHint& hint) override {
    return inner_.next_unit(hint);
  }
  void accept_result(const ResultUnit& result) override {
    inner_.accept_result(result);
    merged_.insert(result.unit_id);
  }
  [[nodiscard]] bool is_complete() const override {
    return inner_.is_complete();
  }
  [[nodiscard]] std::vector<std::byte> final_result() const override {
    return inner_.final_result();
  }
  [[nodiscard]] bool supports_snapshot() const override { return true; }
  void snapshot(ByteWriter& w) const override {
    inner_.snapshot(w);
    w.u64(merged_.size());
    for (UnitId id : merged_) w.u64(id);
  }
  void restore(ByteReader& r) override {
    inner_.restore(r);
    merged_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) merged_.insert(r.u64());
  }
  [[nodiscard]] const std::set<UnitId>& merged() const { return merged_; }
  [[nodiscard]] std::uint64_t expected() const { return inner_.expected(); }

 private:
  test::ToySumDataManager inner_;
  std::set<UnitId> merged_;
};

/// What a power cut would leave of a WAL directory: base.ckpt, plus every
/// segment cut at the length its last fsync covered (the storage plan's
/// ledger), decoded with decode_wal_record and replayed into a fresh core
/// over the same problem, as a restarted server recovers. Returns the units
/// that core merged. The caller keeps compaction from running meanwhile.
std::set<UnitId> durably_merged(const std::string& dir,
                                const vfs::StorageFaultPlan& plan,
                                const ServerConfig& scfg, std::uint64_t n) {
  SchedulerCore core(scfg.scheduler, make_policy(scfg.policy_spec));
  auto dm = std::make_shared<MergeLedgerToy>(n);
  core.submit_problem(dm);
  std::uint64_t next_lsn = 1;
  if (auto base = read_checkpoint_file(dir + "/base.ckpt")) {
    ByteReader r{std::span<const std::byte>(*base)};
    next_lsn = r.u64();
    core.restore_exact(r);
    r.expect_end();
  }
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());  // zero-padded first lsn
  for (const std::string& path : segments) {
    auto bytes = vfs::read_file(path);
    bytes.resize(std::min<std::size_t>(bytes.size(), plan.synced_bytes(path)));
    ByteReader r{std::span<const std::byte>(bytes)};
    while (r.remaining() >= 8) {
      const std::uint32_t len = r.u32();
      r.u32();  // crc: a synced prefix is whole
      if (r.remaining() < len) break;
      WalRecord rec = decode_wal_record(r.raw(len));
      if (rec.lsn < next_lsn) continue;  // folded into the base
      if (rec.lsn != next_lsn) return dm->merged();  // past the durable prefix
      apply_wal_record(core, rec);
      next_lsn += 1;
    }
  }
  return dm->merged();
}

ServerConfig group_commit_config(const std::string& wal_dir) {
  ServerConfig scfg;
  scfg.scheduler.bounds.min_ops = 1000;
  scfg.policy_spec = "fixed:1000";
  scfg.tick_interval_s = 60;  // no Tick records, no wakes
  scfg.no_work_retry_s = 30;
  scfg.wal_dir = wal_dir;
  scfg.wal_segment_bytes = 1024;  // rotate every dozen records or so
  scfg.wal_compact_every = 0;     // compaction only where the test says
  return scfg;
}

ResultUnit toy_result(const WorkUnit& unit) {
  test::ToySumAlgorithm algo;
  algo.initialize(test::ToySumDataManager(0).problem_data());
  ResultUnit result;
  result.problem_id = unit.problem_id;
  result.unit_id = unit.unit_id;
  result.stage = unit.stage;
  result.epoch = unit.epoch;
  result.payload = algo.process(unit);
  result.payload_crc = net::crc32(result.payload);
  return result;
}

TEST(Chaos, GroupCommitAckImpliesDurableResult) {
  // Three frame-level donors pipeline SubmitResult + RequestWork against a
  // WAL'd server whose every fsync is slow, while its segments rotate and
  // a compaction runs mid-stream. At every ResultAck, a power cut must
  // keep the acked unit: the WAL's synced prefix merges it.
  test::register_toy_algorithm();
  std::string wal_dir = testing::TempDir() + "hdcs_group_commit_wal";
  std::filesystem::remove_all(wal_dir);
  vfs::StorageFaultSpec slow_disk;
  slow_disk.sync_delay_prob = 1.0;
  slow_disk.sync_delay_s = 0.02;
  slow_disk.path_filter = "hdcs_group_commit_wal";
  vfs::ScopedStorageFaultPlan scoped(slow_disk);
  auto& reg = obs::Registry::global();
  const auto compactions = reg.counter("wal.compactions").value();
  const auto segments = reg.counter("wal.segments_opened").value();

  constexpr std::uint64_t kN = 30000;  // 30 units
  ServerConfig scfg = group_commit_config(wal_dir);
  Server server(scfg);
  auto dm = std::make_shared<MergeLedgerToy>(kN);
  auto pid = server.submit_problem(dm);
  server.start();

  struct Donor {
    net::TcpStream stream;
    std::uint64_t corr = 1;
    std::uint64_t ack_corr = 0;  // the SubmitResult awaiting its ack
    UnitId ack_unit = 0;
    std::optional<ResultUnit> next;  // computed, waits for that ack
    bool told_complete = false;
    bool done = false;
  };
  std::vector<Donor> donors(3);
  for (std::size_t i = 0; i < donors.size(); ++i) {
    Donor& d = donors[i];
    d.stream = net::TcpStream::connect("127.0.0.1", server.port());
    const std::string name = "pipe-" + std::to_string(i);
    net::write_message(d.stream, encode_hello({name, 1e6}, d.corr++));
    decode_hello_ack(net::read_message(d.stream));
    net::write_message(d.stream, encode_request_work(d.corr++));
  }
  auto submit_and_ask = [](Donor& d, const ResultUnit& result) {
    d.ack_corr = d.corr++;
    d.ack_unit = result.unit_id;
    net::write_message(d.stream, encode_submit_result(result, d.ack_corr));
    net::write_message(d.stream, encode_request_work(d.corr++));
  };

  int acks = 0;
  int overtakes = 0;  // assignments that arrived while an ack was held
  bool compacted = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::any_of(donors.begin(), donors.end(),
                     [](const Donor& d) { return !d.done; }) &&
         std::chrono::steady_clock::now() < deadline) {
    for (Donor& d : donors) {
      if (d.done || !d.stream.readable(1)) continue;
      net::Message m = net::read_message(d.stream);
      if (m.type == net::MessageType::kWorkAssignment) {
        ResultUnit result = toy_result(decode_work_assignment(m).unit);
        if (d.ack_corr != 0) {
          overtakes += 1;
          d.next = std::move(result);
        } else {
          submit_and_ask(d, result);
        }
      } else if (m.type == net::MessageType::kResultAck) {
        ASSERT_EQ(m.correlation, d.ack_corr);
        EXPECT_TRUE(decode_result_ack(m).accepted);
        const auto durable = durably_merged(wal_dir, scoped.plan(), scfg, kN);
        ASSERT_EQ(durable.count(d.ack_unit), 1u)
            << "unit " << d.ack_unit << " acked before it was durable";
        d.ack_corr = 0;
        d.done = d.told_complete;
        acks += 1;
        if (d.next) {
          submit_and_ask(d, *d.next);
          d.next.reset();
        }
        if (acks == 10 && !compacted) {
          // Fold the log while this donor's new ack is held and the commit
          // leader may be mid-fsync on a segment compaction unlinks.
          server.compact_wal();
          compacted = true;
        }
      } else {
        ASSERT_EQ(m.type, net::MessageType::kNoWorkAvailable);
        if (decode_no_work(m).all_problems_complete) {
          d.told_complete = true;
          d.done = d.ack_corr == 0;  // else its held ack is still to come
        } else {
          net::write_message(d.stream, encode_request_work(d.corr++));
        }
      }
    }
  }
  ASSERT_TRUE(server.wait_for_problem(pid, 1.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_EQ(acks, 30);
  EXPECT_GT(overtakes, 0) << "no WorkAssignment overtook a held ack";
  EXPECT_GT(reg.counter("wal.compactions").value(), compactions);
  EXPECT_GE(reg.counter("wal.segments_opened").value(), segments + 3);
  EXPECT_EQ(reg.gauge("server.held_acks").value(), 0);
  server.stop();
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, GroupCommitDuplicateWaitsForFirstAcceptance) {
  // A donor's connection drops while its accepted result's ack is held
  // behind a slow fsync; it reconnects and resubmits. The duplicate's ack
  // must wait for the first copy to be durable, like the first ack would.
  test::register_toy_algorithm();
  std::string wal_dir = testing::TempDir() + "hdcs_group_commit_dup_wal";
  std::filesystem::remove_all(wal_dir);
  vfs::StorageFaultSpec slow_disk;
  slow_disk.sync_delay_prob = 1.0;
  slow_disk.sync_delay_s = 0.3;
  slow_disk.path_filter = "hdcs_group_commit_dup_wal";
  vfs::ScopedStorageFaultPlan scoped(slow_disk);

  constexpr std::uint64_t kN = 3000;
  ServerConfig scfg = group_commit_config(wal_dir);
  Server server(scfg);
  auto dm = std::make_shared<MergeLedgerToy>(kN);
  server.submit_problem(dm);
  server.start();

  ResultUnit result;
  {
    auto first = net::TcpStream::connect("127.0.0.1", server.port());
    net::write_message(first, encode_hello({"flaky", 1e6}, 1));
    decode_hello_ack(net::read_message(first));
    net::write_message(first, encode_request_work(2));
    result = toy_result(decode_work_assignment(net::read_message(first)).unit);
    net::write_message(first, encode_submit_result(result, 3));
    for (int i = 0; i < 500 && server.stats().results_accepted == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.stats().results_accepted, 1u);
  }  // gone with its ack still held

  auto second = net::TcpStream::connect("127.0.0.1", server.port());
  net::write_message(second, encode_hello({"flaky", 1e6}, 1));
  decode_hello_ack(net::read_message(second));
  net::write_message(second, encode_submit_result(result, 2));
  net::Message ack = net::read_message(second);
  ASSERT_EQ(ack.type, net::MessageType::kResultAck);
  EXPECT_FALSE(decode_result_ack(ack).accepted);  // a duplicate
  const auto durable = durably_merged(wal_dir, scoped.plan(), scfg, kN);
  EXPECT_EQ(durable.count(result.unit_id), 1u)
      << "a duplicate was acked before the first copy was durable";
  server.stop();
  std::filesystem::remove_all(wal_dir);
}

TEST(Chaos, GroupCommitDonorKeepsAnAckThatArrivesFirst) {
  // A persistent donor's last result completes the job, and its ack is
  // held behind a slow fsync while its pipelined RequestWork is answered
  // and the next one parks. The ack lands while the donor waits for that
  // parked reply; the donor must keep it for the next SubmitResult, not
  // take it for a stray reply and drop the session.
  test::register_toy_algorithm();
  std::string wal_dir = testing::TempDir() + "hdcs_group_commit_early_wal";
  std::filesystem::remove_all(wal_dir);
  vfs::StorageFaultSpec slow_disk;
  slow_disk.sync_delay_prob = 1.0;
  slow_disk.sync_delay_s = 0.1;
  slow_disk.path_filter = "hdcs_group_commit_early_wal";
  vfs::ScopedStorageFaultPlan scoped(slow_disk);
  auto& reg = obs::Registry::global();

  ServerConfig scfg = group_commit_config(wal_dir);
  Server server(scfg);
  auto first = std::make_shared<test::ToySumDataManager>(1000);  // 1 unit
  auto pid_first = server.submit_problem(first);
  server.start();
  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "pipelined";
  ccfg.exit_when_idle = false;
  Client client(ccfg);
  ClientRunStats stats;
  std::thread donor([&] { stats = client.run(); });

  const bool first_done = server.wait_for_problem(pid_first, 10.0);
  // Released while the donor's repeat RequestWork is parked.
  for (int i = 0; i < 1000; ++i) {
    if (reg.gauge("server.held_acks").value() == 0 &&
        reg.gauge("server.parked_requests").value() == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // New work, from a problem the donor must fetch first.
  auto second = std::make_shared<test::ToySumDataManager>(3000, 7);
  auto pid_second = server.submit_problem(second);
  const bool second_done = server.wait_for_problem(pid_second, 10.0);
  server.drain();
  client.request_stop();  // it still collects its last ack first
  donor.join();
  ASSERT_TRUE(first_done && second_done);
  EXPECT_EQ(stats.units_processed, 4u);
  EXPECT_EQ(stats.reconnects, 0u) << "an early ack was taken for a stray reply";
  EXPECT_EQ(test::read_u64_result(server.final_result(pid_first)),
            first->expected());
  EXPECT_EQ(test::read_u64_result(server.final_result(pid_second)),
            second->expected());
  server.stop();
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace hdcs::dist
