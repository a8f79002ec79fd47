#include "sim/sim_driver.hpp"

#include <gtest/gtest.h>

#include "dist/client.hpp"
#include "dist/server.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "tests/toy_problem.hpp"
#include "util/error.hpp"

namespace hdcs::sim {
namespace {

using test::ToySumDataManager;

SimConfig fast_config() {
  SimConfig cfg;
  cfg.reference_ops_per_sec = 1e6;
  cfg.scheduler.lease_timeout = 1e5;
  cfg.scheduler.bounds.min_ops = 1;
  cfg.policy_spec = "adaptive:5";
  cfg.no_work_retry_s = 0.5;
  test::register_toy_algorithm();
  return cfg;
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(3); });
  q.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(q.now() + 1.0, chain);
  };
  q.schedule(0.0, chain);
  q.run_until();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [&] { EXPECT_THROW(q.schedule(1.0, [] {}), Error); });
  q.run_until();
}

TEST(EventQueue, StopPredicateHalts) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule(i, [&] { ++count; });
  }
  q.run_until([&] { return count >= 3; });
  EXPECT_EQ(count, 3);
}

TEST(Fleet, LabFleetHomogeneous) {
  auto fleet = lab_fleet(83);
  EXPECT_EQ(fleet.size(), 83u);
  for (const auto& m : fleet) {
    EXPECT_DOUBLE_EQ(m.speed, 1.0);
    EXPECT_LT(m.availability_mean, 1.0);
  }
}

TEST(Fleet, ClusterFleet64Cpus) {
  auto fleet = cluster_fleet();
  EXPECT_EQ(fleet.size(), 64u);
  for (const auto& m : fleet) EXPECT_DOUBLE_EQ(m.availability_mean, 1.0);
}

TEST(Fleet, CampusFleetMixAndSize) {
  Rng rng(1);
  auto fleet = campus_fleet(rng, 200);
  EXPECT_EQ(fleet.size(), 264u);
  double min_speed = 1e9, max_speed = 0;
  for (const auto& m : fleet) {
    min_speed = std::min(min_speed, m.speed);
    max_speed = std::max(max_speed, m.speed);
  }
  EXPECT_LT(min_speed, 0.5);
  EXPECT_GT(max_speed, 1.5);
}

TEST(SimDriver, ProducesCorrectResult) {
  auto cfg = fast_config();
  SimDriver sim(cfg, lab_fleet(4));
  auto dm = std::make_shared<ToySumDataManager>(100000);
  auto pid = sim.add_problem(dm);
  auto out = sim.run();

  EXPECT_EQ(test::read_u64_result(out.final_results.at(pid)), dm->expected());
  EXPECT_GT(out.makespan_s, 0.0);
  EXPECT_GT(out.scheduler.units_issued, 0u);
  EXPECT_EQ(out.scheduler.units_issued, out.scheduler.results_accepted);
}

TEST(SimDriver, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto cfg = fast_config();
    SimDriver sim(cfg, lab_fleet(8));
    sim.add_problem(std::make_shared<ToySumDataManager>(200000));
    return sim.run().makespan_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SimDriver, MoreMachinesFinishFaster) {
  auto makespan_with = [](int n) {
    auto cfg = fast_config();
    SimDriver sim(cfg, lab_fleet(n));
    sim.add_problem(std::make_shared<ToySumDataManager>(2000000));
    return sim.run().makespan_s;
  };
  double t1 = makespan_with(1);
  double t8 = makespan_with(8);
  EXPECT_LT(t8, t1 / 4.0);  // at least 4x speedup from 8 machines
}

TEST(SimDriver, FasterMachinesDoMoreUnits) {
  auto cfg = fast_config();
  std::vector<MachineSpec> fleet(2);
  fleet[0].name = "slow";
  fleet[0].speed = 0.25;
  fleet[1].name = "fast";
  fleet[1].speed = 2.0;
  SimDriver sim(cfg, fleet);
  sim.add_problem(std::make_shared<ToySumDataManager>(3000000));
  auto out = sim.run();
  ASSERT_EQ(out.machines.size(), 2u);
  const auto& slow = out.machines[0];
  const auto& fast = out.machines[1];
  EXPECT_GT(fast.units, slow.units);
}

TEST(SimDriver, CrashedMachineWorkIsRecovered) {
  auto cfg = fast_config();
  cfg.scheduler.lease_timeout = 2.0;
  auto fleet = lab_fleet(3);
  fleet[0].leave_time = 0.2;  // crashes early, mid-computation
  fleet[0].crash_on_leave = true;
  SimDriver sim(cfg, fleet);
  auto dm = std::make_shared<ToySumDataManager>(5000000);
  auto pid = sim.add_problem(dm);
  auto out = sim.run();
  EXPECT_EQ(test::read_u64_result(out.final_results.at(pid)), dm->expected());
  EXPECT_TRUE(out.machines[0].departed);
}

TEST(SimDriver, GracefulLeaveRequeuesImmediately) {
  auto cfg = fast_config();
  cfg.scheduler.lease_timeout = 1e6;  // expiry would never fire
  auto fleet = lab_fleet(3);
  fleet[1].leave_time = 5.0;
  fleet[1].crash_on_leave = false;  // sends Goodbye
  SimDriver sim(cfg, fleet);
  auto dm = std::make_shared<ToySumDataManager>(1000000);
  auto pid = sim.add_problem(dm);
  auto out = sim.run();
  EXPECT_EQ(test::read_u64_result(out.final_results.at(pid)), dm->expected());
}

TEST(SimDriver, RejoiningMachineContributesAgain) {
  auto cfg = fast_config();
  cfg.scheduler.lease_timeout = 20.0;
  auto fleet = lab_fleet(2);
  fleet[0].leave_time = 5.0;
  fleet[0].rejoin_time = 15.0;
  SimDriver sim(cfg, fleet);
  auto dm = std::make_shared<ToySumDataManager>(2000000);
  auto pid = sim.add_problem(dm);
  auto out = sim.run();
  EXPECT_EQ(test::read_u64_result(out.final_results.at(pid)), dm->expected());
  EXPECT_FALSE(out.machines[0].departed);
}

TEST(SimDriver, MultipleProblemsAllComplete) {
  auto cfg = fast_config();
  SimDriver sim(cfg, lab_fleet(6));
  std::vector<std::shared_ptr<ToySumDataManager>> dms;
  std::vector<dist::ProblemId> pids;
  for (int i = 0; i < 3; ++i) {
    dms.push_back(std::make_shared<ToySumDataManager>(300000, i * 1000));
    pids.push_back(sim.add_problem(dms.back()));
  }
  auto out = sim.run();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    EXPECT_EQ(test::read_u64_result(out.final_results.at(pids[i])), dms[i]->expected());
    EXPECT_GT(out.completion_time_s.at(pids[i]), 0.0);
  }
}

TEST(SimDriver, StagedProblemSingleVsMultiInstanceUtilization) {
  // The Fig. 2 phenomenon in miniature: one staged problem leaves donors
  // idle at barriers; adding a second concurrent instance raises
  // utilization and total throughput.
  auto utilization_with_instances = [](int instances) {
    auto cfg = fast_config();
    SimDriver sim(cfg, lab_fleet(8));
    for (int i = 0; i < instances; ++i) {
      sim.add_problem(
          std::make_shared<ToySumDataManager>(400000, i, /*stages=*/20));
    }
    return sim.run().mean_utilization();
  };
  double u1 = utilization_with_instances(1);
  double u2 = utilization_with_instances(2);
  EXPECT_GT(u2, u1);
}

TEST(SimDriver, CacheSharedAcrossSweepRuns) {
  auto cfg = fast_config();
  std::shared_ptr<SimDriver::ResultCache> cache;
  std::uint64_t first_misses = 0;
  {
    SimDriver sim(cfg, lab_fleet(2));
    sim.add_problem(std::make_shared<ToySumDataManager>(100000));
    cache = sim.shared_cache();
    auto out = sim.run();
    first_misses = out.cache_misses;
    EXPECT_GT(first_misses, 0u);
    EXPECT_EQ(out.cache_hits, 0u);
  }
  {
    // Same problem, same granularity pattern -> should hit the cache.
    SimDriver sim(cfg, lab_fleet(2));
    sim.set_shared_cache(cache);
    sim.add_problem(std::make_shared<ToySumDataManager>(100000));
    auto out = sim.run();
    EXPECT_GT(out.cache_hits, 0u);
  }
}

TEST(SimDriver, OwnerOnOffModelMatchesLongRunAvailability) {
  // A donor whose owner is at the keyboard half the time should take about
  // twice as long as a dedicated machine on the same workload.
  auto makespan_with = [](double busy_mean, double free_mean) {
    auto cfg = fast_config();
    std::vector<MachineSpec> fleet(1);
    fleet[0].name = "m";
    if (busy_mean > 0) {
      fleet[0].owner_busy_mean = busy_mean;
      fleet[0].owner_free_mean = free_mean;
    } else {
      fleet[0].availability_mean = 1.0;
      fleet[0].availability_jitter = 0.0;
    }
    SimDriver sim(cfg, fleet);
    // ~100 s of compute spanning many owner on/off periods.
    auto dm = std::make_shared<ToySumDataManager>(100000000);
    auto pid = sim.add_problem(dm);
    auto out = sim.run();
    EXPECT_EQ(test::read_u64_result(out.final_results.at(pid)), dm->expected());
    return out.makespan_s;
  };
  double dedicated = makespan_with(0, 0);
  double half_idle = makespan_with(5.0, 5.0);  // 50% availability
  double ratio = half_idle / dedicated;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.8);
}

TEST(SimDriver, OwnerOnOffIsHeavyTailedButExact) {
  // Same mean availability, two models: the on/off donor must produce a
  // larger worst-unit stall than smooth jitter, with identical results.
  auto cfg = fast_config();
  cfg.policy_spec = "fixed:20000";  // many equal units
  auto run = [&](bool onoff) {
    auto fleet = lab_fleet(2, 0.5, 0.0);
    if (onoff) {
      for (auto& m : fleet) {
        m.owner_busy_mean = 60.0;
        m.owner_free_mean = 60.0;
      }
    }
    SimDriver sim(cfg, fleet);
    auto dm = std::make_shared<ToySumDataManager>(2000000);
    auto pid = sim.add_problem(dm);
    auto out = sim.run();
    return test::read_u64_result(out.final_results.at(pid));
  };
  EXPECT_EQ(run(false), run(true));  // availability model never changes answers
}

TEST(SimDriver, ApiMisuseThrows) {
  auto cfg = fast_config();
  {
    SimDriver sim(cfg, lab_fleet(1));
    EXPECT_THROW(sim.run(), Error);  // no problems
  }
  {
    SimDriver sim(cfg, {});
    sim.add_problem(std::make_shared<ToySumDataManager>(10));
    EXPECT_THROW(sim.run(), Error);  // empty fleet
  }
  {
    SimDriver sim(cfg, lab_fleet(1));
    sim.add_problem(std::make_shared<ToySumDataManager>(1000));
    sim.run();
    EXPECT_THROW(sim.run(), Error);  // run twice
    EXPECT_THROW(sim.add_problem(std::make_shared<ToySumDataManager>(10)), Error);
  }
}

TEST(SimDriver, AllDonorsGoneRaises) {
  auto cfg = fast_config();
  cfg.scheduler.lease_timeout = 5.0;
  auto fleet = lab_fleet(1);
  fleet[0].leave_time = 0.5;  // leaves almost immediately, never returns
  SimDriver sim(cfg, fleet);
  sim.add_problem(std::make_shared<ToySumDataManager>(100000000));
  EXPECT_THROW(sim.run(), Error);
}

TEST(SimDriver, TraceMatchesRealServerEventOrder) {
  // The tentpole property of the shared trace schema: a simulated run and a
  // real loopback-TCP run of the same single-client workload emit the same
  // event *types* in the same order. The fixed granularity policy pins the
  // unit count, and a lone strictly-serial client pins the interleaving; only
  // timestamps (virtual vs wall) and ids may differ.
  test::register_toy_algorithm();
  constexpr std::uint64_t kN = 400000;
  constexpr const char* kPolicy = "fixed:100000";  // exactly 4 units

  auto event_types = [](const std::vector<std::string>& lines) {
    std::vector<std::string> evs;
    for (const auto& line : lines) {
      auto rec = obs::parse_trace_line(line);
      // log lines are chatter, not scheduling decisions.
      if (rec.ev == "log") continue;
      evs.push_back(rec.ev);
    }
    return evs;
  };

  obs::Tracer sim_tracer;
  sim_tracer.to_memory();
  {
    auto cfg = fast_config();
    cfg.policy_spec = kPolicy;
    cfg.tracer = &sim_tracer;
    MachineSpec spec;
    spec.name = "lone-donor";
    spec.availability_mean = 1.0;  // deterministic: no jitter, never leaves
    SimDriver sim(cfg, {spec});
    sim.add_problem(std::make_shared<ToySumDataManager>(kN));
    sim.run();
  }

  obs::Tracer srv_tracer;
  srv_tracer.to_memory();
  {
    dist::ServerConfig cfg;
    cfg.scheduler.bounds.min_ops = 1;
    cfg.policy_spec = kPolicy;
    cfg.tick_interval_s = 0.05;
    cfg.no_work_retry_s = 0.02;
    cfg.tracer = &srv_tracer;
    dist::Server server(cfg);
    server.start();
    auto pid = server.submit_problem(std::make_shared<ToySumDataManager>(kN));
    dist::ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "lone-donor";
    dist::Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    server.stop();
  }

  auto sim_events = event_types(sim_tracer.lines());
  auto srv_events = event_types(srv_tracer.lines());
  ASSERT_FALSE(sim_events.empty());
  EXPECT_EQ(sim_events, srv_events);

  // And the shape is exactly the canonical single-client lifecycle: the
  // first issued unit triggers one problem-data blob transfer (the v4 data
  // plane); after that the donor's cache holds it silently. Every result
  // from a v5 donor lands a unit_profile right before its unit_completed.
  std::vector<std::string> expected{"client_joined"};
  for (int i = 0; i < 4; ++i) {
    expected.emplace_back("unit_issued");
    if (i == 0) expected.emplace_back("blob_sent");
    expected.emplace_back("unit_profile");
    expected.emplace_back("unit_completed");
  }
  expected.emplace_back("client_left");
  EXPECT_EQ(sim_events, expected);
}

}  // namespace
}  // namespace hdcs::sim
