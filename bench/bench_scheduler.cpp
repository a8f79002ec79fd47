// Microbenchmarks of the scheduler core: the server's per-request cost is
// what limits how many donors one PIII-500 could feed (Fig. 1's knee), so
// request_work/submit_result must be cheap and scale with client count.

#include <benchmark/benchmark.h>

#include "dist/scheduler_core.hpp"
#include "tests/toy_problem.hpp"

using namespace hdcs;
using namespace hdcs::dist;

namespace {

SchedulerConfig bench_config() {
  SchedulerConfig cfg;
  cfg.lease_timeout = 1e9;
  cfg.bounds.min_ops = 1;
  cfg.bounds.max_ops = 1e18;
  return cfg;
}

void BM_RequestSubmitCycle(benchmark::State& state) {
  test::register_toy_algorithm();
  auto clients = static_cast<int>(state.range(0));
  SchedulerCore core(bench_config(), std::make_unique<AdaptiveThroughput>(1.0));
  // Effectively infinite problem so units never run out.
  auto dm = std::make_shared<test::ToySumDataManager>(1ull << 62);
  core.submit_problem(dm);
  std::vector<ClientId> ids;
  for (int i = 0; i < clients; ++i) {
    ids.push_back(core.client_joined("c" + std::to_string(i), 1e6, 0.0));
  }
  test::ToySumAlgorithm algo;
  auto data = dm->problem_data();
  algo.initialize(data);

  double t = 0;
  std::size_t i = 0;
  ByteWriter result_template;
  for (auto _ : state) {
    ClientId cid = ids[i++ % ids.size()];
    auto unit = core.request_work(cid, t);
    ResultUnit r;
    r.problem_id = unit->problem_id;
    r.unit_id = unit->unit_id;
    r.stage = unit->stage;
    r.epoch = unit->epoch;
    // A canned tiny result: the bench measures scheduling, not the sum.
    ByteWriter w;
    w.u64(0);
    r.payload = w.take();
    core.submit_result(cid, r, t + 0.001);
    t += 0.01;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RequestSubmitCycle)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_TickWithManyLeases(benchmark::State& state) {
  auto leases = static_cast<int>(state.range(0));
  SchedulerCore core(bench_config(), std::make_unique<FixedGranularity>(100));
  auto dm = std::make_shared<test::ToySumDataManager>(1ull << 62);
  core.submit_problem(dm);
  auto cid = core.client_joined("c", 1e6, 0.0);
  for (int i = 0; i < leases; ++i) core.request_work(cid, 0.0);

  double t = 1.0;
  for (auto _ : state) {
    core.tick(t);  // nothing expires (timeout 1e9): pure scan cost
    t += 0.001;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * leases);
}
BENCHMARK(BM_TickWithManyLeases)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MultiProblemRoundRobin(benchmark::State& state) {
  auto problems = static_cast<int>(state.range(0));
  SchedulerCore core(bench_config(), std::make_unique<FixedGranularity>(1000));
  for (int i = 0; i < problems; ++i) {
    core.submit_problem(std::make_shared<test::ToySumDataManager>(1ull << 62));
  }
  auto cid = core.client_joined("c", 1e6, 0.0);
  double t = 0;
  for (auto _ : state) {
    auto unit = core.request_work(cid, t);
    ResultUnit r;
    r.problem_id = unit->problem_id;
    r.unit_id = unit->unit_id;
    r.epoch = unit->epoch;
    ByteWriter w;
    w.u64(0);
    r.payload = w.take();
    core.submit_result(cid, r, t);
    t += 0.01;
  }
}
BENCHMARK(BM_MultiProblemRoundRobin)->Arg(1)->Arg(6)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
