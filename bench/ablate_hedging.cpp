// Ablation D: end-game straggler hedging.
//
// On a semi-idle donor fleet the last few units of a problem can sit on a
// nearly-reclaimed machine while everyone else idles; waiting for the
// lease timeout wastes the whole fleet. With hedge_endgame the scheduler
// speculatively duplicates the oldest outstanding unit onto an idle donor
// and takes whichever result lands first. This bench measures the tail on
// a fleet with a few pathologically slow donors, hedging off vs. on.

#include <cstdio>

#include "bio/seqgen.hpp"
#include "dsearch/dsearch.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"

using namespace hdcs;

namespace {

constexpr double kScale = 2500.0;

sim::SimConfig make_config(bool hedging) {
  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7 / kScale;
  cfg.network.bandwidth_bps = 100e6 / 8 / kScale;
  cfg.policy_spec = "adaptive:40";
  cfg.scheduler.lease_timeout = 3000;  // slow donors won't blow the lease
  cfg.scheduler.hedge_endgame = hedging;
  cfg.scheduler.bounds.min_ops = 100;
  cfg.seed = 5;
  return cfg;
}

std::vector<sim::MachineSpec> straggler_fleet() {
  // 24 healthy semi-idle donors + 4 donors whose owners basically never
  // leave (5% availability): classic cycle-scavenging stragglers.
  auto fleet = sim::lab_fleet(24, 0.85, 0.10);
  for (int i = 0; i < 4; ++i) {
    sim::MachineSpec m;
    m.name = "straggler-" + std::to_string(i);
    m.speed = 1.0;
    m.availability_mean = 0.05;
    m.availability_jitter = 0.0;
    fleet.push_back(m);
  }
  return fleet;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kError);
  dsearch::register_algorithm();

  Rng rng(66);
  auto queries = bio::make_queries(rng, 2, 250, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 4000;
  spec.mean_length = 150;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 10;

  std::printf("=== Ablation: end-game straggler hedging ===\n");
  std::printf("fleet: 24 semi-idle donors + 4 stragglers at 5%% availability; "
              "lease timeout deliberately long (3000 s)\n\n");

  auto cache = std::make_shared<sim::SimDriver::ResultCache>();
  double makespans[2] = {0, 0};
  std::printf("%-10s %14s %10s %12s %12s\n", "hedging", "makespan(s)", "hedged",
              "duplicates", "utilization");
  for (bool hedging : {false, true}) {
    sim::SimDriver driver(make_config(hedging), straggler_fleet());
    driver.set_shared_cache(cache);
    auto dm = std::make_shared<dsearch::DSearchDataManager>(queries, database,
                                                            dcfg);
    driver.add_problem(dm);
    auto out = driver.run();
    makespans[hedging ? 1 : 0] = out.makespan_s;
    std::printf("%-10s %14.0f %10llu %12llu %11.1f%%\n",
                hedging ? "on" : "off", out.makespan_s,
                static_cast<unsigned long long>(out.scheduler.units_hedged),
                static_cast<unsigned long long>(
                    out.scheduler.duplicate_results_dropped),
                100.0 * out.mean_utilization());
  }

  std::printf("\ntail reduction from hedging: %.1f%%\n",
              100.0 * (1.0 - makespans[1] / makespans[0]));
  bool pass = makespans[1] <= makespans[0] * 1.02;
  std::printf("acceptance check: hedging does not hurt, and helps under "
              "stragglers ........ %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
