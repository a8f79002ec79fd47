// Ablation A: the adaptive granularity claim.
//
// Paper §3.1: "The parallel granularity is dynamically controlled during
// each search to match the processing abilities of the current set of
// donor machines"; the strategy itself is the authors' companion paper
// [12]. This bench runs the same DSEARCH job on a deliberately lopsided
// fleet (fast PIV-class vs slow PII-class donors) under each policy:
//
//   fixed-small   — constant tiny units: per-unit overhead dominates
//   fixed-large   — constant huge units: slow donors become stragglers
//   guided        — guided self-scheduling (decreasing chunks)
//   adaptive      — the paper's throughput-matched sizing
//
// Expected: adaptive wins on heterogeneous fleets (the design claim), and
// the fixed policies bracket it from both failure directions.

#include <cstdio>
#include <vector>

#include "bio/seqgen.hpp"
#include "dsearch/dsearch.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"

using namespace hdcs;

namespace {

constexpr double kScale = 2500.0;

sim::SimConfig base_config(const std::string& policy) {
  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7 / kScale;
  cfg.network.bandwidth_bps = 100e6 / 8 / kScale;
  cfg.network.server_overhead_s = 1.2e-3;
  cfg.policy_spec = policy;
  cfg.scheduler.lease_timeout = 2000;
  cfg.scheduler.bounds.min_ops = 100;
  cfg.seed = 3;
  return cfg;
}

struct Workload {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
  dsearch::DSearchConfig config;
};

Workload make_workload() {
  Rng rng(77);
  Workload w;
  w.queries = bio::make_queries(rng, 2, 250, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 5000;
  spec.mean_length = 150;
  w.database = bio::make_database(rng, spec, w.queries);
  w.config.top_k = 10;
  return w;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kError);
  dsearch::register_algorithm();
  auto w = make_workload();
  double total_ops = static_cast<double>(bio::total_residues(w.database)) *
                     bio::total_residues(w.queries);

  std::printf("=== Ablation: granularity policy on a heterogeneous fleet ===\n");
  std::printf("fleet: 16 donors, alternating speed 2.0 (PIV-class) and 0.3 "
              "(PII-class); %.2e DP cells\n\n",
              total_ops);

  // Unit sizes for the fixed policies, relative to the mean donor:
  // "small" ~1.5 s on the reference machine, "large" ~1/20th of the whole
  // job (so 16 donors x slow-donor stragglers hurt).
  double ref = 5e7 / kScale;
  std::vector<std::pair<std::string, std::string>> policies = {
      {"fixed-small", "fixed:" + std::to_string(ref * 1.5)},
      {"fixed-large", "fixed:" + std::to_string(total_ops / 20)},
      {"guided", "guided:2"},
      {"adaptive", "adaptive:40"},
  };

  auto cache = std::make_shared<sim::SimDriver::ResultCache>();
  std::printf("%-14s %14s %12s %14s %12s\n", "policy", "makespan(s)", "units",
              "reissued", "utilization");
  double adaptive_makespan = 0, best_other = 1e300;
  for (const auto& [label, spec] : policies) {
    sim::SimDriver driver(base_config(spec), sim::heterogeneous_fleet(16));
    driver.set_shared_cache(cache);
    auto dm = std::make_shared<dsearch::DSearchDataManager>(w.queries, w.database,
                                                            w.config);
    driver.add_problem(dm);
    auto out = driver.run();
    std::printf("%-14s %14.0f %12llu %14llu %11.1f%%\n", label.c_str(),
                out.makespan_s,
                static_cast<unsigned long long>(out.scheduler.units_issued),
                static_cast<unsigned long long>(out.scheduler.units_reissued),
                100.0 * out.mean_utilization());
    if (label == "adaptive") {
      adaptive_makespan = out.makespan_s;
    } else {
      best_other = std::min(best_other, out.makespan_s);
    }
  }

  bool pass = adaptive_makespan <= best_other * 1.05;
  std::printf("\nacceptance check: adaptive at least matches every other "
              "policy ........ %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
