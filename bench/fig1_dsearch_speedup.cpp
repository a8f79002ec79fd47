// Figure 1 reproduction: "Speedup achieved by DSEARCH over a network of 83
// semi-idle machines" (homogeneous PIII-1GHz lab).
//
// The paper's curve is near-linear to ~40 processors and visibly sub-linear
// beyond, ending around 70x at 83 machines. The bend comes from the
// deployment's shared resources: one PIII-500 server and one 100 Mbit/s
// link carrying every database chunk.
//
// Scaled world: simulating hour-long searches at full fidelity would mean
// executing hours of real alignment, so compute rate and link bandwidth are
// both divided by the same factor (~2500). All *ratios* that shape the
// curve — unit duration vs transfer time vs server occupancy — are
// preserved; see DESIGN.md.

#include <cstdio>
#include <vector>

#include "bio/seqgen.hpp"
#include "dsearch/dsearch.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

using namespace hdcs;

namespace {

constexpr double kScale = 2500.0;  // world-scaling factor (see header note)

sim::SimConfig fig1_sim_config() {
  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7 / kScale;        // PIII-1GHz, scaled
  cfg.network.bandwidth_bps = 100e6 / 8 / kScale;  // shared 100 Mbit/s, scaled
  cfg.network.latency_s = 0.5e-3;
  cfg.network.server_overhead_s = 1.2e-3;  // PIII-500 per-message cost
  cfg.network.server_per_byte_s = 2e-8;
  cfg.policy_spec = "adaptive:40";
  cfg.scheduler.lease_timeout = 600;
  cfg.scheduler.bounds.min_ops = 1e3;
  cfg.no_work_retry_s = 2.0;
  cfg.seed = 1;
  return cfg;
}

struct Workload {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
  dsearch::DSearchConfig config;
};

Workload make_workload() {
  Rng rng(1955);
  Workload w;
  w.queries = bio::make_queries(rng, 2, 300, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 8000;
  spec.mean_length = 150;
  spec.min_length = 40;
  spec.planted_homologs_per_query = 5;
  w.database = bio::make_database(rng, spec, w.queries);
  w.config.mode = bio::AlignMode::kLocal;  // Smith–Waterman, the sensitive one
  w.config.top_k = 10;
  return w;
}

/// Paper Fig. 1 anchors read off the plot (approximate).
double paper_speedup(int n) {
  struct Anchor {
    int n;
    double s;
  };
  static const Anchor anchors[] = {{1, 1},   {10, 9.7}, {20, 19},  {30, 28},
                                   {40, 36}, {50, 44},  {60, 52},  {70, 60},
                                   {83, 70}};
  for (std::size_t i = 1; i < std::size(anchors); ++i) {
    if (n <= anchors[i].n) {
      const auto& a = anchors[i - 1];
      const auto& b = anchors[i];
      double t = static_cast<double>(n - a.n) / (b.n - a.n);
      return a.s + t * (b.s - a.s);
    }
  }
  return anchors[std::size(anchors) - 1].s;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kError);
  auto workload = make_workload();
  std::size_t db_residues = bio::total_residues(workload.database);
  std::size_t q_residues = bio::total_residues(workload.queries);
  double total_ops = static_cast<double>(db_residues) * q_residues;

  std::printf("=== Figure 1: DSEARCH speedup, 83 semi-idle PIII-1GHz lab ===\n");
  std::printf("database: %zu sequences, %zu residues; %zu queries; "
              "%.2e DP cells total (x%.0f scaled world)\n\n",
              workload.database.size(), db_residues, workload.queries.size(),
              total_ops, kScale);

  const std::vector<int> fleet_sizes = {1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 72, 83};

  dsearch::register_algorithm();
  auto cache = std::make_shared<sim::SimDriver::ResultCache>();
  dsearch::SearchResult reference;
  double t1 = 0;

  std::printf("%6s %14s %10s %10s %12s %12s\n", "procs", "makespan(s)",
              "speedup", "linear", "efficiency", "paper(~)");
  Stopwatch wall;
  bool monotone = true, exact = true;
  double prev_speedup = 0, speedup_at_32 = 0, speedup_at_83 = 0;

  for (int n : fleet_sizes) {
    sim::SimDriver driver(fig1_sim_config(), sim::lab_fleet(n, 0.85, 0.10));
    driver.set_shared_cache(cache);
    auto dm = std::make_shared<dsearch::DSearchDataManager>(
        workload.queries, workload.database, workload.config);
    driver.add_problem(dm);
    auto out = driver.run();

    if (n == 1) {
      t1 = out.makespan_s;
      reference = dm->result();
    } else if (dm->result() != reference) {
      exact = false;
    }
    double speedup = t1 / out.makespan_s;
    if (speedup < prev_speedup) monotone = false;
    prev_speedup = speedup;
    if (n == 32) speedup_at_32 = speedup;
    if (n == 83) speedup_at_83 = speedup;

    std::printf("%6d %14.0f %10.2f %10d %11.1f%% %12.1f\n", n, out.makespan_s,
                speedup, n, 100.0 * speedup / n, paper_speedup(n));
  }

  std::printf("\nwall-clock for the whole sweep: %.1f s\n", wall.seconds());
  bool failed = false;
  auto verdict = [&failed](bool pass) {
    failed = failed || !pass;
    return pass ? "PASS" : "FAIL";
  };
  std::printf("\nacceptance checks (DESIGN.md):\n");
  std::printf("  results identical across fleet sizes ........ %s\n",
              verdict(exact));
  std::printf("  speedup monotone in processors ............... %s\n",
              verdict(monotone));
  std::printf("  >= 0.9x linear at 32 procs .................... %s (%.2f)\n",
              verdict(speedup_at_32 >= 0.9 * 32), speedup_at_32);
  std::printf("  60..78x at 83 procs (paper: ~70x) ............. %s (%.2f)\n",
              verdict(speedup_at_83 >= 60 && speedup_at_83 <= 78), speedup_at_83);
  return failed ? 1 : 0;
}
