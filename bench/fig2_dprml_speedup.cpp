// Figure 2 reproduction: "Speedup achieved over 50 taxa dataset with 6
// problems running simultaneously" (DPRml, 1..40 processors).
//
// DPRml is a staged computation: each insertion stage fans candidate
// placements out to donors, then synchronises before choosing the best.
// A single instance therefore leaves donors idle at stage barriers —
// "running a single instance of the application will result in clients
// becoming idle whilst waiting for stages to be completed" — so the paper
// (and this bench) runs six instances simultaneously, which the scheduler
// interleaves. The single-instance ablation quantifies exactly that.

#include <cstdio>
#include <vector>

#include "dprml/dprml.hpp"
#include "phylo/simulate.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

using namespace hdcs;

namespace {

constexpr int kTaxa = 50;
constexpr std::size_t kSites = 120;
constexpr int kInstances = 6;

sim::SimConfig fig2_sim_config() {
  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7;  // PIII-1GHz in likelihood-flop units
  cfg.network.bandwidth_bps = 100e6 / 8;
  cfg.network.latency_s = 0.5e-3;
  cfg.network.server_overhead_s = 1.2e-3;
  cfg.policy_spec = "adaptive:4";  // a few edges per unit: stages stay wide
  cfg.scheduler.lease_timeout = 600;
  cfg.scheduler.bounds.min_ops = 1;
  cfg.no_work_retry_s = 0.25;
  cfg.seed = 2;
  return cfg;
}

phylo::Alignment make_dataset() {
  Rng rng(1905);
  auto tree = phylo::random_tree(rng, {kTaxa, 0.1, "t"});
  auto model = phylo::SubstModel::jc69();
  return phylo::simulate_alignment(rng, tree, model, phylo::RateModel::uniform(),
                                   {kSites});
}

dprml::DPRmlConfig instance_config(int instance) {
  dprml::DPRmlConfig c;
  c.model_spec = "JC69";
  c.branch_tolerance = 2e-2;
  c.eval_passes = 1;
  c.refine_passes = 1;
  c.full_refine_every = 25;
  c.use_eval_cache = true;  // deterministic; shared across the sweep
  // Present the job at real scale: the paper's stages take minutes, so
  // polling/barrier latencies must be a small fraction of a stage.
  c.cost_scale = 10.0;
  c.order_seed = static_cast<std::uint64_t>(instance + 1);
  return c;
}

/// Run `instances` DPRml problems on `procs` machines; returns the outcome.
sim::SimOutcome run_fleet(int procs, int instances, const phylo::Alignment& aln,
                          std::shared_ptr<sim::SimDriver::ResultCache> cache) {
  sim::SimDriver driver(fig2_sim_config(), sim::lab_fleet(procs, 1.0, 0.02));
  driver.set_shared_cache(std::move(cache));
  for (int i = 0; i < instances; ++i) {
    driver.add_problem(
        std::make_shared<dprml::DPRmlDataManager>(aln, instance_config(i)));
  }
  return driver.run();
}

/// Paper Fig. 2 anchors read off the plot (approximate, 6-instance line).
double paper_speedup(int n) {
  struct Anchor {
    int n;
    double s;
  };
  static const Anchor anchors[] = {{1, 1}, {5, 4.9}, {10, 9.5}, {15, 14},
                                   {20, 18.5}, {25, 23}, {30, 27}, {35, 31},
                                   {40, 35}};
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
  dprml::register_algorithm();
  dprml::EvalCache::global().clear();
  auto aln = make_dataset();
  std::printf(
      "=== Figure 2: DPRml speedup, %d-taxon dataset, %d instances ===\n",
      kTaxa, kInstances);
  std::printf("alignment: %zu taxa x %zu sites, model JC69; stepwise "
              "insertion with local/global smoothing\n\n",
              aln.taxon_count(), aln.site_count());

  auto cache = std::make_shared<sim::SimDriver::ResultCache>();
  const std::vector<int> fleet_sizes = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40};

  Stopwatch wall;
  double t1 = 0;
  double prev = 0;
  bool monotone = true;
  bool same_trees = true;
  double speedup_at_40 = 0;
  std::vector<std::string> reference_trees;

  std::printf("%6s %14s %10s %10s %12s %12s\n", "procs", "makespan(s)",
              "speedup", "linear", "efficiency", "paper(~)");
  for (int n : fleet_sizes) {
    auto out = run_fleet(n, kInstances, aln, cache);
    // Decode the six trees; they must not depend on the fleet size.
    std::vector<std::string> trees;
    for (auto& [pid, bytes] : out.final_results) {
      ByteReader r{std::span<const std::byte>(bytes)};
      trees.push_back(dprml::decode_dprml_result(r).newick);
    }
    if (n == 1) {
      t1 = out.makespan_s;
      reference_trees = trees;
    } else if (trees != reference_trees) {
      same_trees = false;
    }
    double speedup = t1 / out.makespan_s;
    if (speedup < prev) monotone = false;
    prev = speedup;
    if (n == 40) speedup_at_40 = speedup;
    std::printf("%6d %14.0f %10.2f %10d %11.1f%% %12.1f\n", n, out.makespan_s,
                speedup, n, 100.0 * speedup / n, paper_speedup(n));
  }

  // Ablation: why six instances? A single instance on the same fleets.
  std::printf("\n--- ablation: single instance vs %d instances ---\n",
              kInstances);
  std::printf("%6s %16s %16s %18s\n", "procs", "util(1 inst)",
              "util(6 inst)", "speedup(1 inst)");
  double single_t1 = 0;
  for (int n : {1, 8, 16, 40}) {
    auto one = run_fleet(n, 1, aln, cache);
    auto six = run_fleet(n, kInstances, aln, cache);
    if (n == 1) single_t1 = one.makespan_s;
    std::printf("%6d %15.1f%% %15.1f%% %18.2f\n", n,
                100.0 * one.mean_utilization(), 100.0 * six.mean_utilization(),
                single_t1 / one.makespan_s);
  }

  std::printf("\nwall-clock for the whole sweep: %.1f s\n", wall.seconds());
  std::printf("(candidate-evaluation cache: %zu entries)\n",
              dprml::EvalCache::global().size());
  bool failed = false;
  auto verdict = [&failed](bool pass) {
    failed = failed || !pass;
    return pass ? "PASS" : "FAIL";
  };
  std::printf("\nacceptance checks (DESIGN.md):\n");
  std::printf("  trees identical across fleet sizes ........... %s\n",
              verdict(same_trees));
  std::printf("  speedup monotone in processors ............... %s\n",
              verdict(monotone));
  std::printf("  >= 0.8x linear at 40 procs (paper ~35/40) ..... %s (%.2f)\n",
              verdict(speedup_at_40 >= 0.8 * 40), speedup_at_40);
  return failed ? 1 : 0;
}
