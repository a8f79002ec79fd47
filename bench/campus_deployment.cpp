// Deployment-scale characterisation: the full ~264-CPU campus fleet of the
// paper (200 mixed desktops + the 32-node dual-PIII cluster) running both
// bioinformatics applications concurrently, with summary telemetry. This is
// the prose claim of §3 ("deployed ... on over 200 computers ... used to
// process bioinformatics ... applications") as a repeatable experiment.

#include <cstdio>
#include <map>

#include "bio/seqgen.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "phylo/simulate.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"

using namespace hdcs;

int main() {
  set_log_level(LogLevel::kError);
  dsearch::register_algorithm();
  dprml::register_algorithm();

  Rng rng(2005);
  auto fleet = sim::campus_fleet(rng, 200);

  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7;
  cfg.network.bandwidth_bps = 100e6 / 8;
  cfg.policy_spec = "adaptive:15";
  cfg.scheduler.lease_timeout = 3600;
  cfg.scheduler.bounds.min_ops = 1e5;
  cfg.seed = 11;

  sim::SimDriver driver(cfg, fleet);

  // One big DSEARCH job (cost-magnified; see DESIGN.md on scaled worlds).
  Rng wl(6);
  auto queries = bio::make_queries(wl, 2, 200, bio::Alphabet::kProtein);
  bio::DatabaseSpec dbspec;
  dbspec.num_sequences = 6000;
  dbspec.mean_length = 150;
  auto database = bio::make_database(wl, dbspec, queries);
  dsearch::DSearchConfig dcfg;
  dcfg.top_k = 10;
  dcfg.cost_scale = 5000;
  auto search_dm =
      std::make_shared<dsearch::DSearchDataManager>(queries, database, dcfg);
  auto search_pid = driver.add_problem(search_dm);

  // Three DPRml instances on a 30-taxon alignment.
  auto tree = phylo::random_tree(wl, {30, 0.1, "t"});
  auto model = phylo::SubstModel::jc69();
  auto alignment = phylo::simulate_alignment(wl, tree, model,
                                             phylo::RateModel::uniform(), {150});
  std::vector<dist::ProblemId> tree_pids;
  for (int i = 0; i < 3; ++i) {
    dprml::DPRmlConfig pcfg;
    pcfg.model_spec = "JC69";
    pcfg.branch_tolerance = 2e-2;
    pcfg.refine_passes = 1;
    pcfg.order_seed = static_cast<std::uint64_t>(i + 1);
    tree_pids.push_back(driver.add_problem(
        std::make_shared<dprml::DPRmlDataManager>(alignment, pcfg)));
  }

  auto out = driver.run();

  std::printf("=== Campus deployment: %zu donor CPUs, 4 concurrent problems ===\n\n",
              out.machines.size());
  std::printf("%-28s %14s\n", "problem", "completed (s)");
  std::printf("%-28s %14.0f\n", "DSEARCH (2 queries, 6k seqs)",
              out.completion_time_s.at(search_pid));
  for (std::size_t i = 0; i < tree_pids.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "DPRml instance %zu (30 taxa)", i + 1);
    std::printf("%-28s %14.0f\n", label, out.completion_time_s.at(tree_pids[i]));
  }

  std::printf("\nscheduler: %llu units (%llu reissued), %llu messages, "
              "%.1f MB moved\n",
              static_cast<unsigned long long>(out.scheduler.units_issued),
              static_cast<unsigned long long>(out.scheduler.units_reissued),
              static_cast<unsigned long long>(out.messages),
              out.bytes_transferred / 1e6);
  std::printf("mean donor utilization: %.1f%%\n\n", 100.0 * out.mean_utilization());

  // Per-class totals: the heterogeneity story in one table.
  struct ClassStats {
    std::uint64_t units = 0;
    double busy = 0;
    int cpus = 0;
  };
  std::map<std::string, ClassStats> by_class;
  for (const auto& m : out.machines) {
    std::string cls = m.name.rfind("cluster", 0) == 0
                          ? "cluster-dual-piii"
                          : m.name.substr(0, m.name.rfind('-'));
    by_class[cls].units += m.units;
    by_class[cls].busy += m.busy_s;
    by_class[cls].cpus += 1;
  }
  std::printf("%-22s %6s %8s %12s %12s\n", "machine class", "cpus", "units",
              "busy (s)", "units/cpu");
  for (const auto& [cls, stats] : by_class) {
    std::printf("%-22s %6d %8llu %12.0f %12.1f\n", cls.c_str(), stats.cpus,
                static_cast<unsigned long long>(stats.units), stats.busy,
                static_cast<double>(stats.units) / stats.cpus);
  }

  // The adaptive scheduler sizes units to donor speed, so units/cpu stays
  // comparable across classes but *ops* follow capability: faster classes
  // must absorb more total work per CPU (busy time scaled by speed).
  double piv_per_cpu = by_class.count("desk-piv-2400")
                           ? by_class["desk-piv-2400"].units /
                                 double(by_class["desk-piv-2400"].cpus)
                           : 0;
  double pii_per_cpu = by_class.count("desk-pii-300")
                           ? by_class["desk-pii-300"].units /
                                 double(by_class["desk-pii-300"].cpus)
                           : 0;
  bool pass = piv_per_cpu >= pii_per_cpu && pii_per_cpu > 0;
  std::printf("\nacceptance check: every class contributed and PIV-2400 "
              "handled >= PII-300 units/cpu ........ %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
