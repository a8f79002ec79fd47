// Ablation C: fault tolerance under donor churn.
//
// Cycle-scavenging donors come and go (owners reclaim their desktops). The
// system's answer is lease-based reissue: a unit not returned within the
// lease timeout goes back in the queue. This bench runs the same DSEARCH
// job on a stable fleet and on fleets where a growing fraction of donors
// crash mid-run (half of which later return), and reports the overhead vs
// the undisturbed run. Results must be identical in all cases.

#include <cstdio>
#include <vector>

#include "bio/seqgen.hpp"
#include "dsearch/dsearch.hpp"
#include "sim/sim_driver.hpp"
#include "util/logging.hpp"

using namespace hdcs;

namespace {

constexpr double kScale = 2500.0;

sim::SimConfig churn_config() {
  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 5e7 / kScale;
  cfg.network.bandwidth_bps = 100e6 / 8 / kScale;
  cfg.policy_spec = "adaptive:40";
  cfg.scheduler.lease_timeout = 120;  // aggressive reissue
  cfg.scheduler.bounds.min_ops = 100;
  cfg.seed = 4;
  return cfg;
}

struct Workload {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
  dsearch::DSearchConfig config;
};

Workload make_workload() {
  Rng rng(88);
  Workload w;
  w.queries = bio::make_queries(rng, 2, 250, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 4000;
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
  auto cache = std::make_shared<sim::SimDriver::ResultCache>();

  std::printf("=== Ablation: donor churn and lease-based recovery ===\n");
  std::printf("fleet: 32 semi-idle PIII donors; crashing donors die at "
              "t=200s+, half rejoin 400s later\n\n");

  dsearch::SearchResult reference;
  double baseline = 0;
  bool all_exact = true;

  std::printf("%16s %14s %12s %14s %12s\n", "crashing donors", "makespan(s)",
              "reissued", "overhead", "utilization");
  for (int crashers : {0, 4, 8, 16}) {
    auto fleet = sim::lab_fleet(32, 0.85, 0.10);
    for (int i = 0; i < crashers; ++i) {
      fleet[static_cast<std::size_t>(i)].leave_time = 200.0 + 40.0 * i;
      fleet[static_cast<std::size_t>(i)].crash_on_leave = true;
      if (i % 2 == 0) {
        fleet[static_cast<std::size_t>(i)].rejoin_time =
            fleet[static_cast<std::size_t>(i)].leave_time + 400.0;
      }
    }
    sim::SimDriver driver(churn_config(), fleet);
    driver.set_shared_cache(cache);
    auto dm = std::make_shared<dsearch::DSearchDataManager>(w.queries, w.database,
                                                            w.config);
    driver.add_problem(dm);
    auto out = driver.run();

    if (crashers == 0) {
      baseline = out.makespan_s;
      reference = dm->result();
    } else if (dm->result() != reference) {
      all_exact = false;
    }
    std::printf("%16d %14.0f %12llu %13.1f%% %11.1f%%\n", crashers,
                out.makespan_s,
                static_cast<unsigned long long>(out.scheduler.units_reissued),
                100.0 * (out.makespan_s / baseline - 1.0),
                100.0 * out.mean_utilization());
  }

  std::printf("\nacceptance check: identical results under churn ........ %s\n",
              all_exact ? "PASS" : "FAIL");
  return all_exact ? 0 : 1;
}
