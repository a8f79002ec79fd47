#include "workloads.hpp"

#include "bio/seqgen.hpp"
#include "dboot/dboot.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "phylo/simulate.hpp"
#include "phylo/subst_model.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using hdcs::Rng;
using DataManagers = std::vector<std::shared_ptr<hdcs::dist::DataManager>>;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of one job (and one problem within it): every job gets its own
/// inputs, so donors' blob caches and the process-wide DPRml evaluation
/// cache can never answer a timed job from an earlier one.
std::uint64_t job_seed(std::uint64_t seed, std::size_t index,
                       std::size_t problem = 0) {
  return splitmix(splitmix(splitmix(seed) ^ index) ^ (problem << 32));
}

// DSEARCH, SW/blosum62: 4 queries x 300 residues against 16000 x 300. Each
// chunk is a distinct content-addressed blob fetched once by one donor.
Job make_dsearch(std::uint64_t seed, std::size_t index, bool tiny) {
  Rng rng(job_seed(seed, index));
  auto queries = std::make_shared<const std::vector<hdcs::bio::Sequence>>(
      hdcs::bio::make_queries(rng, tiny ? 2 : 4, tiny ? 100 : 300,
                              hdcs::bio::Alphabet::kProtein));
  hdcs::bio::DatabaseSpec spec;
  spec.num_sequences = tiny ? 300 : 16000;
  spec.mean_length = tiny ? 100 : 300;
  auto database = std::make_shared<const std::vector<hdcs::bio::Sequence>>(
      hdcs::bio::make_database(rng, spec, *queries));
  Job job;
  job.make = [queries, database] {
    return DataManagers{std::make_shared<hdcs::dsearch::DSearchDataManager>(
        *queries, *database, hdcs::dsearch::DSearchConfig{})};
  };
  return job;
}

constexpr const char* kDprmlParams =
    "kappa = 2.5\nalpha = 0.6\nbranch_tolerance = 1e-3\n";

// Six concurrent DPRml instances (the Fig. 2 shape), 12 taxa each. Instance
// k always evolves its sites down the same generating tree k; only the
// sites come from the job's seed. Each instance still gets its own
// alignment, but the ML search effort varies far less between jobs and
// seeds than with a fresh random tree per job.
Job make_dprml(std::uint64_t seed, std::size_t index, bool tiny) {
  const int instances = 6;
  const int taxa = tiny ? 6 : 12;
  const std::size_t sites = tiny ? 100 : 300;
  hdcs::Config params = hdcs::Config::parse(kDprmlParams);
  auto spec = hdcs::phylo::ModelSpec::parse("HKY85+G4", params);
  Job job;
  std::vector<hdcs::phylo::Alignment> alignments;
  for (int i = 0; i < instances; ++i) {
    Rng tree_rng(0x7eed0000u + static_cast<std::uint64_t>(i));
    auto tree = hdcs::phylo::random_tree(tree_rng, {taxa, 0.1, "t"});
    Rng rng(job_seed(seed, index, static_cast<std::size_t>(i) + 1));
    alignments.push_back(hdcs::phylo::simulate_alignment(
        rng, tree, *spec.model, spec.rates, {sites}));
    job.alignments.push_back({alignments.back(), "HKY85+G4", kDprmlParams});
  }
  hdcs::Config cfg = hdcs::Config::parse(std::string("model = HKY85+G4\n") +
                                         kDprmlParams);
  auto config = hdcs::dprml::DPRmlConfig::from_config(cfg);
  auto shared = std::make_shared<const std::vector<hdcs::phylo::Alignment>>(
      std::move(alignments));
  job.make = [shared, config] {
    DataManagers dms;
    for (const auto& a : *shared) {
      dms.push_back(std::make_shared<hdcs::dprml::DPRmlDataManager>(a, config));
    }
    return dms;
  };
  return job;
}

// DBOOT with one replicate per unit on a small alignment: thousands of
// RequestWork/SubmitResult round trips and no data blobs.
Job make_dboot(std::uint64_t seed, std::size_t index, bool tiny) {
  Rng rng(job_seed(seed, index));
  auto tree = hdcs::phylo::random_tree(rng, {12, 0.12, "t"});
  auto alignment = hdcs::phylo::simulate_alignment(
      rng, tree, hdcs::phylo::SubstModel::jc69(),
      hdcs::phylo::RateModel::uniform(), {tiny ? 100u : 200u});
  hdcs::dboot::DBootConfig config;
  config.replicates = tiny ? 100 : 2000;
  config.seed = job_seed(seed, index, 1);
  Job job;
  job.alignments.push_back({alignment, "JC69", ""});
  job.make = [alignment, config] {
    return DataManagers{
        std::make_shared<hdcs::dboot::DBootDataManager>(alignment, config)};
  };
  return job;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The dsearch_demo granularity (min_ops keeps its default, as there).
      {"dsearch_large", "adaptive:0.1", 1e4, 1.15, 2.6, 1e8, &make_dsearch},
      // The dprml_demo granularity.
      {"dprml_six", "adaptive:0.2", 1, 1.05, 2.2, 1e6, &make_dprml},
      // One replicate per unit, so the unit count is exact.
      {"dboot_tiny", "fixed:1", 1, 0.5, 0.14, 1e6, &make_dboot},
  };
  return all;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw hdcs::InputError("unknown workload '" + name + "'");
}

}  // namespace perfbench
