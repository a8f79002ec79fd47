#include "dprml/dprml.hpp"

#include <gtest/gtest.h>

#include "dist/local_runner.hpp"
#include "dist/scheduler_core.hpp"
#include "phylo/distance.hpp"
#include "phylo/simulate.hpp"
#include "util/error.hpp"

namespace hdcs::dprml {
namespace {

/// A small simulated dataset with strong phylogenetic signal.
phylo::Alignment make_dataset(std::uint64_t seed, int taxa, std::size_t sites,
                              phylo::Tree* true_tree_out = nullptr) {
  Rng rng(seed);
  auto tree = phylo::random_tree(rng, {taxa, 0.12, "t"});
  auto model = phylo::SubstModel::jc69();
  auto aln = phylo::simulate_alignment(rng, tree, model,
                                       phylo::RateModel::uniform(), {sites});
  if (true_tree_out) *true_tree_out = tree;
  return aln;
}

DPRmlConfig fast_config() {
  DPRmlConfig c;
  c.model_spec = "JC69";  // 1 rate category keeps tests quick
  c.branch_tolerance = 1e-3;
  c.eval_passes = 1;
  c.refine_passes = 1;
  c.use_eval_cache = false;  // tests control caching explicitly
  return c;
}

TEST(DPRmlConfig, ParsesAndValidates) {
  auto cfg = Config::parse(
      "model = HKY85+G4\n"
      "kappa = 3.5\n"
      "alpha = 0.8\n"
      "order_seed = 7\n"
      "refine_passes = 3\n");
  auto c = DPRmlConfig::from_config(cfg);
  EXPECT_EQ(c.model_spec, "HKY85+G4");
  EXPECT_DOUBLE_EQ(c.kappa, 3.5);
  EXPECT_EQ(c.order_seed, 7u);
  EXPECT_EQ(c.refine_passes, 3);

  EXPECT_THROW(DPRmlConfig::from_config(Config::parse("model = WAG\n")), InputError);
  EXPECT_THROW(DPRmlConfig::from_config(Config::parse("pendant_branch = 0\n")),
               InputError);
  EXPECT_THROW(DPRmlConfig::from_config(Config::parse("eval_passes = 0\n")),
               InputError);
}

TEST(DPRmlWire, ResultRoundTrip) {
  DPRmlResult r;
  r.newick = "((a:1,b:1):1,c:1);";
  r.log_likelihood = -123.5;
  r.stage_log_likelihoods = {-200.0, -150.0, -123.5};
  ByteWriter w;
  encode_dprml_result(w, r);
  ByteReader reader(w.data());
  auto decoded = decode_dprml_result(reader);
  EXPECT_EQ(decoded.newick, r.newick);
  EXPECT_DOUBLE_EQ(decoded.log_likelihood, r.log_likelihood);
  EXPECT_EQ(decoded.stage_log_likelihoods, r.stage_log_likelihoods);
}

TEST(DPRmlSerial, RecoversGeneratingTopology) {
  phylo::Tree true_tree;
  auto aln = make_dataset(41, 8, 800, &true_tree);
  auto result = build_tree_serial(aln, fast_config());
  auto built = phylo::Tree::parse_newick(result.newick);
  EXPECT_EQ(built.leaf_count(), 8);
  // Strong signal: stepwise ML should land on (or within one NNI of) the truth.
  EXPECT_LE(phylo::rf_distance(built, true_tree), 2);
  EXPECT_LT(result.log_likelihood, 0.0);
}

TEST(DPRmlSerial, StageLogLikelihoodsTrackInsertions) {
  auto aln = make_dataset(43, 6, 300);
  auto result = build_tree_serial(aln, fast_config());
  // One init + one refine per inserted taxon (taxa 4..6 => 3 refines).
  EXPECT_EQ(result.stage_log_likelihoods.size(), 1u + 3u);
  // Log-likelihood decreases as more taxa (more data) join — just check
  // the trace is finite and the last entry matches the result.
  EXPECT_DOUBLE_EQ(result.stage_log_likelihoods.back(), result.log_likelihood);
}

TEST(DPRmlSerial, OrderSeedChangesInsertionOrderNotQuality) {
  auto aln = make_dataset(47, 7, 600);
  auto c1 = fast_config();
  auto c2 = fast_config();
  c2.order_seed = 12345;
  auto r1 = build_tree_serial(aln, c1);
  auto r2 = build_tree_serial(aln, c2);
  // Different addition orders may produce different trees, but both must
  // be sensible (finite logL, right taxa).
  auto t1 = phylo::Tree::parse_newick(r1.newick);
  auto t2 = phylo::Tree::parse_newick(r2.newick);
  auto n1 = t1.leaf_names();
  auto n2 = t2.leaf_names();
  std::sort(n1.begin(), n1.end());
  std::sort(n2.begin(), n2.end());
  EXPECT_EQ(n1, n2);
}

TEST(DPRmlSerial, BeatsOrMatchesNeighborJoining) {
  // ML stepwise insertion should fit at least as well as the NJ topology
  // once both have optimized branch lengths (the paper's motivation for
  // ML over distance heuristics).
  phylo::Tree true_tree;
  auto aln = make_dataset(53, 8, 500, &true_tree);
  auto result = build_tree_serial(aln, fast_config());

  auto nj = phylo::nj_tree(aln);
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  phylo::LikelihoodEngine engine(phylo::compress(aln), model,
                                 phylo::RateModel::uniform());
  double nj_logl = engine.optimize_all_branches(nj, 2, 1e-4);
  EXPECT_GE(result.log_likelihood, nj_logl - 1.0);
}

TEST(DPRmlDataManager, RejectsTinyAlignments) {
  phylo::Alignment aln;
  aln.names = {"a", "b", "c"};
  aln.rows = {"ACGT", "ACGT", "ACGT"};
  EXPECT_THROW(DPRmlDataManager(aln, fast_config()), InputError);
}

TEST(DPRmlDataManager, StagedUnitFlow) {
  auto aln = make_dataset(59, 5, 200);
  register_algorithm();
  DPRmlDataManager dm(aln, fast_config());
  auto data = dm.problem_data();
  DPRmlAlgorithm algo;
  algo.initialize(data);

  dist::SizeHint small{1.0};  // force one-edge eval batches

  // Init unit first; nothing else until its result lands.
  auto init = dm.next_unit(small);
  ASSERT_TRUE(init);
  EXPECT_FALSE(dm.next_unit(small).has_value());

  auto submit = [&](const dist::WorkUnit& u) {
    dist::ResultUnit r;
    r.problem_id = u.problem_id;
    r.unit_id = u.unit_id;
    r.stage = u.stage;
    r.payload = algo.process(u);
    dm.accept_result(r);
  };
  submit(*init);

  // Eval phase for taxon 4: 3 edges -> with tiny hints, 3 separate units.
  std::vector<dist::WorkUnit> evals;
  while (auto u = dm.next_unit(small)) evals.push_back(*u);
  EXPECT_EQ(evals.size(), 3u);
  // Barrier until all results arrive.
  submit(evals[0]);
  EXPECT_FALSE(dm.next_unit(small).has_value());
  submit(evals[1]);
  submit(evals[2]);

  // Mid-run insertion applies the worker-optimised branch lengths and goes
  // straight to the next taxon's eval phase (no refine barrier):
  // 2*4-3 = 5 edges.
  std::vector<dist::WorkUnit> evals2;
  while (auto u = dm.next_unit(small)) evals2.push_back(*u);
  EXPECT_EQ(evals2.size(), 5u);
  for (auto& u : evals2) submit(u);

  // The LAST insertion triggers the final full smoothing pass.
  auto refine = dm.next_unit(small);
  ASSERT_TRUE(refine);
  EXPECT_FALSE(dm.next_unit(small).has_value());
  submit(*refine);
  EXPECT_TRUE(dm.is_complete());
  EXPECT_GT(dm.remaining_ops_estimate(), -1.0);
}

TEST(DPRmlDataManager, BatchedEvalUnitsRespectHint) {
  auto aln = make_dataset(61, 8, 200);
  register_algorithm();
  DPRmlDataManager dm(aln, fast_config());
  DPRmlAlgorithm algo;
  auto data = dm.problem_data();
  algo.initialize(data);

  // Complete init with a huge hint.
  dist::SizeHint huge{1e18};
  auto init = dm.next_unit(huge);
  ASSERT_TRUE(init);
  dist::ResultUnit r;
  r.payload = algo.process(*init);
  dm.accept_result(r);

  // With a huge hint the whole eval stage is one batched unit.
  auto eval = dm.next_unit(huge);
  ASSERT_TRUE(eval);
  EXPECT_FALSE(dm.next_unit(huge).has_value());
  EXPECT_GT(eval->cost_ops, 0.0);
}

TEST(DPRmlDistributed, SchedulerCoreMatchesSerial) {
  auto aln = make_dataset(67, 6, 300);
  auto config = fast_config();
  auto serial = build_tree_serial(aln, config);

  register_algorithm();
  dist::SchedulerConfig scfg;
  scfg.lease_timeout = 1e6;
  scfg.bounds.min_ops = 1;
  dist::SchedulerCore core(scfg, std::make_unique<dist::FixedGranularity>(1.0));
  auto dm = std::make_shared<DPRmlDataManager>(aln, config);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();

  DPRmlAlgorithm a1, a2;
  a1.initialize(data);
  a2.initialize(data);
  auto c1 = core.client_joined("x", 1e6, 0.0);
  auto c2 = core.client_joined("y", 1e6, 0.0);

  double t = 0;
  int spins = 0;
  while (!core.problem_complete(pid)) {
    bool served = false;
    for (auto [cid, algo] : {std::pair{c1, &a1}, std::pair{c2, &a2}}) {
      auto unit = core.request_work(cid, t);
      if (!unit) continue;
      core.materialize_unit_blobs(*unit);
      served = true;
      dist::ResultUnit result;
      result.problem_id = unit->problem_id;
      result.unit_id = unit->unit_id;
      result.stage = unit->stage;
      result.epoch = unit->epoch;
      result.payload = algo->process(*unit);
      core.submit_result(cid, result, t + 0.1);
    }
    t += 1;
    if (!served && ++spins > 10000) FAIL() << "scheduler deadlocked";
  }
  auto final_bytes = core.final_result(pid);
  ByteReader r{std::span<const std::byte>(final_bytes)};
  auto distributed = decode_dprml_result(r);
  EXPECT_EQ(distributed.newick, serial.newick);
  EXPECT_DOUBLE_EQ(distributed.log_likelihood, serial.log_likelihood);
}

TEST(DPRmlNni, RearrangementNeverHurtsAndCanFixStepwiseErrors) {
  // NNI rounds must be monotone in likelihood, and on data where plain
  // stepwise insertion lands off the optimum they should improve it.
  for (std::uint64_t seed : {83u, 89u, 97u}) {
    phylo::Tree truth;
    auto aln = make_dataset(seed, 9, 250, &truth);
    auto base_cfg = fast_config();
    auto nni_cfg = base_cfg;
    nni_cfg.nni_rounds = 5;
    auto plain = build_tree_serial(aln, base_cfg);
    auto refined = build_tree_serial(aln, nni_cfg);
    EXPECT_GE(refined.log_likelihood, plain.log_likelihood - 1e-6)
        << "seed " << seed;
    auto t_plain = phylo::Tree::parse_newick(plain.newick);
    auto t_refined = phylo::Tree::parse_newick(refined.newick);
    EXPECT_LE(phylo::rf_distance(t_refined, truth),
              phylo::rf_distance(t_plain, truth) + 2)
        << "seed " << seed;
  }
}

TEST(DPRmlNni, ZeroRoundsMatchesPlainStepwise) {
  auto aln = make_dataset(101, 6, 200);
  auto cfg = fast_config();
  EXPECT_EQ(cfg.nni_rounds, 0);
  auto a = build_tree_serial(aln, cfg);
  cfg.nni_rounds = 0;
  auto b = build_tree_serial(aln, cfg);
  EXPECT_EQ(a.newick, b.newick);
}

TEST(DPRmlNni, DistributedMatchesSerialWithRearrangement) {
  auto aln = make_dataset(103, 7, 250);
  auto cfg = fast_config();
  cfg.nni_rounds = 3;
  auto serial = build_tree_serial(aln, cfg);

  register_algorithm();
  dist::SchedulerConfig scfg;
  scfg.lease_timeout = 1e6;
  scfg.bounds.min_ops = 1;
  dist::SchedulerCore core(scfg, std::make_unique<dist::FixedGranularity>(1.0));
  auto dm = std::make_shared<DPRmlDataManager>(aln, cfg);
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();
  DPRmlAlgorithm algo;
  algo.initialize(data);
  auto cid = core.client_joined("x", 1e6, 0.0);

  double t = 0;
  int spins = 0;
  while (!core.problem_complete(pid)) {
    auto unit = core.request_work(cid, t);
    t += 1;
    if (!unit) {
      ASSERT_LT(++spins, 100000) << "deadlock";
      continue;
    }
    core.materialize_unit_blobs(*unit);
    dist::ResultUnit result;
    result.problem_id = unit->problem_id;
    result.unit_id = unit->unit_id;
    result.stage = unit->stage;
    result.epoch = unit->epoch;
    result.payload = algo.process(*unit);
    core.submit_result(cid, result, t);
  }
  auto distributed = dm->result();
  EXPECT_EQ(distributed.newick, serial.newick);
  EXPECT_DOUBLE_EQ(distributed.log_likelihood, serial.log_likelihood);
}

TEST(DPRmlCache, CacheHitsProduceIdenticalResults) {
  EvalCache::global().clear();
  auto aln = make_dataset(71, 6, 250);
  auto cached_cfg = fast_config();
  cached_cfg.use_eval_cache = true;

  auto r1 = build_tree_serial(aln, cached_cfg);
  auto cache_after_first = EvalCache::global().size();
  EXPECT_GT(cache_after_first, 0u);
  auto r2 = build_tree_serial(aln, cached_cfg);  // all evals hit the cache
  EXPECT_EQ(r1.newick, r2.newick);
  EXPECT_DOUBLE_EQ(r1.log_likelihood, r2.log_likelihood);

  // And matches the uncached run.
  auto r3 = build_tree_serial(aln, fast_config());
  EXPECT_EQ(r1.newick, r3.newick);
  EvalCache::global().clear();
  EXPECT_EQ(EvalCache::global().size(), 0u);
}

TEST(DPRmlCache, DifferentProblemsDoNotCollide) {
  EvalCache::global().clear();
  auto aln_a = make_dataset(73, 5, 200);
  auto aln_b = make_dataset(79, 5, 200);
  auto cfg = fast_config();
  cfg.use_eval_cache = true;
  auto ra = build_tree_serial(aln_a, cfg);
  auto rb = build_tree_serial(aln_b, cfg);
  // Re-run A with B's entries in the cache; must be unchanged.
  auto ra2 = build_tree_serial(aln_a, cfg);
  EXPECT_EQ(ra.newick, ra2.newick);
  EXPECT_DOUBLE_EQ(ra.log_likelihood, ra2.log_likelihood);
  EXPECT_NE(ra.newick, rb.newick);
  EvalCache::global().clear();
}

}  // namespace
}  // namespace hdcs::dprml
