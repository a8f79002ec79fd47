#include "phylo/likelihood.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "phylo/distance.hpp"
#include "phylo/simulate.hpp"
#include "util/error.hpp"

namespace hdcs::phylo {
namespace {

std::shared_ptr<const SubstModel> jc() {
  return std::make_shared<SubstModel>(SubstModel::jc69());
}

TEST(Likelihood, TwoTaxaMatchesHandComputation) {
  // Tree: root with two leaves at branch lengths ta, tb. Site likelihood =
  // sum_x pi_x P(x->a) P(x->b). With JC this is computable by hand.
  Alignment aln;
  aln.names = {"a", "b"};
  aln.rows = {"AAAA", "AAAT"};  // 3 matches, 1 mismatch
  auto model = jc();
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());

  Tree tree;
  int root = tree.add_node(-1, 0);
  tree.add_node(root, 0.1, "a");
  tree.add_node(root, 0.2, "b");

  double t = 0.3;  // reversibility: only the path length a-b matters
  double p_same = 0.25 + 0.75 * std::exp(-4.0 * t / 3.0);
  double p_diff = 0.25 - 0.25 * std::exp(-4.0 * t / 3.0);
  // site L(match) = sum_x pi_x P_xa P_xb = 0.25 * P(a==b along t) per
  // reversibility: L = pi_a * P_ab(t) summed properly = 0.25 * p_same for
  // a match column, 0.25 * p_diff for a mismatch column.
  double expected = 3 * std::log(0.25 * p_same) + std::log(0.25 * p_diff);
  EXPECT_NEAR(engine.log_likelihood(tree), expected, 1e-10);
}

TEST(Likelihood, BranchLengthPositionIrrelevantForTwoTaxa) {
  // Reversibility: moving length between the two root branches changes
  // nothing as long as the path length is constant.
  Alignment aln;
  aln.names = {"a", "b"};
  aln.rows = {"ACGTACGTGG", "ACTTACGAGG"};
  auto model = jc();
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());

  auto make_tree = [](double ta, double tb) {
    Tree t;
    int root = t.add_node(-1, 0);
    t.add_node(root, ta, "a");
    t.add_node(root, tb, "b");
    return t;
  };
  auto t1 = make_tree(0.05, 0.25);
  auto t2 = make_tree(0.15, 0.15);
  auto t3 = make_tree(0.30, 0.00);
  double l1 = engine.log_likelihood(t1);
  EXPECT_NEAR(engine.log_likelihood(t2), l1, 1e-9);
  EXPECT_NEAR(engine.log_likelihood(t3), l1, 1e-9);
}

TEST(Likelihood, PatternCompressionInvariance) {
  // logL must be identical whether or not columns repeat (weights do the
  // work). Build an alignment with heavy repetition and compare against
  // the same alignment with columns de-duplicated manually via weights.
  Rng rng(5);
  auto tree = random_tree(rng, {6, 0.1, "t"});
  auto model = jc();
  auto aln = simulate_alignment(rng, tree, *model, RateModel::uniform(), {40});
  // Duplicate the alignment columns 3x.
  Alignment tripled = aln;
  for (auto& row : tripled.rows) row = row + row + row;

  LikelihoodEngine e1(compress(aln), model, RateModel::uniform());
  LikelihoodEngine e3(compress(tripled), model, RateModel::uniform());
  EXPECT_NEAR(e3.log_likelihood(tree), 3.0 * e1.log_likelihood(tree), 1e-8);
}

TEST(Likelihood, MissingDataGivesHigherLikelihoodThanMismatch) {
  auto model = jc();
  Tree tree;
  int root = tree.add_node(-1, 0);
  tree.add_node(root, 0.1, "a");
  tree.add_node(root, 0.1, "b");

  Alignment match{{"a", "b"}, {"A", "A"}};
  Alignment miss{{"a", "b"}, {"A", "-"}};
  Alignment mismatch{{"a", "b"}, {"A", "T"}};
  LikelihoodEngine em(compress(match), model, RateModel::uniform());
  LikelihoodEngine eg(compress(miss), model, RateModel::uniform());
  LikelihoodEngine ex(compress(mismatch), model, RateModel::uniform());
  double lm = em.log_likelihood(tree);
  double lg = eg.log_likelihood(tree);
  double lx = ex.log_likelihood(tree);
  // Missing data marginalizes to the stationary probability of the
  // observed base: exactly log(0.25) — above a match column (which still
  // pays P(no change)) and far above a mismatch column.
  EXPECT_NEAR(lg, std::log(0.25), 1e-12);
  EXPECT_GT(lg, lm);
  EXPECT_GT(lm, lx);
}

TEST(Likelihood, GammaRatesChangeLikelihood) {
  Rng rng(7);
  auto tree = random_tree(rng, {5, 0.15, "t"});
  auto model = jc();
  auto aln = simulate_alignment(rng, tree, *model, RateModel::uniform(), {200});
  LikelihoodEngine uniform(compress(aln), model, RateModel::uniform());
  LikelihoodEngine gamma(compress(aln), model, RateModel::gamma(0.3, 4));
  EXPECT_NE(uniform.log_likelihood(tree), gamma.log_likelihood(tree));
}

TEST(Likelihood, OptimizeBranchImprovesAndIsStable) {
  Rng rng(11);
  auto tree = random_tree(rng, {6, 0.1, "t"});
  auto model = jc();
  auto aln = simulate_alignment(rng, tree, *model, RateModel::uniform(), {300});
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());

  // Perturb one branch badly, then re-optimize it.
  auto edges = tree.edge_nodes();
  int victim = edges[2];
  double before_perturb = engine.log_likelihood(tree);
  tree.set_branch_length(victim, 5.0);
  double perturbed = engine.log_likelihood(tree);
  EXPECT_LT(perturbed, before_perturb);
  double after = engine.optimize_branch(tree, victim, 1e-6);
  EXPECT_GE(after, before_perturb - 1e-6);
  // Re-optimizing an optimal branch changes (almost) nothing.
  double again = engine.optimize_branch(tree, victim, 1e-6);
  EXPECT_NEAR(again, after, 1e-6);
}

TEST(Likelihood, OptimizeAllBranchesRecoversFromBadStart) {
  Rng rng(13);
  auto true_tree = random_tree(rng, {6, 0.12, "t"});
  auto model = jc();
  auto aln = simulate_alignment(rng, true_tree, *model, RateModel::uniform(), {400});
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());

  double true_logl = engine.log_likelihood(true_tree);
  // Same topology, all branch lengths wrong.
  auto bad = Tree::parse_newick(true_tree.to_newick());
  for (int e : bad.edge_nodes()) bad.set_branch_length(e, 1.0);
  EXPECT_LT(engine.log_likelihood(bad), true_logl);
  double recovered = engine.optimize_all_branches(bad, 3, 1e-5);
  // ML lengths fit the sample at least as well as the generating lengths.
  EXPECT_GE(recovered, true_logl - 0.5);
}

TEST(Likelihood, TrueTopologyBeatsRandomTopology) {
  Rng rng(17);
  auto true_tree = random_tree(rng, {8, 0.1, "t"});
  auto model = jc();
  auto aln = simulate_alignment(rng, true_tree, *model, RateModel::uniform(), {600});
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());

  // A different random topology over the same taxa, same optimisation love.
  Rng rng2(999);
  auto other = random_tree(rng2, {8, 0.1, "t"});
  if (rf_distance(true_tree, other) == 0) {
    GTEST_SKIP() << "random topology happened to match";
  }
  auto fit_true = Tree::parse_newick(true_tree.to_newick());
  double l_true = engine.optimize_all_branches(fit_true, 2, 1e-4);
  double l_other = engine.optimize_all_branches(other, 2, 1e-4);
  EXPECT_GT(l_true, l_other);
}

TEST(Likelihood, EvalCountAccumulates) {
  Alignment aln{{"a", "b"}, {"ACGT", "ACGT"}};
  auto model = jc();
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());
  Tree tree;
  int root = tree.add_node(-1, 0);
  tree.add_node(root, 0.1, "a");
  tree.add_node(root, 0.1, "b");
  EXPECT_EQ(engine.eval_count(), 0u);
  engine.log_likelihood(tree);
  engine.log_likelihood(tree);
  EXPECT_EQ(engine.eval_count(), 2u);
}

TEST(Likelihood, ApiErrors) {
  Alignment aln{{"a", "b"}, {"A", "A"}};
  auto model = jc();
  LikelihoodEngine engine(compress(aln), model, RateModel::uniform());
  Tree tree;
  int root = tree.add_node(-1, 0);
  tree.add_node(root, 0.1, "a");
  tree.add_node(root, 0.1, "b");
  EXPECT_THROW(engine.optimize_branch(tree, tree.root()), InputError);

  // Leaf missing from the alignment.
  Tree bad;
  int r2 = bad.add_node(-1, 0);
  bad.add_node(r2, 0.1, "a");
  bad.add_node(r2, 0.1, "zzz");
  EXPECT_THROW(engine.log_likelihood(bad), InputError);

  EXPECT_THROW(LikelihoodEngine(compress(aln), nullptr, RateModel::uniform()),
               InputError);
}

TEST(Distance, JcDistanceBasics) {
  Alignment aln;
  aln.names = {"a", "b", "c"};
  aln.rows = {"AAAAAAAAAA", "AAAAAAAAAA", "AAAAATTTTT"};
  auto d = jc_distance_matrix(aln);
  EXPECT_DOUBLE_EQ(d[0][1], 0.0);
  EXPECT_GT(d[0][2], 0.0);
  EXPECT_DOUBLE_EQ(d[0][2], d[2][0]);
  // p = 0.5 -> d = -3/4 ln(1/3).
  EXPECT_NEAR(d[0][2], -0.75 * std::log(1.0 - 4.0 * 0.5 / 3.0), 1e-12);
}

TEST(Distance, SaturatedPairsCapped) {
  Alignment aln;
  aln.names = {"a", "b"};
  aln.rows = {"AAAA", "TTTT"};  // p = 1 > 3/4
  auto d = jc_distance_matrix(aln, 5.0);
  EXPECT_DOUBLE_EQ(d[0][1], 5.0);
}

TEST(Distance, NeighborJoiningRecoversAdditiveTree) {
  // Distances measured on a known tree are additive; NJ must recover the
  // topology exactly.
  Rng rng(23);
  auto true_tree = random_tree(rng, {8, 0.15, "t"});
  // Build the additive distance matrix by summing path lengths through
  // the lowest common ancestor.
  auto names = true_tree.leaf_names();
  std::vector<int> leaf_ids = true_tree.leaves();
  auto ancestors = [&](int node) {
    std::vector<int> up;  // node itself, then each ancestor up to the root
    while (true) {
      up.push_back(node);
      if (node == true_tree.root()) break;
      node = true_tree.parent(node);
    }
    return up;
  };
  std::size_t n = names.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      auto up_i = ancestors(leaf_ids[i]);
      std::set<int> set_i(up_i.begin(), up_i.end());
      int lca = leaf_ids[j];
      while (!set_i.count(lca)) lca = true_tree.parent(lca);
      double dist = 0;
      for (int a = leaf_ids[i]; a != lca; a = true_tree.parent(a)) {
        dist += true_tree.branch_length(a);
      }
      for (int b = leaf_ids[j]; b != lca; b = true_tree.parent(b)) {
        dist += true_tree.branch_length(b);
      }
      d[i][j] = d[j][i] = dist;
    }
  }
  auto nj = neighbor_joining(d, names);
  EXPECT_EQ(rf_distance(nj, true_tree), 0);
}

TEST(Distance, NjFromSimulatedAlignmentCloseToTruth) {
  Rng rng(29);
  auto true_tree = random_tree(rng, {10, 0.08, "t"});
  auto model = SubstModel::jc69();
  auto aln = simulate_alignment(rng, true_tree, model, RateModel::uniform(), {8000});
  auto nj = nj_tree(aln);
  // Long sequences: topology should be recovered or nearly so (random
  // trees can contain very short internal branches, so allow a couple of
  // unresolved splits).
  EXPECT_LE(rf_distance(nj, true_tree), 4);
}

TEST(Distance, NjInputValidation) {
  EXPECT_THROW(neighbor_joining({{0}}, {"a"}), InputError);
  EXPECT_THROW(neighbor_joining({{0, 1}, {1, 0}}, {"a", "b"}), InputError);
  std::vector<std::vector<double>> bad = {{0, 1}, {1, 0}, {1, 1}};
  EXPECT_THROW(neighbor_joining(bad, {"a", "b", "c"}), InputError);
}

TEST(Simulate, AlignmentShapeAndDeterminism) {
  Rng rng1(31), rng2(31);
  auto tree = random_tree(rng1, {7, 0.1, "t"});
  auto tree2 = random_tree(rng2, {7, 0.1, "t"});
  EXPECT_EQ(tree.to_newick(), tree2.to_newick());

  auto model = SubstModel::jc69();
  auto a1 = simulate_alignment(rng1, tree, model, RateModel::uniform(), {100});
  auto a2 = simulate_alignment(rng2, tree2, model, RateModel::uniform(), {100});
  EXPECT_EQ(a1.rows, a2.rows);
  EXPECT_EQ(a1.taxon_count(), 7u);
  EXPECT_EQ(a1.site_count(), 100u);
}

TEST(Simulate, CloseTaxaAreMoreSimilar) {
  // Two leaves on a cherry with tiny branches vs a distant leaf.
  auto tree = Tree::parse_newick("((a:0.01,b:0.01):0.5,c:0.5,d:0.5);");
  Rng rng(37);
  auto model = SubstModel::jc69();
  auto aln = simulate_alignment(rng, tree, model, RateModel::uniform(), {1000});
  auto d = jc_distance_matrix(aln);
  std::size_t a = 0, b = 1, c = 2;
  ASSERT_EQ(aln.names[a], "a");
  ASSERT_EQ(aln.names[b], "b");
  EXPECT_LT(d[a][b], d[a][c]);
}

TEST(Simulate, InvalidSpecs) {
  Rng rng(1);
  EXPECT_THROW(random_tree(rng, {2, 0.1, "t"}), InputError);
  auto tree = Tree::three_taxon("a", "b", "c");
  auto model = SubstModel::jc69();
  EXPECT_THROW(simulate_alignment(rng, tree, model, RateModel::uniform(), {0}),
               InputError);
}

}  // namespace
}  // namespace hdcs::phylo
