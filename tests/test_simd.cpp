// Cross-tier equivalence for the runtime SIMD dispatch (util/simd.hpp).
//
// Every kernel behind the dispatch — the batch alignment lanes and the
// likelihood partials combine — must produce results bit-identical to the
// scalar reference under every tier the host can run. These tests pin each
// tier with ScopedSimdTier and compare against ground truth, covering the
// cases the smoke benches don't: empty/one-residue subjects, batches that
// don't fill a lane group, odd remainders, int16 saturation straddling both
// rails, and gap costs that fail the boundary precheck.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "bio/align.hpp"
#include "bio/align_batch.hpp"
#include "bio/seqgen.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/partials_kernels.hpp"
#include "phylo/simulate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace hdcs {
namespace {

std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2,
                     SimdTier::kAvx512}) {
    if (simd_tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(SimdDispatch, ParseRoundTripsAndRejectsJunk) {
  SimdTier t = SimdTier::kAvx2;
  EXPECT_TRUE(parse_simd_tier("scalar", &t));
  EXPECT_EQ(t, SimdTier::kScalar);
  EXPECT_TRUE(parse_simd_tier("sse2", &t));
  EXPECT_EQ(t, SimdTier::kSse2);
  EXPECT_TRUE(parse_simd_tier("avx2", &t));
  EXPECT_EQ(t, SimdTier::kAvx2);
  EXPECT_TRUE(parse_simd_tier("AVX512", &t));
  EXPECT_EQ(t, SimdTier::kAvx512);
  EXPECT_FALSE(parse_simd_tier("avx1024", &t));
  EXPECT_FALSE(parse_simd_tier("", &t));
  for (SimdTier tier : available_tiers()) {
    SimdTier back = SimdTier::kScalar;
    EXPECT_TRUE(parse_simd_tier(to_string(tier), &back));
    EXPECT_EQ(back, tier);
  }
}

TEST(SimdDispatch, ScopedOverrideSetsAndRestores) {
  const SimdTier before = simd_tier();
  {
    ScopedSimdTier pin(SimdTier::kScalar);
    EXPECT_EQ(simd_tier(), SimdTier::kScalar);
    {
      ScopedSimdTier inner(SimdTier::kSse2);
      EXPECT_EQ(simd_tier(), SimdTier::kSse2);
    }
    EXPECT_EQ(simd_tier(), SimdTier::kScalar);
  }
  EXPECT_EQ(simd_tier(), before);
}

TEST(SimdDispatch, RequestsAboveDetectedClampDown) {
  ScopedSimdTier pin(SimdTier::kAvx512);
  EXPECT_LE(static_cast<int>(simd_tier()),
            static_cast<int>(simd_tier_detected()));
}

// ---------------------------------------------------------------------------
// Batch alignment: every tier vs the per-pair scalar kernels.
// ---------------------------------------------------------------------------

constexpr bio::AlignMode kModes[] = {bio::AlignMode::kLocal,
                                     bio::AlignMode::kGlobal,
                                     bio::AlignMode::kSemiGlobal};

// Assert batch_align_scores == align_score per pair under every tier.
void expect_all_tiers_match(std::string_view query,
                            const std::vector<std::string>& db_store,
                            const bio::ScoringScheme& scheme,
                            std::uint64_t* saturations = nullptr) {
  std::vector<std::string_view> db(db_store.begin(), db_store.end());
  bio::QueryProfile profile(query, scheme);
  bio::AlignScratch scratch;
  for (bio::AlignMode mode : kModes) {
    std::vector<std::int64_t> expected;
    expected.reserve(db.size());
    for (auto subject : db) {
      expected.push_back(bio::align_score(mode, query, subject, scheme));
    }
    for (SimdTier tier : available_tiers()) {
      ScopedSimdTier pin(tier);
      bio::BatchMetrics metrics;
      auto got =
          bio::batch_align_scores(mode, profile, db, scheme, 0, scratch, &metrics);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "mode " << static_cast<int>(mode) << " tier " << to_string(tier)
            << " subject " << i << " (len " << db[i].size() << ")";
      }
      if (saturations) *saturations += metrics.saturations;
    }
  }
}

TEST(SimdBatchAlign, FuzzRaggedBatchesMatchScalarUnderEveryTier) {
  Rng rng(17);
  auto scheme = bio::ScoringScheme::blosum62();
  // Lengths chosen to hit: empty, single residue, lane-count boundaries
  // (half, full and two lane groups, each +-1), odd lengths, and wide
  // ragged spreads.
  const std::size_t batch_sizes[] = {1,  7,  15, 16, 17, 31,
                                     32, 33, 63, 64, 65};
  auto ragged_db = [&](std::size_t subjects, auto&& residues) {
    std::vector<std::string> db;
    for (std::size_t i = 0; i < subjects; ++i) {
      std::size_t len;
      switch (rng.next_below(5)) {
        case 0: len = 0; break;
        case 1: len = 1; break;
        case 2: len = 2 + rng.next_below(7); break;       // short odd/even mix
        default: len = 20 + rng.next_below(180); break;   // ragged bulk
      }
      db.push_back(residues(len));
    }
    return db;
  };
  auto protein = [&](std::size_t len) {
    return bio::random_residues(rng, len, bio::Alphabet::kProtein);
  };
  for (std::size_t subjects : batch_sizes) {
    auto query = protein(40 + rng.next_below(80));
    expect_all_tiers_match(query, ragged_db(subjects, protein), scheme);
  }

  // Ambiguity codes and letters outside the 20 amino acids (B J O U X Z),
  // plus characters that fall into the catch-all index ('*', lowercase):
  // the top codes of the 32-slot substitution rows, next to pad slot 27.
  const std::string_view exotic = "ACDEFGHIKLMNPQRSTVWYBJOUXZ*acxz";
  auto mixed = [&](std::size_t len) {
    std::string s(len, 'A');
    for (char& c : s) c = exotic[rng.next_below(exotic.size())];
    return s;
  };
  expect_all_tiers_match(mixed(90), ragged_db(45, mixed), scheme);
}

TEST(SimdBatchAlign, EmptyQueryAndEmptyDatabase) {
  auto scheme = bio::ScoringScheme::blosum62();
  expect_all_tiers_match("", {"ACDEFGH", "", "KLMNP"}, scheme);
  expect_all_tiers_match("ACDEFGH", {}, scheme);
}

TEST(SimdBatchAlign, LocalSaturationStraddlesUpperRail) {
  // match=100 drives identical-sequence SW scores to 100*len: len 310 stays
  // below kSat16 (31000), len 330 crosses it (33000) and must be re-run in
  // int64 — both must still equal the scalar kernel exactly.
  auto scheme = bio::ScoringScheme::dna(100, -4, 10, 1);
  std::string query(340, 'A');
  std::vector<std::string> db = {std::string(310, 'A'), std::string(330, 'A'),
                                 std::string(318, 'A'), std::string(322, 'A')};
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, db, scheme, &saturations);
  // The lane tiers (not scalar) must have detected at least one saturated
  // lane; the exact count depends on which tiers this host can run.
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

TEST(SimdBatchAlign, GlobalScoresStraddleLowerRail) {
  // mismatch=-400 with cheap-ish gaps: the best NW path for all-mismatch
  // pairs is two full-length gaps costing -(10 + len*70)*2, which crosses
  // kFloor16 = -16000 near len 114. Lanes below the rail must be re-run;
  // lanes just above must stay exact in int16.
  auto scheme = bio::ScoringScheme::dna(2, -400, 10, 70);
  std::string query(130, 'A');
  std::vector<std::string> db = {std::string(100, 'C'), std::string(110, 'C'),
                                 std::string(120, 'C'), std::string(130, 'C')};
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, db, scheme, &saturations);
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

TEST(SimdBatchAlign, HugeGapExtendFailsBoundaryPrecheckSafely) {
  // gap_extend=4000 makes NW/semi-global init cells unrepresentable in
  // int16 for subjects longer than ~2 residues; those lanes must take the
  // exact path up front (not rail-and-retry) and still match scalar.
  auto scheme = bio::ScoringScheme::dna(2, -1, 10, 4000);
  Rng rng(23);
  std::string query = bio::random_residues(rng, 30, bio::Alphabet::kDna);
  std::vector<std::string> db;
  for (std::size_t len : {0u, 1u, 2u, 3u, 10u, 40u}) {
    db.push_back(bio::random_residues(rng, len, bio::Alphabet::kDna));
  }
  expect_all_tiers_match(query, db, scheme);
}

// ---------------------------------------------------------------------------
// Likelihood partials: tiers share summation order, so doubles must be
// bit-identical — not merely close.
// ---------------------------------------------------------------------------

TEST(SimdPartialsKernel, TiersAgreeBitForBitOnOddCounts) {
  using phylo::PartialsCombineFn;
  Rng rng(31);
  double pm[16];
  for (double& v : pm) v = 0.01 + 0.99 * rng.next_double();
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 33u}) {
    std::vector<double> child(count * 4);
    for (double& v : child) v = rng.next_double();
    std::vector<double> ref;
    for (bool assign : {true, false}) {
      bool first_tier = true;
      for (SimdTier tier : available_tiers()) {
        std::vector<double> node(count * 4, 0.5);
        PartialsCombineFn fn = phylo::partials_combine_for(tier);
        ASSERT_NE(fn, nullptr);
        fn(pm, child.data(), node.data(), count, assign);
        if (first_tier) {
          ref = node;
          first_tier = false;
        } else {
          for (std::size_t i = 0; i < node.size(); ++i) {
            ASSERT_EQ(node[i], ref[i])
                << "tier " << to_string(tier) << " count " << count
                << " assign " << assign << " cell " << i;
          }
        }
      }
    }
  }
}

TEST(SimdLikelihood, LogLikelihoodBitIdenticalAcrossTiers) {
  Rng rng(41);
  auto tree = phylo::random_tree(rng, {12, 0.1, "t"});
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  auto rates = phylo::RateModel::gamma(0.5, 4);
  auto aln = phylo::simulate_alignment(rng, tree, *model, rates, {300});
  phylo::LikelihoodEngine engine(phylo::compress(aln), model, rates);

  bool have_ref = false;
  double ref = 0;
  for (SimdTier tier : available_tiers()) {
    ScopedSimdTier pin(tier);
    double ll = engine.log_likelihood(tree);
    EXPECT_TRUE(std::isfinite(ll));
    if (!have_ref) {
      ref = ll;
      have_ref = true;
    } else {
      EXPECT_EQ(ll, ref) << "tier " << to_string(tier);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental likelihood: one engine carried through random tree edits
// reuses cached partials between calls, and must still agree bit for bit
// with a fresh engine (whose first call recomputes every node).
// ---------------------------------------------------------------------------

struct EditCase {
  phylo::Tree start;
  phylo::PatternAlignment patterns;
  std::shared_ptr<const phylo::SubstModel> model;
  phylo::RateModel rates;
  int taxa = 0;
};

EditCase make_edit_case(std::uint64_t seed, int taxa, double mean_branch,
                        std::size_t sites, phylo::RateModel rates) {
  Rng rng(seed);
  EditCase c;
  c.start = phylo::random_tree(rng, {taxa, mean_branch, "t"});
  c.model = std::make_shared<phylo::SubstModel>(
      phylo::SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.0));
  c.rates = std::move(rates);
  c.patterns = phylo::compress(
      phylo::simulate_alignment(rng, c.start, *c.model, c.rates, {sites}));
  c.taxa = taxa;
  return c;
}

// Runs `steps` random edits under the current tier and returns the engine's
// value after each; every value must == a fresh engine's on the same tree.
std::vector<double> run_random_edits(const EditCase& c, int steps, std::uint64_t seed) {
  Rng rng(seed);
  phylo::LikelihoodEngine engine(c.patterns, c.model, c.rates);
  auto fresh = [&c](const phylo::Tree& t) {
    phylo::LikelihoodEngine e(c.patterns, c.model, c.rates);
    return e.log_likelihood(t);
  };
  phylo::Tree tree = c.start;
  std::vector<std::string> spare;  // alignment taxa not in `tree`
  std::vector<double> values;
  auto pick = [&rng](const std::vector<int>& v) {
    return v[static_cast<std::size_t>(rng.next_below(v.size()))];
  };

  values.push_back(engine.log_likelihood(tree));
  EXPECT_EQ(values.back(), fresh(tree)) << "initial tree";
  for (int step = 0; step < steps; ++step) {
    const auto op = rng.next_below(8);
    switch (op) {
      case 0:  // Brent moves one branch at a time
        tree.set_branch_length(pick(tree.edge_nodes()), rng.exponential(0.3));
        break;
      case 1:
        if (!spare.empty()) {
          tree.insert_leaf_on_edge(pick(tree.edge_nodes()), spare.back(),
                                   rng.exponential(0.3), rng.uniform(0.2, 0.8));
          spare.pop_back();
        }
        break;
      case 2:  // renumbers every node
        if (tree.leaf_count() > 4) {
          int leaf = pick(tree.leaves());
          spare.push_back(tree.at(leaf).name);
          tree.remove_leaf(leaf);
        }
        break;
      case 3:
        if (auto internal = tree.internal_edges(); !internal.empty()) {
          tree.nni(pick(internal), static_cast<int>(rng.next_below(2)));
        }
        break;
      case 4:  // same tree, parser's node numbering
        tree = phylo::Tree::parse_newick(tree.to_newick());
        break;
      case 5: {  // an unrelated tree through the same engine
        int n = 3 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c.taxa - 2)));
        auto other = phylo::random_tree(rng, {n, 0.2, "t"});
        EXPECT_EQ(engine.log_likelihood(other), fresh(other)) << "step " << step;
        break;
      }
      case 6: {  // a taxon the alignment lacks: the call throws part-way
        phylo::Tree bad = tree;
        bad.insert_leaf_on_edge(pick(bad.edge_nodes()), "absent", 0.1);
        EXPECT_THROW(engine.log_likelihood(bad), InputError);
        break;
      }
      default: {  // a whole Brent search
        double best = engine.optimize_branch(tree, pick(tree.edge_nodes()), 1e-3);
        EXPECT_EQ(best, fresh(tree)) << "step " << step;
        break;
      }
    }
    values.push_back(engine.log_likelihood(tree));
    EXPECT_EQ(values.back(), fresh(tree))
        << "step " << step << " op " << op << " tree " << tree.to_newick();
  }
  return values;
}

void expect_incremental_matches_fresh(const EditCase& c, int steps) {
  std::vector<double> ref;
  for (SimdTier tier : available_tiers()) {
    ScopedSimdTier pin(tier);
    auto values = run_random_edits(c, steps, 77);
    if (ref.empty()) {
      ref = values;
    } else {
      EXPECT_EQ(values, ref) << "tier " << to_string(tier);
    }
  }
}

TEST(SimdLikelihood, IncrementalMatchesFreshEngineUnderRandomEdits) {
  auto small = make_edit_case(51, 14, 0.1, 300, phylo::RateModel::gamma(0.5, 4));
  expect_incremental_matches_fresh(small, 120);

  // 300 taxa on long branches: a site's likelihood is far below 1e-100, so
  // partials are rescaled at every node with more than ~170 leaves below
  // it, and the cached per-node scale logs must add up to what a full
  // recompute gets.
  auto scaled = make_edit_case(53, 300, 1.0, 24, phylo::RateModel::uniform());
  phylo::LikelihoodEngine engine(scaled.patterns, scaled.model, scaled.rates);
  const double per_site = engine.log_likelihood(scaled.start) / scaled.patterns.site_count();
  ASSERT_LT(per_site, -230.0);
  expect_incremental_matches_fresh(scaled, 40);
}

TEST(SimdLikelihood, BranchChangeRecomputesOnlyThePathToTheRoot) {
  auto c = make_edit_case(57, 16, 0.1, 200, phylo::RateModel::gamma(0.5, 4));
  phylo::LikelihoodEngine engine(c.patterns, c.model, c.rates);
  phylo::Tree tree = c.start;
  const auto all = static_cast<std::uint64_t>(tree.node_count());

  engine.log_likelihood(tree);
  EXPECT_EQ(engine.nodes_recomputed(), all);
  engine.log_likelihood(tree);
  EXPECT_EQ(engine.nodes_recomputed(), all) << "unchanged tree recomputed a node";

  for (int node : tree.edge_nodes()) {
    std::uint64_t path = 0;
    for (int n = tree.parent(node); n >= 0; n = tree.parent(n)) ++path;
    const auto before = engine.nodes_recomputed();
    tree.set_branch_length(node, tree.branch_length(node) * 1.5);
    EXPECT_EQ(engine.log_likelihood(tree), phylo::LikelihoodEngine(c.patterns, c.model, c.rates)
                                               .log_likelihood(tree));
    EXPECT_EQ(engine.nodes_recomputed() - before, path) << "edge above node " << node;
  }

  // Switching the tier away and back, and invalidate(), each recompute
  // every node.
  const SimdTier home = simd_tier();
  const auto tiers = available_tiers();
  const SimdTier away = home == tiers.front() ? tiers.back() : tiers.front();
  ASSERT_NE(away, home);
  auto before = engine.nodes_recomputed();
  {
    ScopedSimdTier pin(away);
    engine.log_likelihood(tree);
    EXPECT_EQ(engine.nodes_recomputed() - before, all) << "to " << to_string(away);
  }
  before = engine.nodes_recomputed();
  engine.log_likelihood(tree);
  EXPECT_EQ(engine.nodes_recomputed() - before, all) << "back to " << to_string(home);
  before = engine.nodes_recomputed();
  engine.invalidate();
  engine.log_likelihood(tree);
  EXPECT_EQ(engine.nodes_recomputed() - before, all) << "after invalidate()";
}

}  // namespace
}  // namespace hdcs
