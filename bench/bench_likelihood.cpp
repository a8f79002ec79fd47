// Microbenchmarks of the likelihood machinery (DPRml's hot path): full-tree
// log-likelihood evaluations and branch optimisations across substitution
// models and rate-category counts. The engine reuses cached partials between
// calls, so the full-tree benches call invalidate() before every evaluation;
// the Brent benches time the incremental path DPRml actually runs.
//
// Two entry points:
//   bench_likelihood [gbench flags]     full google-benchmark suite
//   bench_likelihood --smoke [--out f]  asserts every SIMD dispatch tier
//                                       returns the bit-identical
//                                       log-likelihood, then times full
//                                       evaluations per tier and the
//                                       incremental Brent loop, and writes
//                                       BENCH_LIKELIHOOD.json (same schema
//                                       style as BENCH_ALIGN.json; gated
//                                       in CI by scripts/bench_gate.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "phylo/distance.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

using namespace hdcs;
using namespace hdcs::phylo;

namespace {

struct Case {
  Tree tree;
  PatternAlignment patterns;
  std::shared_ptr<const SubstModel> model;
  RateModel rates;
};

Case make_case(int taxa, std::size_t sites, const std::string& model_spec,
               int categories) {
  Rng rng(3);
  Case c;
  c.tree = random_tree(rng, {taxa, 0.1, "t"});
  Config params;
  params.set("kappa", "2.0");
  params.set("alpha", "0.5");
  auto spec = ModelSpec::parse(model_spec, params);
  c.model = spec.model;
  c.rates = categories > 1 ? RateModel::gamma(0.5, categories)
                           : RateModel::uniform();
  auto aln = simulate_alignment(rng, c.tree, *c.model, c.rates, {sites});
  c.patterns = compress(aln);
  return c;
}

void BM_LogLikelihood(benchmark::State& state) {
  auto taxa = static_cast<int>(state.range(0));
  auto cats = static_cast<int>(state.range(1));
  auto c = make_case(taxa, 500, "HKY85", cats);
  LikelihoodEngine engine(c.patterns, c.model, c.rates);
  for (auto _ : state) {
    engine.invalidate();
    benchmark::DoNotOptimize(engine.log_likelihood(c.tree));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.patterns.patterns) *
                          cats * (2 * taxa - 2));
  state.counters["patterns"] = static_cast<double>(c.patterns.patterns);
}
BENCHMARK(BM_LogLikelihood)
    ->Args({10, 1})
    ->Args({10, 4})
    ->Args({25, 1})
    ->Args({25, 4})
    ->Args({50, 4});

void BM_ModelComparison(benchmark::State& state) {
  static const char* kModels[] = {"JC69", "K80", "HKY85", "TN93", "GTR"};
  const char* model = kModels[state.range(0)];
  auto c = make_case(15, 500, model, 1);
  LikelihoodEngine engine(c.patterns, c.model, c.rates);
  for (auto _ : state) {
    engine.invalidate();
    benchmark::DoNotOptimize(engine.log_likelihood(c.tree));
  }
  state.SetLabel(model);
}
BENCHMARK(BM_ModelComparison)->DenseRange(0, 4);

void BM_OptimizeBranch(benchmark::State& state) {
  auto c = make_case(20, 500, "HKY85", 4);
  LikelihoodEngine engine(c.patterns, c.model, c.rates);
  auto edges = c.tree.edge_nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.optimize_branch(c.tree, edges[i % edges.size()], 1e-3));
    ++i;
  }
  state.counters["ll_evals_total"] = static_cast<double>(engine.eval_count());
}
BENCHMARK(BM_OptimizeBranch);

void BM_TransitionProbs(benchmark::State& state) {
  auto model = SubstModel::gtr({0.3, 0.2, 0.2, 0.3}, {1.2, 3.0, 0.9, 1.1, 3.5, 1.0});
  double t = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.transition_probs(t));
    t += 1e-6;  // defeat value caching
  }
}
BENCHMARK(BM_TransitionProbs);

void BM_PatternCompression(benchmark::State& state) {
  Rng rng(5);
  auto tree = random_tree(rng, {30, 0.1, "t"});
  auto model = SubstModel::jc69();
  auto aln = simulate_alignment(rng, tree, model, RateModel::uniform(), {2000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(aln));
  }
}
BENCHMARK(BM_PatternCompression);

void BM_NeighborJoining(benchmark::State& state) {
  auto taxa = static_cast<int>(state.range(0));
  Rng rng(9);
  auto tree = random_tree(rng, {taxa, 0.1, "t"});
  auto model = SubstModel::jc69();
  auto aln = simulate_alignment(rng, tree, model, RateModel::uniform(), {500});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nj_tree(aln));
  }
}
BENCHMARK(BM_NeighborJoining)->Arg(20)->Arg(50);

// ---------------------------------------------------------------------------
// --smoke: tier equivalence, scalar-vs-SIMD full evaluations and the
// incremental Brent loop, JSON artifact (BENCH_LIKELIHOOD.json).
// ---------------------------------------------------------------------------

// Each rate is the best of kRounds interleaved rounds of kMinSeconds: a
// shared host's speed drifts over seconds, and timing scalar, SIMD and
// Brent back to back in short rounds keeps that drift out of the ratios.
constexpr int kRounds = 5;
constexpr double kMinSeconds = 0.05;

/// Full evaluations per second: every call recomputes every node.
double measure_full_evals_per_sec(LikelihoodEngine& engine, const Tree& tree) {
  benchmark::DoNotOptimize(engine.log_likelihood(tree));  // warm-up
  hdcs::Stopwatch sw;
  std::size_t evals = 0;
  do {
    engine.invalidate();
    benchmark::DoNotOptimize(engine.log_likelihood(tree));
    ++evals;
  } while (sw.seconds() < kMinSeconds);
  return static_cast<double>(evals) / sw.seconds();
}

/// Evaluations per second inside optimize_branches sweeps over every edge,
/// the loop DPRml runs: each Brent step moves one branch, so each call
/// recomputes the path from that branch's parent to the root.
double measure_brent_evals_per_sec(LikelihoodEngine& engine, Tree tree) {
  const auto edges = tree.edge_nodes();
  engine.optimize_branches(tree, edges, 1, 1e-3);  // warm-up
  const std::uint64_t first = engine.eval_count();
  hdcs::Stopwatch sw;
  do {
    benchmark::DoNotOptimize(engine.optimize_branches(tree, edges, 1, 1e-3));
  } while (sw.seconds() < kMinSeconds);
  return static_cast<double>(engine.eval_count() - first) / sw.seconds();
}

int run_smoke(const std::string& out_path) {
  constexpr int kTaxa = 30;
  constexpr std::size_t kSites = 1000;
  constexpr int kCats = 4;
  auto c = make_case(kTaxa, kSites, "HKY85", kCats);
  LikelihoodEngine engine(c.patterns, c.model, c.rates);

  // Equivalence guard: every available tier must produce the bit-identical
  // log-likelihood (the kernels share summation order and never use FMA).
  const SimdTier tiers[] = {SimdTier::kScalar, SimdTier::kSse2,
                            SimdTier::kAvx2, SimdTier::kAvx512};
  bool have_ref = false;
  double ref = 0;
  for (SimdTier t : tiers) {
    if (!simd_tier_available(t)) continue;
    ScopedSimdTier pin(t);
    double ll = engine.log_likelihood(c.tree);
    if (!have_ref) {
      ref = ll;
      have_ref = true;
    } else if (ll != ref) {
      std::fprintf(stderr, "smoke FAILED: tier %s log-likelihood %.17g != %.17g\n",
                   to_string(t), ll, ref);
      return 1;
    }
  }

  double scalar_rate = 0, simd_rate = 0, brent_rate = 0;
  const SimdTier best = simd_tier_detected();
  for (int round = 0; round < kRounds; ++round) {
    {
      ScopedSimdTier pin(SimdTier::kScalar);
      scalar_rate = std::max(scalar_rate, measure_full_evals_per_sec(engine, c.tree));
    }
    ScopedSimdTier pin(best);
    simd_rate = std::max(simd_rate, measure_full_evals_per_sec(engine, c.tree));
    brent_rate = std::max(brent_rate, measure_brent_evals_per_sec(engine, c.tree));
  }
  std::printf("partials   scalar %8.1f evals/s   %s %8.1f evals/s   %.2fx\n",
              scalar_rate, to_string(best), simd_rate,
              simd_rate / scalar_rate);
  std::printf("brent      %s %8.1f evals/s   %.2fx over full evaluations\n",
              to_string(best), brent_rate, brent_rate / simd_rate);

  char buf[512];
  std::string json;
  json += "{\n  \"schema\": 1,\n  \"bench\": \"bench_likelihood --smoke\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"config\": {\n    \"model\": \"HKY85\",\n"
                "    \"taxa\": %d,\n    \"sites\": %zu,\n"
                "    \"patterns\": %zu,\n    \"categories\": %d,\n"
                "    \"simd_tier\": \"%s\"\n  },\n",
                kTaxa, kSites, c.patterns.patterns, kCats, to_string(best));
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"kernels_evals_per_sec\": {\n"
                "    \"partials_scalar\": %.4g,\n"
                "    \"partials_simd\": %.4g,\n"
                "    \"brent_incremental\": %.4g\n  },\n"
                "  \"speedup_simd_over_scalar\": {\n"
                "    \"partials\": %.3g\n  },\n"
                "  \"speedup_incremental_over_full\": {\n"
                "    \"brent\": %.3g\n  }\n}\n",
                scalar_rate, simd_rate, brent_rate, simd_rate / scalar_rate,
                brent_rate / simd_rate);
  json += buf;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      std::string out_path = "BENCH_LIKELIHOOD.json";
      for (int j = 1; j + 1 < argc; ++j) {
        if (std::strcmp(argv[j], "--out") == 0) out_path = argv[j + 1];
      }
      return run_smoke(out_path);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
