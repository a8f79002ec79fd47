#pragma once
// Maximum-likelihood evaluation on trees: Felsenstein's pruning algorithm
// with per-pattern scaling, among-site rate categories, and Brent
// branch-length optimisation. This is the surface DPRml uses PAL for
// (paper §3.2: "uses the popular Phylogenetic Analysis Library (PAL) v1.4
// for all its likelihood calculations").
//
// Evaluation is incremental: each node keeps its partials, the inputs they
// were computed from and its own scale logs between calls, and a call
// recomputes only the nodes whose inputs changed plus their ancestors. A
// Brent step that moves one branch therefore recomputes the path from that
// branch's parent to the root. The result is bit-identical to recomputing
// every node (docs/KERNELS.md, "Incremental evaluation").

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/partials_kernels.hpp"
#include "phylo/subst_model.hpp"
#include "phylo/tree.hpp"
#include "util/simd.hpp"

namespace hdcs::phylo {

class LikelihoodEngine {
 public:
  LikelihoodEngine(PatternAlignment alignment, std::shared_ptr<const SubstModel> model,
                   RateModel rates);

  /// Log-likelihood of the tree (leaf names must all be in the alignment).
  double log_likelihood(const Tree& tree);

  /// Forget every cached node, so the next evaluation recomputes the whole
  /// tree (its result is the same either way).
  void invalidate() { ++pass_; }

  /// Optimize the branch above `node` by Brent search; returns the new
  /// log-likelihood. Branch lengths are searched in [min_bl, max_bl].
  double optimize_branch(Tree& tree, int node, double tol = 1e-4);

  /// Round-robin optimisation of the given branches (`passes` sweeps).
  double optimize_branches(Tree& tree, std::span<const int> nodes, int passes = 1,
                           double tol = 1e-4);

  /// All branches, `passes` sweeps (fastDNAml-style smoothing).
  double optimize_all_branches(Tree& tree, int passes = 2, double tol = 1e-4);

  [[nodiscard]] const PatternAlignment& alignment() const { return alignment_; }
  [[nodiscard]] const SubstModel& model() const { return *model_; }
  [[nodiscard]] const RateModel& rates() const { return rates_; }
  /// Number of log_likelihood() calls, whether they recomputed one node or
  /// every node.
  [[nodiscard]] std::uint64_t eval_count() const { return evals_; }
  /// Number of node partials (leaves included) recomputed over all calls.
  [[nodiscard]] std::uint64_t nodes_recomputed() const { return recomputed_; }

  static constexpr double kMinBranch = 1e-8;
  static constexpr double kMaxBranch = 10.0;

 private:
  // What one node's partials were computed from, and its scale logs.
  struct NodeCache {
    std::uint64_t pass = 0;  // the last call that finished this node
    int leaf_row = -1;       // alignment row (-1 internal)
    std::vector<std::pair<int, double>> children;  // (child, its branch length)
    // [pattern]; empty unless the node rescaled, allocated the first time
    // it does.
    std::vector<double> scale_log;
  };

  // Refill a node's partials (and scale logs) from its cached inputs.
  void recompute(NodeCache& nc, double* np, PartialsCombineFn combine);

  PatternAlignment alignment_;
  std::shared_ptr<const SubstModel> model_;
  RateModel rates_;
  std::uint64_t evals_ = 0;
  std::uint64_t recomputed_ = 0;

  // Cache state. Each call takes the next pass number; a node's entry is
  // reusable only if the previous call finished it, and invalidate() burns
  // a number so that no entry qualifies.
  std::uint64_t pass_ = 1;
  SimdTier tier_ = SimdTier::kScalar;  // tier the cached partials came from
  std::vector<double> partials_;       // [node][cat][pattern][state]
  std::vector<NodeCache> cache_;       // [node]

  // Per-call working buffers.
  std::vector<double> scale_log_;  // [pattern], summed over nodes
  std::vector<char> fresh_;        // node -> recomputed in this call
};

}  // namespace hdcs::phylo
