#include "phylo/likelihood.hpp"

#include <bit>
#include <cmath>

#include "phylo/optimize.hpp"
#include "phylo/partials_kernels.hpp"
#include "util/error.hpp"

namespace hdcs::phylo {

LikelihoodEngine::LikelihoodEngine(PatternAlignment alignment,
                                   std::shared_ptr<const SubstModel> model,
                                   RateModel rates)
    : alignment_(std::move(alignment)), model_(std::move(model)),
      rates_(std::move(rates)) {
  if (!model_) throw InputError("LikelihoodEngine: null model");
  if (alignment_.patterns == 0) throw InputError("LikelihoodEngine: empty alignment");
  if (rates_.rates.empty() || rates_.rates.size() != rates_.probs.size()) {
    throw InputError("LikelihoodEngine: malformed rate model");
  }
}

namespace {

// Branch lengths count as unchanged only if their bits are, so a reused
// node is exactly what recomputing it would give.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

double LikelihoodEngine::log_likelihood(const Tree& tree) {
  evals_ += 1;
  const std::size_t P = alignment_.patterns;
  const std::size_t C = rates_.category_count();
  const std::size_t stride = P * C * 4;
  const auto n_nodes = static_cast<std::size_t>(tree.node_count());
  const SimdTier tier = simd_tier();
  if (tier != tier_) {
    invalidate();
    tier_ = tier;
  }
  const PartialsCombineFn combine = partials_combine_for(tier);

  // Every node the previous call finished holds partials consistent with
  // its children's, so a node is reused when that call finished it, its
  // inputs are unchanged and no child was recomputed in this call. A node
  // is stamped once it is done, so a call cut short (a leaf the alignment
  // lacks throws) leaves only finished nodes reusable.
  const std::uint64_t prev = pass_;
  const std::uint64_t now = ++pass_;
  // Resizing keeps each node's cells at the same offset; a node's cells
  // are fully rewritten whenever it is recomputed (leaves store all four
  // states, the first child's combine assigns).
  partials_.resize(n_nodes * stride);
  if (cache_.size() < n_nodes) cache_.resize(n_nodes);
  fresh_.assign(n_nodes, 0);

  auto order = tree.postorder();
  for (int node : order) {
    auto ni = static_cast<std::size_t>(node);
    NodeCache& nc = cache_[ni];
    const TreeNode& tn = tree.at(node);
    const auto& children = tn.children;
    const int leaf_row =
        children.empty() ? static_cast<int>(alignment_.taxon_index(tn.name)) : -1;
    bool dirty = nc.pass != prev || nc.leaf_row != leaf_row ||
                 nc.children.size() != children.size();
    for (std::size_t k = 0; !dirty && k < children.size(); ++k) {
      int child = children[k];
      dirty = nc.children[k].first != child ||
              fresh_[static_cast<std::size_t>(child)] != 0 ||
              !same_bits(nc.children[k].second, tree.branch_length(child));
    }
    if (dirty) {
      nc.leaf_row = leaf_row;
      nc.children.clear();
      for (int child : children) nc.children.emplace_back(child, tree.branch_length(child));
      recompute(nc, &partials_[ni * stride], combine);
      fresh_[ni] = 1;
      recomputed_ += 1;
    }
    nc.pass = now;
  }

  // Sum the scale logs in postorder, the order a full recompute adds them
  // in, so the total is bit-identical to one (a node adds +0.0 for the
  // patterns it did not rescale, which leaves a sum of logs unchanged).
  scale_log_.assign(P, 0.0);
  for (int node : order) {
    const auto& logs = cache_[static_cast<std::size_t>(node)].scale_log;
    for (std::size_t p = 0; p < logs.size(); ++p) scale_log_[p] += logs[p];
  }

  const auto root = static_cast<std::size_t>(tree.root());
  const double* rp = &partials_[root * stride];
  const Vec4& pi = model_->pi();
  double log_l = 0;
  for (std::size_t p = 0; p < P; ++p) {
    double site = 0;
    for (std::size_t c = 0; c < C; ++c) {
      const double* cell = rp + (c * P + p) * 4;
      double cat = pi[0] * cell[0] + pi[1] * cell[1] + pi[2] * cell[2] +
                   pi[3] * cell[3];
      site += rates_.probs[c] * cat;
    }
    if (site <= 0) {
      // Fully scaled-out pattern: fall back to the scale log alone.
      log_l += alignment_.weights[p] * (scale_log_[p] + std::log(1e-300));
    } else {
      log_l += alignment_.weights[p] * (std::log(site) + scale_log_[p]);
    }
  }
  return log_l;
}

void LikelihoodEngine::recompute(NodeCache& nc, double* np, PartialsCombineFn combine) {
  const std::size_t P = alignment_.patterns;
  const std::size_t C = rates_.category_count();
  const std::size_t stride = P * C * 4;
  nc.scale_log.clear();  // keeps its capacity

  if (nc.children.empty()) {
    auto row = static_cast<std::size_t>(nc.leaf_row);
    for (std::size_t c = 0; c < C; ++c) {
      double* cat_base = np + c * P * 4;
      for (std::size_t p = 0; p < P; ++p) {
        std::uint8_t code = alignment_.code(p, row);
        double* cell = cat_base + p * 4;
        if (code == kMissing) {
          cell[0] = cell[1] = cell[2] = cell[3] = 1.0;
        } else {
          cell[0] = cell[1] = cell[2] = cell[3] = 0.0;
          cell[code] = 1.0;
        }
      }
    }
    return;
  }

  // Internal: product over children of (P_child^T . child partials).
  // Patterns of one category are contiguous ([cat][pattern][state]
  // layout), so each combine call is one long unit-stride sweep through
  // the dispatched kernel (partials_kernels.hpp).
  bool first = true;
  for (const auto& [child, t] : nc.children) {
    const double* cp = &partials_[static_cast<std::size_t>(child) * stride];
    for (std::size_t c = 0; c < C; ++c) {
      Matrix4 pm = model_->transition_probs(t * rates_.rates[c]);
      combine(&pm.m[0][0], cp + c * P * 4, np + c * P * 4, P, first);
    }
    first = false;
  }

  // Rescale patterns drifting toward underflow; the node keeps its own
  // logs so a later call can reuse them without recomputing it.
  for (std::size_t p = 0; p < P; ++p) {
    double maxv = 0;
    for (std::size_t c = 0; c < C; ++c) {
      const double* cell = np + (c * P + p) * 4;
      for (int i = 0; i < 4; ++i) maxv = std::max(maxv, cell[i]);
    }
    if (maxv > 0 && maxv < 1e-100) {
      double inv = 1.0 / maxv;
      for (std::size_t c = 0; c < C; ++c) {
        double* cell = np + (c * P + p) * 4;
        for (int i = 0; i < 4; ++i) cell[i] *= inv;
      }
      if (nc.scale_log.empty()) nc.scale_log.assign(P, 0.0);
      nc.scale_log[p] = std::log(maxv);
    }
  }
}

double LikelihoodEngine::optimize_branch(Tree& tree, int node, double tol) {
  if (node == tree.root()) throw InputError("optimize_branch: root has no branch");
  auto objective = [&](double bl) {
    tree.set_branch_length(node, bl);
    return -log_likelihood(tree);
  };
  auto res = brent_minimize(objective, kMinBranch, kMaxBranch, tol);
  tree.set_branch_length(node, res.x);
  return -res.value;
}

double LikelihoodEngine::optimize_branches(Tree& tree, std::span<const int> nodes,
                                           int passes, double tol) {
  double best = log_likelihood(tree);
  for (int pass = 0; pass < passes; ++pass) {
    for (int node : nodes) best = optimize_branch(tree, node, tol);
  }
  return best;
}

double LikelihoodEngine::optimize_all_branches(Tree& tree, int passes, double tol) {
  auto edges = tree.edge_nodes();
  return optimize_branches(tree, edges, passes, tol);
}

}  // namespace hdcs::phylo
