#include "dprml/dprml.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "dist/local_runner.hpp"
#include "net/blob_cache.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace hdcs::dprml {

namespace {
/// How many Brent evaluations one branch optimisation costs, roughly.
constexpr double kEvalsPerBranch = 15.0;
}  // namespace

DPRmlConfig DPRmlConfig::from_config(const Config& cfg) {
  DPRmlConfig c;
  c.model_spec = cfg.get_str("model", "HKY85+G4");
  c.kappa = cfg.get_f64("kappa", 2.0);
  c.alpha = cfg.get_f64("alpha", 0.5);
  c.pinv = cfg.get_f64("pinv", 0.1);
  c.basefreq = cfg.get_str("basefreq", "");
  c.gtr_rates = cfg.get_str("gtr_rates", "");
  c.order_seed = static_cast<std::uint64_t>(cfg.get_i64("order_seed", 0));
  c.pendant_branch = cfg.get_f64("pendant_branch", 0.1);
  c.branch_tolerance = cfg.get_f64("branch_tolerance", 1e-3);
  c.eval_passes = static_cast<int>(cfg.get_i64("eval_passes", 1));
  c.refine_passes = static_cast<int>(cfg.get_i64("refine_passes", 2));
  c.full_refine_every = static_cast<int>(cfg.get_i64("full_refine_every", 5));
  c.use_eval_cache = cfg.get_bool("use_eval_cache", true);
  c.nni_rounds = static_cast<int>(cfg.get_i64("nni_rounds", 0));
  if (c.nni_rounds < 0) throw InputError("nni_rounds must be >= 0");
  c.cost_scale = cfg.get_f64("cost_scale", 1.0);
  if (c.cost_scale <= 0) throw InputError("cost_scale must be > 0");
  if (c.pendant_branch <= 0) throw InputError("pendant_branch must be > 0");
  if (c.eval_passes < 1 || c.refine_passes < 1) {
    throw InputError("optimisation passes must be >= 1");
  }
  if (c.full_refine_every < 1) {
    throw InputError("full_refine_every must be >= 1");
  }
  // Validate the model spec early so bad configs fail at submission time.
  phylo::ModelSpec::parse(c.model_spec, c.model_params());
  return c;
}

Config DPRmlConfig::model_params() const {
  Config params;
  params.set("kappa", format_f64(kappa, 10));
  params.set("alpha", format_f64(alpha, 10));
  params.set("pinv", format_f64(pinv, 10));
  if (!basefreq.empty()) params.set("basefreq", basefreq);
  if (!gtr_rates.empty()) params.set("gtr_rates", gtr_rates);
  return params;
}

// ---- wire helpers ----

namespace {
void encode_config_fields(ByteWriter& w, const DPRmlConfig& c) {
  w.str(c.model_spec);
  w.f64(c.kappa);
  w.f64(c.alpha);
  w.f64(c.pinv);
  w.str(c.basefreq);
  w.str(c.gtr_rates);
  w.u64(c.order_seed);
  w.f64(c.pendant_branch);
  w.f64(c.branch_tolerance);
  w.i32(c.eval_passes);
  w.i32(c.refine_passes);
  w.i32(c.full_refine_every);
  w.boolean(c.use_eval_cache);
  w.i32(c.nni_rounds);
  w.f64(c.cost_scale);
}

DPRmlConfig decode_config_fields(ByteReader& r) {
  DPRmlConfig c;
  c.model_spec = r.str();
  c.kappa = r.f64();
  c.alpha = r.f64();
  c.pinv = r.f64();
  c.basefreq = r.str();
  c.gtr_rates = r.str();
  c.order_seed = r.u64();
  c.pendant_branch = r.f64();
  c.branch_tolerance = r.f64();
  c.eval_passes = r.i32();
  c.refine_passes = r.i32();
  c.full_refine_every = r.i32();
  c.use_eval_cache = r.boolean();
  c.nni_rounds = r.i32();
  c.cost_scale = r.f64();
  return c;
}
}  // namespace

void encode_dprml_result(ByteWriter& w, const DPRmlResult& r) {
  w.str(r.newick);
  w.f64(r.log_likelihood);
  w.f64_vec(r.stage_log_likelihoods);
}

DPRmlResult decode_dprml_result(ByteReader& r) {
  DPRmlResult out;
  out.newick = r.str();
  out.log_likelihood = r.f64();
  out.stage_log_likelihoods = r.f64_vec();
  return out;
}

void encode_init_unit(ByteWriter& w, const std::vector<std::string>& taxa) {
  w.u8(static_cast<std::uint8_t>(UnitKind::kInit));
  w.str_vec(taxa);
}

void encode_eval_unit(ByteWriter& w, const EvalUnitPayload& p) {
  w.u8(static_cast<std::uint8_t>(UnitKind::kEval));
  w.str(p.tree_newick);
  w.str(p.taxon);
  w.u32(static_cast<std::uint32_t>(p.edge_nodes.size()));
  for (int e : p.edge_nodes) w.i32(e);
}

void encode_refine_unit(ByteWriter& w, const std::string& newick, bool full,
                        const std::string& focus_taxon) {
  w.u8(static_cast<std::uint8_t>(UnitKind::kRefine));
  w.str(newick);
  w.boolean(full);
  w.str(focus_taxon);
}

// ---- eval cache ----

EvalCache& EvalCache::global() {
  static EvalCache cache;
  return cache;
}

std::optional<CachedEval> EvalCache::lookup(const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void EvalCache::store(const std::string& key, const CachedEval& value) {
  std::lock_guard lock(mutex_);
  map_[key] = value;
}

void EvalCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
}

std::size_t EvalCache::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

// ---- DataManager ----

DPRmlDataManager::DPRmlDataManager(phylo::Alignment alignment, DPRmlConfig config)
    : alignment_(std::move(alignment)), config_(std::move(config)) {
  alignment_.validate();
  if (alignment_.taxon_count() < 4) {
    throw InputError("DPRml: need at least 4 taxa (3-taxon trees are unique)");
  }
  order_ = alignment_.names;
  if (config_.order_seed != 0) {
    Rng rng(config_.order_seed);
    rng.shuffle(order_);
  }
  auto patterns = phylo::compress(alignment_);
  auto spec = phylo::ModelSpec::parse(config_.model_spec, config_.model_params());
  pattern_cost_ = static_cast<double>(patterns.patterns) *
                  static_cast<double>(spec.rates.category_count()) * 32.0 *
                  config_.cost_scale;
}

std::string DPRmlDataManager::algorithm_name() const { return kAlgorithmName; }

std::vector<std::byte> DPRmlDataManager::problem_data() const {
  ByteWriter w;
  encode_config_fields(w, config_);
  w.str(alignment_.to_fasta());
  return w.take();
}

double DPRmlDataManager::per_edge_cost() const {
  // One candidate = 3 branch optimisations on a tree with ~next_taxon_
  // leaves: nodes x pattern_cost x Brent evals x passes.
  double nodes = 2.0 * std::max(3, next_taxon_);
  return nodes * pattern_cost_ * kEvalsPerBranch * 3.0 * config_.eval_passes;
}

std::optional<dist::WorkUnit> DPRmlDataManager::next_unit(
    const dist::SizeHint& hint) {
  dist::WorkUnit unit;
  unit.stage = stage_;

  switch (phase_) {
    case Phase::kInit: {
      if (init_issued_) return std::nullopt;  // barrier on the init result
      init_issued_ = true;
      outstanding_ = 1;
      ByteWriter w;
      encode_init_unit(w, {order_[0], order_[1], order_[2]});
      unit.payload = w.take();
      unit.cost_ops = 3.0 * 6.0 * pattern_cost_ * kEvalsPerBranch;
      return unit;
    }
    case Phase::kEval: {
      if (pending_edges_.empty()) return std::nullopt;  // barrier
      auto batch = static_cast<std::size_t>(
          std::max(1.0, hint.target_ops / per_edge_cost()));
      batch = std::min(batch, pending_edges_.size());

      // Shared-tree layout: fixed fields in the payload, the stage's tree
      // in a content-addressed blob. Every batch of this stage references
      // the same blob, so donors download the tree once per stage.
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(UnitKind::kEvalShared));
      w.str(order_[static_cast<std::size_t>(next_taxon_)]);
      w.u32(static_cast<std::uint32_t>(batch));
      for (std::size_t i = 0; i < batch; ++i) w.i32(pending_edges_[i]);
      pending_edges_.erase(pending_edges_.begin(),
                           pending_edges_.begin() + static_cast<std::ptrdiff_t>(batch));
      unit.payload = w.take();
      unit.blobs.push_back(dist::make_work_blob(
          {as_bytes(current_tree_).begin(), as_bytes(current_tree_).end()}));
      unit.cost_ops = static_cast<double>(batch) * per_edge_cost();
      outstanding_ += 1;
      return unit;
    }
    case Phase::kRefine: {
      if (refine_issued_) return std::nullopt;
      refine_issued_ = true;
      outstanding_ = 1;
      ByteWriter w;
      encode_refine_unit(w, current_tree_, refine_full_,
                         order_[static_cast<std::size_t>(next_taxon_)]);
      unit.payload = w.take();
      // Local smoothing touches ~5 branches; a full pass touches them all.
      double branches = refine_full_ ? 2.0 * (next_taxon_ + 1) : 5.0;
      unit.cost_ops = branches * pattern_cost_ * kEvalsPerBranch *
                      config_.refine_passes * 2.0 * (next_taxon_ + 1);
      return unit;
    }
    case Phase::kNni: {
      if (pending_nni_.empty()) return std::nullopt;  // barrier
      auto batch = static_cast<std::size_t>(
          std::max(1.0, hint.target_ops / per_edge_cost()));
      batch = std::min(batch, pending_nni_.size());

      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(UnitKind::kNniEvalShared));
      w.u32(static_cast<std::uint32_t>(batch));
      for (std::size_t i = 0; i < batch; ++i) {
        w.i32(pending_nni_[i].edge_node);
        w.u8(static_cast<std::uint8_t>(pending_nni_[i].variant));
      }
      pending_nni_.erase(pending_nni_.begin(),
                         pending_nni_.begin() + static_cast<std::ptrdiff_t>(batch));
      unit.payload = w.take();
      unit.blobs.push_back(dist::make_work_blob(
          {as_bytes(current_tree_).begin(), as_bytes(current_tree_).end()}));
      unit.cost_ops = static_cast<double>(batch) * per_edge_cost();
      outstanding_ += 1;
      return unit;
    }
    case Phase::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

void DPRmlDataManager::start_nni_phase() {
  in_rearrangement_ = true;
  nni_rounds_done_ += 1;
  phase_ = Phase::kNni;
  stage_ += 1;
  auto tree = phylo::Tree::parse_newick(current_tree_);
  pending_nni_.clear();
  nni_scores_.clear();
  outstanding_ = 0;
  for (int edge : tree.internal_edges()) {
    pending_nni_.push_back({edge, 0});
    pending_nni_.push_back({edge, 1});
  }
  if (pending_nni_.empty()) phase_ = Phase::kDone;  // degenerate tiny tree
}

void DPRmlDataManager::start_eval_phase() {
  phase_ = Phase::kEval;
  stage_ += 1;
  auto tree = phylo::Tree::parse_newick(current_tree_);
  pending_edges_ = tree.edge_nodes();
  scores_.clear();
  outstanding_ = 0;
}

void DPRmlDataManager::accept_result(const dist::ResultUnit& result) {
  ByteReader r(result.payload);
  auto kind = static_cast<UnitKind>(r.u8());
  outstanding_ -= 1;

  switch (kind) {
    case UnitKind::kInit: {
      current_tree_ = r.str();
      current_logl_ = r.f64();
      r.expect_end();
      stage_logl_.push_back(current_logl_);
      start_eval_phase();
      break;
    }
    case UnitKind::kEval: {
      std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        CandidateScore s;
        s.edge_node = r.i32();
        s.log_likelihood = r.f64();
        s.leaf_bl = r.f64();
        s.mid_bl = r.f64();
        s.edge_bl = r.f64();
        scores_.push_back(s);
      }
      r.expect_end();
      if (outstanding_ == 0 && pending_edges_.empty()) {
        // Stage barrier cleared: pick the ML-best insertion point
        // (ties broken by edge id for determinism).
        if (scores_.empty()) throw Error("DPRml: eval stage with no scores");
        const CandidateScore* best = &scores_.front();
        for (const auto& s : scores_) {
          if (s.log_likelihood > best->log_likelihood ||
              (s.log_likelihood == best->log_likelihood &&
               s.edge_node < best->edge_node)) {
            best = &s;
          }
        }
        auto tree = phylo::Tree::parse_newick(current_tree_);
        int leaf = tree.insert_leaf_on_edge(
            best->edge_node, order_[static_cast<std::size_t>(next_taxon_)],
            std::max(best->leaf_bl, 1e-8));
        int mid = tree.parent(leaf);
        tree.set_branch_length(mid, std::max(best->mid_bl, 0.0));
        tree.set_branch_length(best->edge_node, std::max(best->edge_bl, 0.0));
        current_tree_ = tree.to_newick();
        current_logl_ = best->log_likelihood;
        stage_ += 1;
        // Periodic global smoothing (fastDNAml): every Nth insertion and
        // after the last one; other insertions continue straight to the
        // next taxon with the worker-optimised branch lengths applied.
        int inserted = next_taxon_ - 2;  // 1-based count of insertions
        bool full_due = (inserted % config_.full_refine_every == 0) ||
                        (next_taxon_ + 1 >= static_cast<int>(order_.size()));
        if (full_due) {
          phase_ = Phase::kRefine;
          refine_issued_ = false;
          refine_full_ = true;
        } else {
          stage_logl_.push_back(current_logl_);
          next_taxon_ += 1;
          start_eval_phase();
        }
      }
      break;
    }
    case UnitKind::kRefine: {
      current_tree_ = r.str();
      current_logl_ = r.f64();
      r.expect_end();
      stage_logl_.push_back(current_logl_);
      if (!in_rearrangement_) {
        next_taxon_ += 1;
        if (next_taxon_ < static_cast<int>(order_.size())) {
          start_eval_phase();
          break;
        }
      }
      // Stepwise insertion is finished (or a post-NNI smoothing landed):
      // keep rearranging while rounds remain, otherwise we are done.
      if (config_.nni_rounds > nni_rounds_done_) {
        start_nni_phase();
      } else {
        phase_ = Phase::kDone;
      }
      break;
    }
    case UnitKind::kNniEval: {
      std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        NniCandidate c;
        c.edge_node = r.i32();
        c.variant = r.u8();
        double logl = r.f64();
        nni_scores_.emplace_back(c, logl);
      }
      r.expect_end();
      if (outstanding_ == 0 && pending_nni_.empty()) {
        // Round barrier cleared: apply the best improving rearrangement.
        const std::pair<NniCandidate, double>* best = nullptr;
        for (const auto& cand : nni_scores_) {
          if (!best || cand.second > best->second ||
              (cand.second == best->second &&
               (cand.first.edge_node < best->first.edge_node ||
                (cand.first.edge_node == best->first.edge_node &&
                 cand.first.variant < best->first.variant)))) {
            best = &cand;
          }
        }
        if (best && best->second > current_logl_ + 1e-9) {
          auto tree = phylo::Tree::parse_newick(current_tree_);
          tree.nni(best->first.edge_node, best->first.variant);
          current_tree_ = tree.to_newick();
          current_logl_ = best->second;
          // Smooth the rearranged tree, then (maybe) go again.
          phase_ = Phase::kRefine;
          stage_ += 1;
          refine_issued_ = false;
          refine_full_ = true;
        } else {
          phase_ = Phase::kDone;  // local optimum: stop early
        }
      }
      break;
    }
    default:
      throw ProtocolError("DPRml: unknown result kind");
  }
}

bool DPRmlDataManager::is_complete() const { return phase_ == Phase::kDone; }

std::vector<std::byte> DPRmlDataManager::final_result() const {
  ByteWriter w;
  encode_dprml_result(w, result());
  return w.take();
}

DPRmlResult DPRmlDataManager::result() const {
  DPRmlResult r;
  r.newick = current_tree_;
  r.log_likelihood = current_logl_;
  r.stage_log_likelihoods = stage_logl_;
  return r;
}

double DPRmlDataManager::remaining_ops_estimate() const {
  double ops = 0;
  const int total = static_cast<int>(order_.size());
  for (int k = std::max(next_taxon_, 3); k < total; ++k) {
    double edges = 2.0 * k - 3.0;
    ops += edges * per_edge_cost();
  }
  return ops;
}

void DPRmlDataManager::snapshot(ByteWriter& w) const {
  w.str(current_tree_);
  w.f64(current_logl_);
  w.f64_vec(stage_logl_);
  w.u8(static_cast<std::uint8_t>(phase_));
  w.i32(next_taxon_);
  w.u32(stage_);
  w.u32(static_cast<std::uint32_t>(pending_edges_.size()));
  for (int e : pending_edges_) w.i32(e);
  w.i32(outstanding_);
  w.u32(static_cast<std::uint32_t>(scores_.size()));
  for (const auto& sc : scores_) {
    w.i32(sc.edge_node);
    w.f64(sc.log_likelihood);
    w.f64(sc.leaf_bl);
    w.f64(sc.mid_bl);
    w.f64(sc.edge_bl);
  }
  w.u32(static_cast<std::uint32_t>(pending_nni_.size()));
  for (const auto& c : pending_nni_) {
    w.i32(c.edge_node);
    w.u8(static_cast<std::uint8_t>(c.variant));
  }
  w.u32(static_cast<std::uint32_t>(nni_scores_.size()));
  for (const auto& [c, logl] : nni_scores_) {
    w.i32(c.edge_node);
    w.u8(static_cast<std::uint8_t>(c.variant));
    w.f64(logl);
  }
  w.boolean(in_rearrangement_);
  w.i32(nni_rounds_done_);
  w.boolean(init_issued_);
  w.boolean(refine_issued_);
  w.boolean(refine_full_);
}

void DPRmlDataManager::restore(ByteReader& r) {
  current_tree_ = r.str();
  current_logl_ = r.f64();
  stage_logl_ = r.f64_vec();
  phase_ = static_cast<Phase>(r.u8());
  next_taxon_ = r.i32();
  stage_ = r.u32();
  pending_edges_.resize(r.u32());
  for (auto& e : pending_edges_) e = r.i32();
  outstanding_ = r.i32();
  scores_.resize(r.u32());
  for (auto& sc : scores_) {
    sc.edge_node = r.i32();
    sc.log_likelihood = r.f64();
    sc.leaf_bl = r.f64();
    sc.mid_bl = r.f64();
    sc.edge_bl = r.f64();
  }
  pending_nni_.resize(r.u32());
  for (auto& c : pending_nni_) {
    c.edge_node = r.i32();
    c.variant = r.u8();
  }
  nni_scores_.resize(r.u32());
  for (auto& [c, logl] : nni_scores_) {
    c.edge_node = r.i32();
    c.variant = r.u8();
    logl = r.f64();
  }
  in_rearrangement_ = r.boolean();
  nni_rounds_done_ = r.i32();
  init_issued_ = r.boolean();
  refine_issued_ = r.boolean();
  refine_full_ = r.boolean();
}

// ---- Algorithm ----

void DPRmlAlgorithm::initialize(std::span<const std::byte> problem_data) {
  ByteReader r(problem_data);
  config_ = decode_config_fields(r);
  alignment_ = phylo::Alignment::from_fasta(r.str());
  r.expect_end();

  auto spec = phylo::ModelSpec::parse(config_.model_spec, config_.model_params());
  model_ = spec.model;
  rates_ = spec.rates;
  patterns_ = phylo::compress(alignment_);
  engine_ = std::make_unique<phylo::LikelihoodEngine>(*patterns_, model_, rates_);
  // 0=scalar 1=sse2 2=avx2 3=avx512: which partials-kernel tier the
  // likelihood engine will dispatch on this host (util/simd.hpp; avx512
  // runs the AVX2 partials combine).
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));

  // Cache keys must distinguish different problems (alignment + model).
  ByteWriter key;
  encode_config_fields(key, config_);
  key.str(alignment_.to_fasta());
  cache_prefix_ = std::to_string(net::blob_digest(key.data())) + "|";
}

namespace {

/// The shared tree of a kEvalShared/kNniEvalShared unit: the Newick bytes
/// of blobs[0].
std::string shared_tree_newick(const dist::WorkUnit& unit) {
  if (unit.blobs.empty()) {
    throw ProtocolError("DPRml shared-tree unit carries no tree blob");
  }
  const auto& b = unit.blobs.front().bytes;
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace

std::vector<std::byte> DPRmlAlgorithm::process(const dist::WorkUnit& unit) {
  if (!engine_) throw Error("DPRmlAlgorithm: process before initialize");
  ByteReader r(unit.payload);
  auto kind = static_cast<UnitKind>(r.u8());
  // Shared-tree units answer with the plain kind byte, so the
  // DataManager's merge path never sees the transport difference.
  UnitKind result_kind = kind;
  if (kind == UnitKind::kEvalShared) result_kind = UnitKind::kEval;
  if (kind == UnitKind::kNniEvalShared) result_kind = UnitKind::kNniEval;
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(result_kind));

  switch (kind) {
    case UnitKind::kInit: {
      auto taxa = r.str_vec();
      r.expect_end();
      if (taxa.size() != 3) throw ProtocolError("init unit needs 3 taxa");
      auto tree = phylo::Tree::three_taxon(taxa[0], taxa[1], taxa[2],
                                           config_.pendant_branch);
      double logl =
          engine_->optimize_all_branches(tree, config_.refine_passes,
                                         config_.branch_tolerance);
      out.str(tree.to_newick());
      out.f64(logl);
      break;
    }
    case UnitKind::kEval:
    case UnitKind::kEvalShared: {
      std::string newick, taxon;
      std::uint32_t n = 0;
      std::vector<int> edges;
      if (kind == UnitKind::kEval) {
        newick = r.str();
        taxon = r.str();
        n = r.u32();
        edges.resize(n);
        for (auto& e : edges) e = r.i32();
        r.expect_end();
      } else {
        taxon = r.str();
        n = r.u32();
        edges.resize(n);
        for (auto& e : edges) e = r.i32();
        r.expect_end();
        newick = shared_tree_newick(unit);
      }

      out.u32(n);
      auto emit = [&out](int edge, const CachedEval& e) {
        out.i32(edge);
        out.f64(e.log_likelihood);
        out.f64(e.leaf_bl);
        out.f64(e.mid_bl);
        out.f64(e.edge_bl);
      };
      for (int edge : edges) {
        std::string key;
        if (config_.use_eval_cache) {
          key = cache_prefix_ + newick + "|" + taxon + "|" + std::to_string(edge);
          if (auto hit = EvalCache::global().lookup(key)) {
            emit(edge, *hit);
            continue;
          }
        }
        auto tree = phylo::Tree::parse_newick(newick);
        int leaf = tree.insert_leaf_on_edge(edge, taxon, config_.pendant_branch);
        int mid = tree.parent(leaf);
        // Optimise the three branches the insertion created/changed
        // (fastDNAml's local optimisation when scoring a placement).
        std::array<int, 3> local = {leaf, mid, edge};
        CachedEval e;
        e.log_likelihood = engine_->optimize_branches(
            tree, local, config_.eval_passes, config_.branch_tolerance);
        e.leaf_bl = tree.branch_length(leaf);
        e.mid_bl = tree.branch_length(mid);
        e.edge_bl = tree.branch_length(edge);
        if (config_.use_eval_cache) EvalCache::global().store(key, e);
        emit(edge, e);
      }
      break;
    }
    case UnitKind::kNniEval:
    case UnitKind::kNniEvalShared: {
      std::string newick;
      std::uint32_t n = 0;
      std::vector<NniCandidate> cands;
      if (kind == UnitKind::kNniEval) {
        newick = r.str();
        n = r.u32();
        cands.resize(n);
        for (auto& c : cands) {
          c.edge_node = r.i32();
          c.variant = r.u8();
        }
        r.expect_end();
      } else {
        n = r.u32();
        cands.resize(n);
        for (auto& c : cands) {
          c.edge_node = r.i32();
          c.variant = r.u8();
        }
        r.expect_end();
        newick = shared_tree_newick(unit);
      }

      out.u32(n);
      for (const auto& c : cands) {
        std::string key;
        if (config_.use_eval_cache) {
          key = cache_prefix_ + "N|" + newick + "|" +
                std::to_string(c.edge_node) + "|" + std::to_string(c.variant);
          if (auto hit = EvalCache::global().lookup(key)) {
            out.i32(c.edge_node);
            out.u8(static_cast<std::uint8_t>(c.variant));
            out.f64(hit->log_likelihood);
            continue;
          }
        }
        auto tree = phylo::Tree::parse_newick(newick);
        tree.nni(c.edge_node, c.variant);
        // Optimise the swapped edge and its surroundings.
        std::vector<int> local = {c.edge_node};
        if (tree.parent(c.edge_node) != tree.root()) {
          local.push_back(tree.parent(c.edge_node));
        }
        for (int child : tree.at(c.edge_node).children) local.push_back(child);
        double logl = engine_->optimize_branches(tree, local, config_.eval_passes,
                                                 config_.branch_tolerance);
        if (config_.use_eval_cache) {
          CachedEval e;
          e.log_likelihood = logl;
          EvalCache::global().store(key, e);
        }
        out.i32(c.edge_node);
        out.u8(static_cast<std::uint8_t>(c.variant));
        out.f64(logl);
      }
      break;
    }
    case UnitKind::kRefine: {
      std::string newick = r.str();
      bool full = r.boolean();
      std::string focus = r.str();
      r.expect_end();
      auto tree = phylo::Tree::parse_newick(newick);
      double logl;
      if (full) {
        logl = engine_->optimize_all_branches(tree, config_.refine_passes,
                                              config_.branch_tolerance);
      } else {
        // Local smoothing: the new pendant branch, the split edge halves,
        // and the edges adjacent to the insertion point.
        int leaf = tree.find_leaf(focus)
                       ? *tree.find_leaf(focus)
                       : throw ProtocolError("refine: focus taxon not in tree");
        int mid = tree.parent(leaf);
        std::vector<int> local = {leaf};
        if (mid != tree.root()) local.push_back(mid);
        for (int child : tree.at(mid).children) {
          if (child != leaf) local.push_back(child);
        }
        if (mid != tree.root() && tree.parent(mid) != tree.root()) {
          local.push_back(tree.parent(mid));
        }
        logl = engine_->optimize_branches(tree, local, config_.refine_passes,
                                          config_.branch_tolerance);
      }
      out.str(tree.to_newick());
      out.f64(logl);
      break;
    }
    default:
      throw ProtocolError("DPRml: unknown unit kind");
  }
  return out.take();
}

void register_algorithm() {
  dist::AlgorithmRegistry::global().replace(
      kAlgorithmName, [] { return std::make_unique<DPRmlAlgorithm>(); });
}

DPRmlResult build_tree_serial(const phylo::Alignment& alignment,
                              const DPRmlConfig& config) {
  register_algorithm();
  DPRmlDataManager dm(alignment, config);
  auto bytes = dist::run_locally(dm, 1e18);
  ByteReader r{std::span<const std::byte>(bytes)};
  auto result = decode_dprml_result(r);
  r.expect_end();
  return result;
}

}  // namespace hdcs::dprml
