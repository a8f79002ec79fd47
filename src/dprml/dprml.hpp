#pragma once
// DPRml: Distributed Phylogeny Reconstruction by Maximum Likelihood
// (paper §3.2; Keane et al., Bioinformatics 2004 [9]).
//
// Stepwise insertion (the "already proven tree building algorithm" of
// fastDNAml [11, 16]) as a staged distributed computation:
//
//   stage 0            one unit: optimise the unique 3-taxon tree.
//   stage 3k+1 (eval)  taxon k is tried against every edge of the current
//                      tree; edges are batched into dynamically sized units
//                      and each candidate insertion is scored by ML on a
//                      donor machine. Barrier: the best edge can only be
//                      chosen once every batch has reported.
//   every Nth insertion (and the last): one "refine" unit re-optimises
//                      all branch lengths of the accepted tree (fastDNAml's
//                      periodic global smoothing). Other insertions apply
//                      the winner's locally-optimised branch lengths
//                      directly, with no extra barrier.
//   ... until all taxa are inserted; the final refined tree is the result.
//
// The stage barriers are why a single DPRml instance leaves donors idle
// ("DPRml is a staged computation so running a single instance of the
// application will result in clients becoming idle whilst waiting for
// stages to be completed") and why Fig. 2 measures six instances running
// simultaneously — the scheduler interleaves their units.

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"
#include "phylo/likelihood.hpp"
#include "util/byte_buffer.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace hdcs::dprml {

inline constexpr const char* kAlgorithmName = "dprml";

struct DPRmlConfig {
  std::string model_spec = "HKY85+G4";
  double kappa = 2.0;
  double alpha = 0.5;
  double pinv = 0.1;          // used only with +I
  std::string basefreq;       // "a,c,g,t"; empty = equal
  std::string gtr_rates;      // 6 values; empty = all 1
  /// Taxon addition order: 0 = alignment order, else shuffle seed.
  std::uint64_t order_seed = 0;
  double pendant_branch = 0.1;     // initial length for a new leaf
  double branch_tolerance = 1e-3;  // Brent x-tolerance
  int eval_passes = 1;             // optimisation sweeps when scoring a candidate
  int refine_passes = 2;           // sweeps in the refine stage
  /// fastDNAml-style smoothing schedule: most insertions are followed by a
  /// *local* refine (the branches around the new leaf); every Nth
  /// insertion — and the last one — triggers a full-tree re-optimisation.
  int full_refine_every = 5;
  /// Enable the process-wide candidate evaluation cache (deterministic
  /// function of payload; shared across simulator sweep runs).
  bool use_eval_cache = true;
  /// Rounds of NNI (nearest-neighbour-interchange) rearrangement after the
  /// last insertion: each round scores every NNI neighbour of the current
  /// tree on the donors, applies the best if it improves the likelihood,
  /// then re-smooths. 0 disables (plain stepwise insertion). This is the
  /// "local rearrangements" option of the fastDNAml family [11, 16].
  int nni_rounds = 0;
  /// Simulation workload magnifier: multiplies every unit's virtual
  /// cost_ops (the alignment *appears* cost_scale times longer to the
  /// scheduler/simulator) without changing what is computed. 1.0 for real
  /// deployments; see DESIGN.md on scaled-world simulation.
  double cost_scale = 1.0;

  static DPRmlConfig from_config(const Config& cfg);
  /// The Config carrying the model's numeric parameters.
  [[nodiscard]] Config model_params() const;
};

/// One candidate insertion score (eval unit results). The optimised local
/// branch lengths ride along so the master can apply the winning insertion
/// without re-computing anything (parallel fastDNAml's protocol [16]).
struct CandidateScore {
  int edge_node = -1;
  double log_likelihood = 0;
  double leaf_bl = 0;  // pendant branch of the new taxon
  double mid_bl = 0;   // upper half of the split edge
  double edge_bl = 0;  // lower half of the split edge
};

/// One NNI rearrangement candidate: swap `variant` across the internal
/// edge above `edge_node`.
struct NniCandidate {
  int edge_node = -1;
  int variant = 0;
};

/// Final output of a DPRml run.
struct DPRmlResult {
  std::string newick;
  double log_likelihood = 0;
  std::vector<double> stage_log_likelihoods;  // after each refine
};

void encode_dprml_result(ByteWriter& w, const DPRmlResult& r);
DPRmlResult decode_dprml_result(ByteReader& r);

/// Serial reference: full stepwise-insertion run in-process.
DPRmlResult build_tree_serial(const phylo::Alignment& alignment,
                              const DPRmlConfig& config);

class DPRmlDataManager final : public dist::DataManager {
 public:
  DPRmlDataManager(phylo::Alignment alignment, DPRmlConfig config);

  [[nodiscard]] std::string algorithm_name() const override;
  [[nodiscard]] std::vector<std::byte> problem_data() const override;
  std::optional<dist::WorkUnit> next_unit(const dist::SizeHint& hint) override;
  void accept_result(const dist::ResultUnit& result) override;
  [[nodiscard]] bool is_complete() const override;
  [[nodiscard]] std::vector<std::byte> final_result() const override;
  [[nodiscard]] double remaining_ops_estimate() const override;

  [[nodiscard]] DPRmlResult result() const;
  [[nodiscard]] int taxa_inserted() const { return next_taxon_; }

  [[nodiscard]] bool supports_snapshot() const override { return true; }
  void snapshot(ByteWriter& w) const override;
  void restore(ByteReader& r) override;

 private:
  enum class Phase { kInit, kEval, kRefine, kNni, kDone };

  void start_eval_phase();
  void start_nni_phase();
  [[nodiscard]] double per_edge_cost() const;

  phylo::Alignment alignment_;
  DPRmlConfig config_;
  std::vector<std::string> order_;   // taxon insertion order
  std::string current_tree_;         // refined Newick of the accepted tree
  double current_logl_ = 0;
  std::vector<double> stage_logl_;

  Phase phase_ = Phase::kInit;
  int next_taxon_ = 3;               // index into order_ of the taxon being added
  std::uint32_t stage_ = 0;
  std::vector<int> pending_edges_;   // eval phase: edges not yet handed out
  int outstanding_ = 0;
  std::vector<CandidateScore> scores_;  // eval phase: collected candidates
  std::vector<NniCandidate> pending_nni_;   // NNI phase: not yet handed out
  std::vector<std::pair<NniCandidate, double>> nni_scores_;
  bool in_rearrangement_ = false;
  int nni_rounds_done_ = 0;
  bool init_issued_ = false;
  bool refine_issued_ = false;
  bool refine_full_ = false;         // current refine: full or local smoothing
  double pattern_cost_ = 0;          // cached cost basis
};

class DPRmlAlgorithm final : public dist::Algorithm {
 public:
  void initialize(std::span<const std::byte> problem_data) override;
  std::vector<std::byte> process(const dist::WorkUnit& unit) override;

 private:
  std::optional<phylo::PatternAlignment> patterns_;
  phylo::Alignment alignment_;
  DPRmlConfig config_;
  std::shared_ptr<const phylo::SubstModel> model_;
  phylo::RateModel rates_;
  std::unique_ptr<phylo::LikelihoodEngine> engine_;
  std::string cache_prefix_;  // problem identity for the global eval cache
};

/// Register DPRmlAlgorithm under kAlgorithmName (idempotent).
void register_algorithm();

// ---- unit payload kinds (exposed for tests) ----
enum class UnitKind : std::uint8_t {
  kInit = 0,
  kEval = 1,
  kRefine = 2,
  kNniEval = 3,
  /// Blob-backed eval/NNI variants: the fixed fields stay in the payload
  /// and the shared tree Newick rides in blobs[0] — every batch of the
  /// same stage references one interned blob, so a donor downloads the
  /// tree once per stage instead of once per unit. Results are reported
  /// with the plain kEval/kNniEval kind byte.
  kEvalShared = 4,
  kNniEvalShared = 5,
};

struct EvalUnitPayload {
  std::string tree_newick;
  std::string taxon;
  std::vector<int> edge_nodes;
};

void encode_init_unit(ByteWriter& w, const std::vector<std::string>& taxa);
void encode_eval_unit(ByteWriter& w, const EvalUnitPayload& p);
/// full=false: local smoothing around `focus_taxon` (the just-inserted leaf).
void encode_refine_unit(ByteWriter& w, const std::string& newick, bool full,
                        const std::string& focus_taxon);

/// Cached candidate evaluation: score + optimised local branch lengths.
struct CachedEval {
  double log_likelihood = 0;
  double leaf_bl = 0;
  double mid_bl = 0;
  double edge_bl = 0;
};

/// Process-wide candidate score cache: (problem, tree, taxon, edge) ->
/// CachedEval. Deterministic, so safe to share across problems and
/// simulator runs.
class EvalCache {
 public:
  static EvalCache& global();
  std::optional<CachedEval> lookup(const std::string& key) const;
  void store(const std::string& key, const CachedEval& value);
  void clear();
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, CachedEval> map_;
};

}  // namespace hdcs::dprml
