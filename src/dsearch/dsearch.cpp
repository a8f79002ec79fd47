#include "dsearch/dsearch.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace hdcs::dsearch {

DSearchConfig DSearchConfig::from_config(const Config& cfg) {
  DSearchConfig c;
  c.mode = bio::parse_align_mode(cfg.get_str("algorithm", "local"));
  c.scoring = to_lower(cfg.get_str("scoring", "blosum62"));
  c.gap_open = static_cast<int>(cfg.get_i64("gap_open", -1));
  c.gap_extend = static_cast<int>(cfg.get_i64("gap_extend", -1));
  auto top_k = cfg.get_i64("top_k", 20);
  if (top_k < 1) throw InputError("top_k must be >= 1");
  c.top_k = static_cast<std::size_t>(top_k);
  auto band = cfg.get_i64("band", 16);
  if (band < 1) throw InputError("band must be >= 1");
  c.band = static_cast<std::size_t>(band);
  c.cost_scale = cfg.get_f64("cost_scale", 1.0);
  if (c.cost_scale <= 0) throw InputError("cost_scale must be > 0");
  (void)c.make_scheme();  // validate the scoring name early
  return c;
}

bio::ScoringScheme DSearchConfig::make_scheme() const {
  return bio::ScoringScheme::from_name(scoring, gap_open, gap_extend);
}

double QueryScoreStats::stddev() const {
  if (count < 2) return 0;
  double m = mean();
  double var = sum_squares / static_cast<double>(count) - m * m;
  return var > 0 ? std::sqrt(var) : 0;
}

double QueryScoreStats::z_score(double score) const {
  double sd = stddev();
  if (sd <= 0) return 0;
  return (score - mean()) / sd;
}

// ---- wire helpers ----

void encode_config(ByteWriter& w, const DSearchConfig& config) {
  w.u8(static_cast<std::uint8_t>(config.mode));
  w.str(config.scoring);
  w.i32(config.gap_open);
  w.i32(config.gap_extend);
  w.u32(static_cast<std::uint32_t>(config.top_k));
  w.u32(static_cast<std::uint32_t>(config.band));
  w.f64(config.cost_scale);
}

DSearchConfig decode_config(ByteReader& r) {
  DSearchConfig c;
  c.mode = static_cast<bio::AlignMode>(r.u8());
  c.scoring = r.str();
  c.gap_open = r.i32();
  c.gap_extend = r.i32();
  c.top_k = r.u32();
  c.band = r.u32();
  c.cost_scale = r.f64();
  return c;
}

void encode_sequences(ByteWriter& w, const std::vector<bio::Sequence>& seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (const auto& s : seqs) {
    w.str(s.id);
    w.str(s.residues);
  }
}

std::vector<bio::Sequence> decode_sequences(ByteReader& r) {
  std::uint32_t n = r.u32();
  std::vector<bio::Sequence> seqs;
  seqs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    bio::Sequence s;
    s.id = r.str();
    s.residues = r.str();
    seqs.push_back(std::move(s));
  }
  return seqs;
}

void encode_result(ByteWriter& w, const SearchResult& result) {
  w.u32(static_cast<std::uint32_t>(result.size()));
  for (const auto& hits : result) {
    w.u32(static_cast<std::uint32_t>(hits.size()));
    for (const auto& h : hits) {
      w.str(h.db_id);
      w.i64(h.score);
    }
  }
}

SearchResult decode_result(ByteReader& r) {
  SearchResult result(r.u32());
  for (auto& hits : result) {
    hits.resize(r.u32());
    for (auto& h : hits) {
      h.db_id = r.str();
      h.score = r.i64();
    }
  }
  return result;
}

void encode_stats(ByteWriter& w, const std::vector<QueryScoreStats>& stats) {
  w.u32(static_cast<std::uint32_t>(stats.size()));
  for (const auto& s : stats) {
    w.u64(s.count);
    w.f64(s.sum);
    w.f64(s.sum_squares);
  }
}

std::vector<QueryScoreStats> decode_stats(ByteReader& r) {
  std::vector<QueryScoreStats> stats(r.u32());
  for (auto& s : stats) {
    s.count = r.u64();
    s.sum = r.f64();
    s.sum_squares = r.f64();
  }
  return stats;
}

void merge_topk(SearchResult& accumulated, const SearchResult& incoming,
                std::size_t top_k) {
  if (accumulated.size() != incoming.size()) {
    throw Error("merge_topk: query count mismatch");
  }
  for (std::size_t q = 0; q < accumulated.size(); ++q) {
    auto& acc = accumulated[q];
    acc.insert(acc.end(), incoming[q].begin(), incoming[q].end());
    std::sort(acc.begin(), acc.end());
    if (acc.size() > top_k) acc.resize(top_k);
  }
}

namespace {

/// Query profiles are built once per problem and shared read-only by every
/// block/thread (QueryProfile is immutable after construction).
std::vector<bio::QueryProfile> build_profiles(
    const std::vector<bio::Sequence>& queries,
    const bio::ScoringScheme& scheme) {
  std::vector<bio::QueryProfile> profiles;
  profiles.reserve(queries.size());
  for (const auto& q : queries) profiles.emplace_back(q.residues, scheme);
  return profiles;
}

/// Raw scores for database sequences [begin, end): scores[q][i - begin] is
/// profile q vs chunk[i]. The unit of work handed to pool threads.
struct BlockScores {
  std::vector<std::vector<std::int64_t>> scores;
  bio::BatchMetrics metrics;
};

BlockScores score_block(const std::vector<bio::QueryProfile>& profiles,
                        const std::vector<bio::Sequence>& chunk,
                        std::size_t begin, std::size_t end,
                        const DSearchConfig& config,
                        const bio::ScoringScheme& scheme) {
  // DP scratch is reused across blocks, chunks, and queries by each thread.
  static thread_local bio::AlignScratch scratch;
  BlockScores out;
  std::vector<std::string_view> views;
  views.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    views.emplace_back(chunk[i].residues);
  }
  out.scores.reserve(profiles.size());
  for (const auto& profile : profiles) {
    out.scores.push_back(bio::batch_align_scores(config.mode, profile, views,
                                                 scheme, config.band, scratch,
                                                 &out.metrics));
  }
  return out;
}

/// Score one chunk of database sequences against all queries; returns
/// per-query top-k (already sorted). With a pool, database sequences are
/// split into contiguous blocks scored concurrently and merged back in
/// database order; scores are integers (exact as doubles), so stats sums
/// and the hit ranking — hence the encoded payload — are byte-identical
/// for every thread count.
SearchResult search_chunk(const std::vector<bio::QueryProfile>& profiles,
                          const std::vector<bio::Sequence>& chunk,
                          const DSearchConfig& config,
                          const bio::ScoringScheme& scheme,
                          std::vector<QueryScoreStats>* stats = nullptr,
                          bio::BatchMetrics* metrics = nullptr,
                          ThreadPool* pool = nullptr) {
  std::vector<BlockScores> blocks;
  std::size_t n_blocks =
      pool ? std::min(pool->size(), chunk.size()) : std::size_t{1};
  if (n_blocks > 1) {
    // Contiguous split; block boundaries only affect which thread computes
    // a score, never its value or its merge position.
    std::vector<std::future<BlockScores>> futures;
    futures.reserve(n_blocks);
    std::size_t per_block = (chunk.size() + n_blocks - 1) / n_blocks;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      std::size_t begin = std::min(b * per_block, chunk.size());
      std::size_t end = std::min(begin + per_block, chunk.size());
      futures.push_back(pool->submit_with_result(
          [&profiles, &chunk, begin, end, &config, &scheme] {
            return score_block(profiles, chunk, begin, end, config, scheme);
          }));
    }
    blocks.reserve(n_blocks);
    for (auto& f : futures) blocks.push_back(f.get());
  } else {
    blocks.push_back(
        score_block(profiles, chunk, 0, chunk.size(), config, scheme));
  }

  SearchResult result(profiles.size());
  if (stats) stats->assign(profiles.size(), QueryScoreStats{});
  std::size_t base = 0;
  for (const auto& block : blocks) {
    for (std::size_t q = 0; q < profiles.size(); ++q) {
      const auto& scores = block.scores[q];
      auto& hits = result[q];
      for (std::size_t i = 0; i < scores.size(); ++i) {
        Hit hit;
        hit.db_id = chunk[base + i].id;
        hit.score = scores[i];
        if (stats) (*stats)[q].add(static_cast<double>(hit.score));
        hits.push_back(std::move(hit));
      }
    }
    base += block.scores.empty() ? 0 : block.scores[0].size();
    if (metrics) {
      metrics->cells += block.metrics.cells;
      metrics->saturations += block.metrics.saturations;
    }
  }
  for (auto& hits : result) {
    std::sort(hits.begin(), hits.end());
    if (hits.size() > config.top_k) hits.resize(config.top_k);
  }
  return result;
}

}  // namespace

SearchResult search_serial(const std::vector<bio::Sequence>& queries,
                           const std::vector<bio::Sequence>& database,
                           const DSearchConfig& config,
                           std::vector<QueryScoreStats>* stats) {
  auto scheme = config.make_scheme();
  auto profiles = build_profiles(queries, scheme);
  return search_chunk(profiles, database, config, scheme, stats);
}

// ---- DataManager ----

DSearchDataManager::DSearchDataManager(std::vector<bio::Sequence> queries,
                                       std::vector<bio::Sequence> database,
                                       DSearchConfig config)
    : queries_(std::move(queries)),
      database_(std::move(database)),
      config_(std::move(config)),
      merged_(queries_.size()),
      stats_(queries_.size()) {
  if (queries_.empty()) throw InputError("DSEARCH: no query sequences");
  if (database_.empty()) throw InputError("DSEARCH: empty database");
  total_query_len_ = bio::total_residues(queries_);
  if (total_query_len_ == 0) throw InputError("DSEARCH: empty queries");
}

std::string DSearchDataManager::algorithm_name() const { return kAlgorithmName; }

std::vector<std::byte> DSearchDataManager::problem_data() const {
  ByteWriter w;
  encode_config(w, config_);
  encode_sequences(w, queries_);
  return w.take();
}

std::optional<dist::WorkUnit> DSearchDataManager::next_unit(
    const dist::SizeHint& hint) {
  if (cursor_ >= database_.size()) return std::nullopt;

  // Dynamically sized chunk: accumulate database sequences until the DP
  // cell count reaches the scheduler's target for this donor.
  std::size_t begin = cursor_;
  double cost = 0;
  while (cursor_ < database_.size()) {
    double seq_cost = config_.cost_scale *
                      bio::alignment_cost_ops(total_query_len_,
                                              database_[cursor_].length());
    if (cursor_ > begin && cost + seq_cost > hint.target_ops) break;
    cost += seq_cost;
    ++cursor_;
  }

  dist::WorkUnit unit;
  unit.stage = 0;
  unit.cost_ops = cost;
  ByteWriter w;
  std::vector<bio::Sequence> chunk(database_.begin() + begin,
                                   database_.begin() + cursor_);
  encode_sequences(w, chunk);
  // The chunk rides as a content-addressed blob (empty payload): replicas
  // of this unit — and re-issues after a lease expiry — share one download
  // through the donor cache.
  unit.blobs.push_back(dist::make_work_blob(w.take()));
  ++outstanding_;
  return unit;
}

void DSearchDataManager::accept_result(const dist::ResultUnit& result) {
  ByteReader r(result.payload);
  auto chunk_result = decode_result(r);
  auto chunk_stats = decode_stats(r);
  r.expect_end();
  merge_topk(merged_, chunk_result, config_.top_k);
  if (chunk_stats.size() != stats_.size()) {
    throw Error("DSEARCH: stats query-count mismatch");
  }
  for (std::size_t q = 0; q < stats_.size(); ++q) {
    stats_[q].merge(chunk_stats[q]);
  }
  --outstanding_;
}

bool DSearchDataManager::is_complete() const {
  return cursor_ >= database_.size() && outstanding_ == 0;
}

std::vector<std::byte> DSearchDataManager::final_result() const {
  ByteWriter w;
  encode_result(w, merged_);
  encode_stats(w, stats_);
  return w.take();
}

double DSearchDataManager::remaining_ops_estimate() const {
  double ops = 0;
  for (std::size_t i = cursor_; i < database_.size(); ++i) {
    ops += bio::alignment_cost_ops(total_query_len_, database_[i].length());
  }
  return ops * config_.cost_scale;
}

SearchResult DSearchDataManager::result() const { return merged_; }

void DSearchDataManager::snapshot(ByteWriter& w) const {
  w.u64(cursor_);
  w.i32(outstanding_);
  encode_result(w, merged_);
  encode_stats(w, stats_);
}

void DSearchDataManager::restore(ByteReader& r) {
  cursor_ = r.u64();
  outstanding_ = r.i32();
  merged_ = decode_result(r);
  stats_ = decode_stats(r);
}

// ---- Algorithm ----

void DSearchAlgorithm::initialize(std::span<const std::byte> problem_data) {
  ByteReader r(problem_data);
  config_ = decode_config(r);
  queries_ = decode_sequences(r);
  r.expect_end();
  scheme_ = config_.make_scheme();
  profiles_ = build_profiles(queries_, *scheme_);
  // 0=scalar 1=sse2 2=avx2 3=avx512: which alignment-kernel tier
  // chunk_search will dispatch on this host (util/simd.hpp).
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));
}

void DSearchAlgorithm::set_parallelism(std::size_t threads) {
  threads_ = std::max<std::size_t>(threads, 1);
  if (threads_ <= 1) pool_.reset();
}

std::vector<std::byte> DSearchAlgorithm::process(const dist::WorkUnit& unit) {
  if (!scheme_) throw Error("DSearchAlgorithm: process before initialize");
  if (unit.blobs.empty()) {
    throw ProtocolError("DSEARCH unit carries no chunk blob");
  }
  ByteReader r(unit.blobs.front().bytes);
  auto chunk = decode_sequences(r);
  r.expect_end();
  if (threads_ > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  std::vector<QueryScoreStats> stats;
  bio::BatchMetrics metrics;
  auto result = search_chunk(profiles_, chunk, config_, *scheme_, &stats,
                             &metrics, pool_.get());
  auto& reg = obs::Registry::global();
  reg.counter("align.cells_total").inc(metrics.cells);
  reg.counter("align.batch_saturations").inc(metrics.saturations);
  ByteWriter w;
  encode_result(w, result);
  encode_stats(w, stats);
  return w.take();
}

void register_algorithm() {
  dist::AlgorithmRegistry::global().replace(
      kAlgorithmName, [] { return std::make_unique<DSearchAlgorithm>(); });
}

}  // namespace hdcs::dsearch
