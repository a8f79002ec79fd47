#include "dsearch/dsearch.hpp"

#include <gtest/gtest.h>

#include "bio/seqgen.hpp"
#include "dist/local_runner.hpp"
#include "dist/scheduler_core.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hdcs::dsearch {
namespace {

struct Workload {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
};

Workload make_workload(std::uint64_t seed, std::size_t db_size = 60,
                       std::size_t n_queries = 2) {
  Rng rng(seed);
  Workload w;
  w.queries = bio::make_queries(rng, n_queries, 80, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = db_size;
  spec.mean_length = 100;
  spec.planted_homologs_per_query = 4;
  w.database = bio::make_database(rng, spec, w.queries);
  return w;
}

DSearchConfig default_config() {
  DSearchConfig c;
  c.mode = bio::AlignMode::kLocal;
  c.scoring = "blosum62";
  c.top_k = 10;
  return c;
}

TEST(DSearchConfig, ParsesFromConfigFile) {
  auto cfg = Config::parse(
      "algorithm = smith-waterman\n"
      "scoring = pam250\n"
      "gap_open = 8\n"
      "gap_extend = 2\n"
      "top_k = 5\n");
  auto c = DSearchConfig::from_config(cfg);
  EXPECT_EQ(c.mode, bio::AlignMode::kLocal);
  EXPECT_EQ(c.scoring, "pam250");
  EXPECT_EQ(c.top_k, 5u);
  auto scheme = c.make_scheme();
  EXPECT_EQ(scheme.gap_open(), 8);
  EXPECT_EQ(scheme.gap_extend(), 2);
}

TEST(DSearchConfig, DefaultsAndValidation) {
  auto c = DSearchConfig::from_config(Config::parse(""));
  EXPECT_EQ(c.mode, bio::AlignMode::kLocal);
  EXPECT_EQ(c.scoring, "blosum62");
  EXPECT_THROW(DSearchConfig::from_config(Config::parse("top_k = 0\n")), InputError);
  EXPECT_THROW(DSearchConfig::from_config(Config::parse("scoring = nope\n")),
               InputError);
  EXPECT_THROW(DSearchConfig::from_config(Config::parse("algorithm = warp\n")),
               InputError);
}

TEST(DSearchSerial, PlantedHomologsRankTop) {
  auto w = make_workload(1);
  auto result = search_serial(w.queries, w.database, default_config());
  ASSERT_EQ(result.size(), w.queries.size());
  for (std::size_t q = 0; q < result.size(); ++q) {
    ASSERT_GE(result[q].size(), 4u);
    // The 4 planted homologs of query q must occupy the top 4 slots.
    for (int rank = 0; rank < 4; ++rank) {
      EXPECT_EQ(result[q][static_cast<std::size_t>(rank)].db_id.rfind(
                    "hom_" + std::to_string(q) + "_", 0),
                0u)
          << "query " << q << " rank " << rank << " = "
          << result[q][static_cast<std::size_t>(rank)].db_id;
    }
    // Ranked by score descending.
    for (std::size_t r = 1; r < result[q].size(); ++r) {
      EXPECT_GE(result[q][r - 1].score, result[q][r].score);
    }
  }
}

TEST(DSearchSerial, TopKRespected) {
  auto w = make_workload(2, 30, 1);
  auto config = default_config();
  config.top_k = 3;
  auto result = search_serial(w.queries, w.database, config);
  EXPECT_EQ(result[0].size(), 3u);
}

TEST(DSearchWire, SequencesRoundTrip) {
  auto w = make_workload(3, 5, 1);
  ByteWriter writer;
  encode_sequences(writer, w.database);
  ByteReader r(writer.data());
  auto decoded = decode_sequences(r);
  ASSERT_EQ(decoded.size(), w.database.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].id, w.database[i].id);
    EXPECT_EQ(decoded[i].residues, w.database[i].residues);
  }
}

TEST(DSearchWire, ConfigAndResultRoundTrip) {
  DSearchConfig c;
  c.mode = bio::AlignMode::kBanded;
  c.scoring = "pam250";
  c.gap_open = 7;
  c.top_k = 42;
  c.band = 9;
  ByteWriter w;
  encode_config(w, c);
  SearchResult result = {{{"id1", 100}, {"id2", -5}}, {}};
  encode_result(w, result);

  ByteReader r(w.data());
  auto c2 = decode_config(r);
  EXPECT_EQ(c2.mode, bio::AlignMode::kBanded);
  EXPECT_EQ(c2.scoring, "pam250");
  EXPECT_EQ(c2.gap_open, 7);
  EXPECT_EQ(c2.top_k, 42u);
  EXPECT_EQ(c2.band, 9u);
  auto r2 = decode_result(r);
  EXPECT_EQ(r2, result);
  r.expect_end();
}

TEST(DSearchMerge, TopKMergeIsExact) {
  // Merging chunked top-k lists equals computing top-k globally.
  SearchResult global(1);
  SearchResult merged(1);
  Rng rng(4);
  std::vector<Hit> all;
  for (int i = 0; i < 100; ++i) {
    all.push_back({"s" + std::to_string(i),
                   static_cast<std::int64_t>(rng.next_below(50))});
  }
  // Global top-10.
  global[0] = all;
  std::sort(global[0].begin(), global[0].end());
  global[0].resize(10);
  // Chunked in 7 uneven pieces, each pre-truncated to top-10.
  std::size_t pos = 0;
  std::size_t chunk_sizes[] = {3, 20, 1, 30, 16, 10, 20};
  for (std::size_t sz : chunk_sizes) {
    SearchResult piece(1);
    for (std::size_t i = 0; i < sz; ++i) piece[0].push_back(all[pos++]);
    std::sort(piece[0].begin(), piece[0].end());
    if (piece[0].size() > 10) piece[0].resize(10);
    merge_topk(merged, piece, 10);
  }
  ASSERT_EQ(pos, all.size());
  EXPECT_EQ(merged[0], global[0]);
}

TEST(DSearchMerge, MismatchedQueryCountThrows) {
  SearchResult a(2), b(3);
  EXPECT_THROW(merge_topk(a, b, 5), Error);
}

TEST(DSearchStats, MomentsAndZScores) {
  QueryScoreStats s;
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.z_score(10), 0.0);  // degenerate: no data
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.z_score(9.0), 2.0);

  // Merging equals adding everything to one accumulator.
  QueryScoreStats a, b, merged;
  for (double x : {1.0, 2.0, 3.0}) a.add(x);
  for (double x : {10.0, 20.0}) b.add(x);
  merged = a;
  merged.merge(b);
  QueryScoreStats direct;
  for (double x : {1.0, 2.0, 3.0, 10.0, 20.0}) direct.add(x);
  EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(merged.stddev(), direct.stddev());
}

TEST(DSearchStats, HomologsAreManySigmaAboveBackground) {
  // Use a larger database so the planted homologs don't dominate the
  // background variance themselves.
  auto w = make_workload(31, 300);
  std::vector<QueryScoreStats> stats;
  auto result = search_serial(w.queries, w.database, default_config(), &stats);
  ASSERT_EQ(stats.size(), w.queries.size());
  for (std::size_t q = 0; q < result.size(); ++q) {
    EXPECT_EQ(stats[q].count, w.database.size());
    // Top hit (a planted homolog) should be far out in the tail; a typical
    // background score should not.
    double top_z = stats[q].z_score(static_cast<double>(result[q][0].score));
    EXPECT_GT(top_z, 4.0) << "query " << q;
    double mid_z = stats[q].z_score(stats[q].mean());
    EXPECT_NEAR(mid_z, 0.0, 1e-9);
  }
}

TEST(DSearchStats, DistributedStatsMatchSerial) {
  auto w = make_workload(33);
  auto config = default_config();
  std::vector<QueryScoreStats> serial_stats;
  search_serial(w.queries, w.database, config, &serial_stats);

  register_algorithm();
  DSearchDataManager dm(w.queries, w.database, config);
  dist::run_locally(dm, 150000);  // several chunks
  const auto& dist_stats = dm.score_statistics();
  ASSERT_EQ(dist_stats.size(), serial_stats.size());
  for (std::size_t q = 0; q < dist_stats.size(); ++q) {
    EXPECT_EQ(dist_stats[q].count, serial_stats[q].count);
    EXPECT_DOUBLE_EQ(dist_stats[q].sum, serial_stats[q].sum);
    EXPECT_DOUBLE_EQ(dist_stats[q].sum_squares, serial_stats[q].sum_squares);
  }
}

TEST(DSearchDataManager, LocalRunMatchesSerial) {
  auto w = make_workload(5);
  auto config = default_config();
  auto serial = search_serial(w.queries, w.database, config);

  register_algorithm();
  DSearchDataManager dm(w.queries, w.database, config);
  dist::LocalRunStats stats;
  auto bytes = dist::run_locally(dm, 200000, &stats);
  ByteReader r{std::span<const std::byte>(bytes)};
  auto distributed = decode_result(r);
  EXPECT_EQ(distributed, serial);
  EXPECT_GT(stats.units, 1u) << "database should have been chunked";
}

TEST(DSearchAlgorithm, SetParallelismKeepsPayloadByteIdentical) {
  // Within-unit threading (donor --threads) must not change a single byte
  // of the submitted payload, for every alignment mode.
  auto w = make_workload(13);
  for (auto mode : {bio::AlignMode::kLocal, bio::AlignMode::kGlobal,
                    bio::AlignMode::kSemiGlobal, bio::AlignMode::kBanded}) {
    auto config = default_config();
    config.mode = mode;
    DSearchDataManager dm(w.queries, w.database, config);
    auto data = dm.problem_data();
    auto unit = dm.next_unit(dist::SizeHint{1e18});  // whole db, one unit
    ASSERT_TRUE(unit);

    DSearchAlgorithm serial_algo;
    serial_algo.initialize(data);
    auto serial_payload = serial_algo.process(*unit);

    DSearchAlgorithm threaded_algo;
    threaded_algo.initialize(data);
    threaded_algo.set_parallelism(3);
    EXPECT_EQ(threaded_algo.process(*unit), serial_payload)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(DSearchDataManager, ChunkSizesFollowHint) {
  auto w = make_workload(6, 100, 1);
  DSearchDataManager dm(w.queries, w.database, default_config());
  // Tiny hint -> single-sequence chunks; each unit carries >= 1 sequence.
  dist::SizeHint tiny{1.0};
  auto unit = dm.next_unit(tiny);
  ASSERT_TRUE(unit);
  // The chunk rides in the unit's content-addressed blob, not the payload.
  ASSERT_EQ(unit->blobs.size(), 1u);
  ByteReader r(unit->blobs[0].bytes);
  auto chunk = decode_sequences(r);
  EXPECT_EQ(chunk.size(), 1u);

  // Huge hint -> everything remaining in one chunk.
  dist::SizeHint huge{1e18};
  auto unit2 = dm.next_unit(huge);
  ASSERT_TRUE(unit2);
  ASSERT_EQ(unit2->blobs.size(), 1u);
  ByteReader r2(unit2->blobs[0].bytes);
  auto chunk2 = decode_sequences(r2);
  EXPECT_EQ(chunk2.size(), w.database.size() - 1);
  EXPECT_FALSE(dm.next_unit(huge).has_value());
  EXPECT_FALSE(dm.is_complete());  // results still outstanding
}

TEST(DSearchDataManager, CostProportionalToResidues) {
  auto w = make_workload(7, 50, 2);
  DSearchDataManager dm(w.queries, w.database, default_config());
  double total_cost = 0;
  dist::SizeHint hint{50000.0};
  while (auto unit = dm.next_unit(hint)) total_cost += unit->cost_ops;
  std::size_t q_len = bio::total_residues(w.queries);
  std::size_t db_len = bio::total_residues(w.database);
  EXPECT_DOUBLE_EQ(total_cost, static_cast<double>(q_len) * db_len);
  EXPECT_DOUBLE_EQ(dm.remaining_ops_estimate(), 0.0);
}

TEST(DSearchDataManager, InputValidation) {
  auto w = make_workload(8, 5, 1);
  EXPECT_THROW(DSearchDataManager({}, w.database, default_config()), InputError);
  EXPECT_THROW(DSearchDataManager(w.queries, {}, default_config()), InputError);
}

TEST(DSearchDistributed, SchedulerCoreMultiClientMatchesSerial) {
  auto w = make_workload(9);
  auto config = default_config();
  auto serial = search_serial(w.queries, w.database, config);

  register_algorithm();
  dist::SchedulerConfig scfg;
  scfg.lease_timeout = 1e6;
  scfg.bounds.min_ops = 1;
  dist::SchedulerCore core(scfg, std::make_unique<dist::AdaptiveThroughput>(1.0));
  auto dm = std::make_shared<DSearchDataManager>(w.queries, w.database, config);
  auto pid = core.submit_problem(dm);

  // Three simulated clients with different speeds pull work round-robin.
  auto c1 = core.client_joined("fast", 1e6, 0.0);
  auto c2 = core.client_joined("slow", 1e4, 0.0);
  auto c3 = core.client_joined("mid", 1e5, 0.0);
  auto data = dm->problem_data();

  DSearchAlgorithm a1, a2, a3;
  a1.initialize(data);
  a2.initialize(data);
  a3.initialize(data);
  DSearchAlgorithm* algos[] = {&a1, &a2, &a3};
  dist::ClientId clients[] = {c1, c2, c3};

  double t = 0;
  int turn = 0;
  while (!core.problem_complete(pid)) {
    auto cid = clients[turn % 3];
    auto* algo = algos[turn % 3];
    ++turn;
    auto unit = core.request_work(cid, t);
    if (!unit) continue;
    core.materialize_unit_blobs(*unit);
    dist::ResultUnit result;
    result.problem_id = unit->problem_id;
    result.unit_id = unit->unit_id;
    result.stage = unit->stage;
    result.epoch = unit->epoch;
    result.payload = algo->process(*unit);
    core.submit_result(cid, result, t + 0.5);
    t += 1;
  }
  EXPECT_EQ(dm->result(), serial);
  EXPECT_GT(core.stats().units_issued, 2u);
}

}  // namespace
}  // namespace hdcs::dsearch
