// The content-addressed bulk-data plane: LZ codec, donor blob cache,
// blob transfer, blob-backed application units, and the headline dedup
// property — a database chunk crosses the wire to a given donor at most
// once, even under replication and across server restarts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bio/seqgen.hpp"
#include "dist/client.hpp"
#include "dist/local_runner.hpp"
#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "net/blob_cache.hpp"
#include "net/bulk.hpp"
#include "net/compress.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "util/vfs.hpp"
#include "obs/metrics.hpp"
#include "phylo/simulate.hpp"
#include "sim/sim_driver.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hdcs {
namespace {

namespace fs = std::filesystem;

std::vector<std::byte> bytes_of(std::string_view s) {
  auto span = as_bytes(s);
  return {span.begin(), span.end()};
}

/// Repetitive text an LZ codec must shrink.
std::vector<std::byte> compressible_blob(std::size_t repeats) {
  std::string s;
  for (std::size_t i = 0; i < repeats; ++i) {
    s += "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ";
  }
  return bytes_of(s);
}

/// Uniform random bytes: incompressible by construction.
std::vector<std::byte> random_blob(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return v;
}

/// Loopback stream pair (same fixture shape as test_net.cpp).
struct Pair {
  net::TcpListener listener = net::TcpListener::bind(0);
  net::TcpStream client;
  net::TcpStream server;

  Pair() {
    std::thread t([&] {
      client = net::TcpStream::connect("127.0.0.1", listener.port());
    });
    auto accepted = listener.accept(2000);
    t.join();
    if (!accepted) throw IoError("accept timed out in test fixture");
    server = std::move(*accepted);
  }
};

/// Unique scratch directory under the build tree, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("hdcs_data_plane_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// ---------------------------------------------------------------- codec --

TEST(Compress, RoundTripsCompressibleData) {
  auto raw = compressible_blob(200);
  auto packed = net::lz_compress(raw);
  ASSERT_TRUE(packed.has_value());
  EXPECT_LT(packed->size(), raw.size());
  EXPECT_EQ(net::lz_decompress(*packed, raw.size()), raw);
}

TEST(Compress, IncompressibleDataReturnsNullopt) {
  auto raw = random_blob(7, 64 * 1024);
  EXPECT_EQ(net::lz_compress(raw), std::nullopt);
}

TEST(Compress, EmptyAndTinyInputs) {
  EXPECT_EQ(net::lz_compress(std::vector<std::byte>{}), std::nullopt);
  auto tiny = bytes_of("ab");
  EXPECT_EQ(net::lz_compress(tiny), std::nullopt);  // can't beat 2 bytes
  // But whatever compresses must round-trip, including 1-char runs.
  auto runs = bytes_of(std::string(500, 'A'));
  auto packed = net::lz_compress(runs);
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(net::lz_decompress(*packed, runs.size()), runs);
}

TEST(Compress, MalformedInputThrowsInsteadOfOverrunning) {
  auto raw = compressible_blob(50);
  auto packed = net::lz_compress(raw);
  ASSERT_TRUE(packed.has_value());

  // Wrong expected size: decoder must notice, not write out of range.
  EXPECT_THROW(net::lz_decompress(*packed, raw.size() + 1), ProtocolError);
  EXPECT_THROW(net::lz_decompress(*packed, raw.size() - 1), ProtocolError);

  // Truncations at every prefix length must throw, never crash.
  for (std::size_t keep = 0; keep < packed->size(); ++keep) {
    std::span<const std::byte> prefix(packed->data(), keep);
    EXPECT_THROW(net::lz_decompress(prefix, raw.size()), ProtocolError)
        << "prefix length " << keep;
  }

  // A match offset of zero (self-reference before any output) is invalid.
  // token: literal len 0, match len 4; offset u16 = 0.
  std::vector<std::byte> bad = {std::byte{0x00}, std::byte{0x00},
                                std::byte{0x00}};
  EXPECT_THROW(net::lz_decompress(bad, 4), ProtocolError);
}

TEST(Compress, FuzzedGarbageNeverCrashes) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    auto junk = random_blob(rng.next_u64(), 1 + rng.next_below(256));
    try {
      auto out = net::lz_decompress(junk, 128);
      EXPECT_EQ(out.size(), 128u);  // if it decodes, the contract holds
    } catch (const ProtocolError&) {
      // expected for most inputs
    }
  }
}

// ----------------------------------------------------------- blob cache --

TEST(BlobCache, LruEvictsOldestUnderMemoryBudget) {
  net::BlobCacheConfig cfg;
  cfg.memory_budget_bytes = 3000;
  net::BlobCache cache(cfg);

  std::vector<std::uint64_t> digests;
  for (int i = 0; i < 4; ++i) {
    auto blob = random_blob(1000 + i, 1000);
    digests.push_back(net::blob_digest(blob));
    cache.put(digests.back(), std::move(blob));
  }
  // 4 KB inserted into a 3 KB budget: the first blob is gone.
  EXPECT_LE(cache.memory_bytes(), cfg.memory_budget_bytes);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.get(digests[0]), std::nullopt);
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(cache.get(digests[i]).has_value()) << "blob " << i;
  }

  // Touch digest[1] (most recent now), insert another: digest[2] is LRU.
  ASSERT_TRUE(cache.get(digests[1]).has_value());
  auto blob = random_blob(2000, 1000);
  cache.put(net::blob_digest(blob), std::move(blob));
  EXPECT_EQ(cache.get(digests[2]), std::nullopt);
  EXPECT_TRUE(cache.get(digests[1]).has_value());
}

TEST(BlobCache, DiskTierSurvivesRestart) {
  ScratchDir dir("disk_tier");
  auto blob = compressible_blob(30);
  auto digest = net::blob_digest(blob);

  {
    net::BlobCacheConfig cfg;
    cfg.disk_dir = dir.path.string();
    net::BlobCache cache(cfg);
    cache.put(digest, blob);
  }
  // A fresh cache over the same directory adopts the blob.
  net::BlobCacheConfig cfg;
  cfg.disk_dir = dir.path.string();
  net::BlobCache revived(cfg);
  auto hit = revived.get(digest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, blob);
  EXPECT_EQ(revived.stats().hits, 1u);
}

TEST(BlobCache, CorruptDiskEntryDroppedThenRefetchable) {
  ScratchDir dir("corrupt");
  net::BlobCacheConfig cfg;
  cfg.memory_budget_bytes = 100;  // too small: force disk-only residence
  cfg.disk_dir = dir.path.string();
  net::BlobCache cache(cfg);

  auto blob = random_blob(5, 4096);
  auto digest = net::blob_digest(blob);
  cache.put(digest, blob);
  ASSERT_EQ(cache.memory_bytes(), 0u);  // evicted from memory immediately

  // Scribble on the cached file — the next get must detect the digest
  // mismatch, drop the entry and report a miss (caller re-fetches).
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.blob",
                static_cast<unsigned long long>(digest));
  {
    std::ofstream f(dir.path / name,
                    std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    f.put('\x5a');
  }
  EXPECT_EQ(cache.get(digest), std::nullopt);
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(fs::exists(dir.path / name));  // dropped, not left to rot

  // Re-fetch path: a fresh put restores service.
  cache.put(digest, blob);
  auto again = cache.get(digest);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, blob);
}

TEST(BlobCache, DiskWriteFailureCountedNeverTornOnDisk) {
  ScratchDir dir("disk_fault");
  net::BlobCacheConfig cfg;
  cfg.disk_dir = dir.path.string();
  net::BlobCache cache(cfg);
  auto blob = compressible_blob(31);
  auto digest = net::blob_digest(blob);
  {
    vfs::StorageFaultSpec spec;
    spec.write_error_prob = 1.0;
    spec.path_filter = "disk_fault";
    vfs::ScopedStorageFaultPlan scoped(spec);
    cache.put(digest, blob);  // disk tier fails; memory tier still serves
  }
  EXPECT_EQ(cache.stats().disk_write_failures, 1u);
  EXPECT_EQ(cache.disk_bytes(), 0u);  // nothing half-written was kept
  auto hit = cache.get(digest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, blob);
  // No tmp corpse and no torn .blob file in the directory.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ADD_FAILURE() << "unexpected file survived the failed disk put: "
                  << entry.path();
  }
  // A restart over the same directory sees a clean (empty) disk tier.
  net::BlobCache revived(cfg);
  EXPECT_EQ(revived.get(digest), std::nullopt);
}

TEST(BlobCache, DiskFaultStormNeverServesCorruptBlobs) {
  // Storms over the disk tier (torn renames included): every get() must
  // return either the true bytes or a miss — the digest re-check turns
  // whatever the storm left on disk into a re-fetch, never a wrong input.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScratchDir dir("disk_storm");
    net::BlobCacheConfig cfg;
    cfg.memory_budget_bytes = 4096;  // small: force disk round-trips
    cfg.disk_dir = dir.path.string();
    net::BlobCache cache(cfg);
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> blobs;
    for (int i = 0; i < 8; ++i) {
      auto blob = random_blob(seed * 100 + static_cast<std::uint64_t>(i), 2048);
      blobs.emplace_back(net::blob_digest(blob), blob);
    }
    {
      vfs::StorageFaultSpec spec;
      spec.seed = seed;
      spec.write_error_prob = 0.2;
      spec.short_write_prob = 0.15;
      spec.sync_error_prob = 0.2;
      spec.rename_error_prob = 0.15;
      spec.torn_rename_prob = 0.2;
      spec.path_filter = "disk_storm";
      vfs::ScopedStorageFaultPlan scoped(spec);
      for (const auto& [digest, blob] : blobs) cache.put(digest, blob);
      for (const auto& [digest, blob] : blobs) {
        auto hit = cache.get(digest);
        if (hit) {
          EXPECT_EQ(*hit, blob) << "seed " << seed;
        }
      }
    }
    // And with the storm over, a revived cache over the same directory
    // still serves only verified bytes.
    net::BlobCache revived(cfg);
    for (const auto& [digest, blob] : blobs) {
      auto hit = revived.get(digest);
      if (hit) {
        EXPECT_EQ(*hit, blob) << "seed " << seed;
      }
    }
  }
}

// ----------------------------------------------------- v4 blob transfer --

TEST(BulkV4, CompressedRoundTripReportsWireSavings) {
  Pair p;
  auto raw = compressible_blob(300);
  net::BlobWireInfo info;
  std::thread sender([&] { info = net::send_blob_v4(p.client, raw); });
  auto got = net::recv_blob_v4(p.server);
  sender.join();
  EXPECT_EQ(got, raw);
  EXPECT_TRUE(info.compressed);
  EXPECT_EQ(info.raw_bytes, raw.size());
  EXPECT_LT(info.wire_bytes, info.raw_bytes);
}

TEST(BulkV4, IncompressibleSentStored) {
  Pair p;
  auto raw = random_blob(3, 32 * 1024);
  net::BlobWireInfo info;
  std::thread sender([&] { info = net::send_blob_v4(p.client, raw); });
  auto got = net::recv_blob_v4(p.server);
  sender.join();
  EXPECT_EQ(got, raw);
  EXPECT_FALSE(info.compressed);
  EXPECT_GE(info.wire_bytes, info.raw_bytes);  // header overhead only
}

TEST(BulkV4, EmptyBlobRoundTrips) {
  Pair p;
  std::vector<std::byte> empty;
  std::thread sender([&] { net::send_blob_v4(p.client, empty); });
  EXPECT_EQ(net::recv_blob_v4(p.server), empty);
  sender.join();
}

TEST(BulkV4, OversizeRejectedBeforeAllocation) {
  Pair p;
  auto raw = random_blob(11, 64 * 1024);
  std::thread sender([&] {
    try {
      net::send_blob_v4(p.client, raw);
    } catch (const std::exception&) {
      // receiver may close early; either way the send must not hang
    }
  });
  EXPECT_THROW(net::recv_blob_v4(p.server, /*max_bytes=*/1024), IoError);
  p.server.close();
  sender.join();
}

TEST(BulkV4, CorruptionUnderFaultPlanDetectedNeverMerged) {
  // With every recv corrupting one byte, a transfer must either throw or
  // (if the flip landed outside this stream's frames) deliver exact bytes
  // — wrong data must never come back looking like success.
  auto raw = compressible_blob(100);
  int detected = 0;
  for (int i = 0; i < 8; ++i) {
    Pair p;  // built before the plan: connects stay clean
    net::ScopedFaultPlan plan({.seed = 1000 + static_cast<std::uint64_t>(i),
                               .corrupt_prob = 1.0});
    std::thread sender([&] {
      try {
        net::send_blob_v4(p.client, raw);
      } catch (const std::exception&) {
      }
      // EOF after the real bytes: a corrupted-but-plausible wire_size must
      // end in ConnectionClosed, not a forever-blocking recv.
      p.client.close();
    });
    try {
      auto got = net::recv_blob_v4(p.server);
      EXPECT_EQ(got, raw);
    } catch (const ProtocolError&) {
      ++detected;
    } catch (const IoError&) {
      ++detected;  // corrupted length tripping the size guard, or EOF
    }
    sender.join();
  }
  EXPECT_GT(detected, 0) << "fault plan never fired";
}

TEST(BulkV4, TruncatedSendSurfacesAsError) {
  auto raw = compressible_blob(100);
  Pair p;
  net::ScopedFaultPlan plan({.seed = 42, .send_truncate_prob = 1.0});
  std::thread sender([&] {
    try {
      net::send_blob_v4(p.client, raw);
    } catch (const std::exception&) {
    }
  });
  EXPECT_THROW(net::recv_blob_v4(p.server), std::exception);
  sender.join();
}

// ----------------------------------------------------------- blob wire --

TEST(WireV4, WorkAssignmentCarriesBlobRefsNotBytes) {
  dist::WorkAssignmentPayload assignment;
  dist::WorkUnit& unit = assignment.unit;
  unit.problem_id = 3;
  unit.unit_id = 17;
  unit.stage = 2;
  unit.cost_ops = 1234.5;
  unit.payload = bytes_of("header-fields");
  unit.blobs.push_back(dist::make_work_blob(compressible_blob(10)));
  unit.blobs.push_back(dist::make_work_blob(bytes_of("second blob")));
  assignment.algorithm_name = "dsearch";
  assignment.problem_data = dist::make_work_blob(compressible_blob(20));

  auto back = dist::decode_work_assignment(
      dist::encode_work_assignment(assignment, 9));
  EXPECT_EQ(back.unit.unit_id, unit.unit_id);
  EXPECT_EQ(back.unit.payload, unit.payload);
  ASSERT_EQ(back.unit.blobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.unit.blobs[i].digest, unit.blobs[i].digest);
    EXPECT_EQ(back.unit.blobs[i].size, unit.blobs[i].size);
    EXPECT_TRUE(back.unit.blobs[i].bytes.empty()) << "refs only on the wire";
  }
  EXPECT_EQ(back.problem_data.digest, assignment.problem_data.digest);
  EXPECT_EQ(back.problem_data.size, assignment.problem_data.size);
  EXPECT_TRUE(back.problem_data.bytes.empty()) << "refs only on the wire";
}

TEST(WireV4, FetchBlobsAndBlobDataRoundTrip) {
  dist::FetchBlobsPayload req;
  req.digests = {0x1111, 0xffffffffffffffffull, 3};
  auto reqm = dist::encode_fetch_blobs(req, 21);
  auto reqb = dist::decode_fetch_blobs(reqm);
  EXPECT_EQ(reqb.digests, req.digests);

  dist::BlobDataPayload rep;
  rep.blobs = {{0x1111, true}, {0xffffffffffffffffull, false}, {3, true}};
  auto repm = dist::encode_blob_data(rep, 21);
  auto repb = dist::decode_blob_data(repm);
  ASSERT_EQ(repb.blobs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(repb.blobs[i].digest, rep.blobs[i].digest);
    EXPECT_EQ(repb.blobs[i].present, rep.blobs[i].present);
  }
}

// ------------------------------------------------- blob-backed units --

TEST(DataPlaneApps, UnitWithoutItsBlobThrowsProtocolError) {
  // DSEARCH chunks and DPRml shared stage trees arrive only as blobs[0];
  // a unit that lost its blob is refused, never decoded from the payload.
  Rng rng(31);
  auto queries = bio::make_queries(rng, 1, 40, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = 8;
  spec.mean_length = 50;
  auto database = bio::make_database(rng, spec, queries);
  dsearch::DSearchDataManager search_dm(queries, database, {});
  dsearch::DSearchAlgorithm search;
  search.initialize(search_dm.problem_data());
  auto chunk = search_dm.next_unit(dist::SizeHint{});
  ASSERT_TRUE(chunk.has_value());
  ASSERT_EQ(chunk->blobs.size(), 1u);
  EXPECT_NO_THROW(search.process(*chunk));
  chunk->blobs.clear();
  EXPECT_THROW(search.process(*chunk), ProtocolError);

  auto tree = phylo::random_tree(rng, {5, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {100});
  dprml::DPRmlConfig config;
  config.model_spec = "JC69";
  config.use_eval_cache = false;
  dprml::DPRmlDataManager dm(aln, config);
  dprml::DPRmlAlgorithm algo;
  algo.initialize(dm.problem_data());
  dist::SizeHint hint;
  hint.target_ops = 1e18;
  for (int spins = 0; !dm.is_complete(); ++spins) {
    ASSERT_LT(spins, 100000) << "data manager stalled";
    auto unit = dm.next_unit(hint);
    if (!unit) continue;
    if (!unit->blobs.empty()) {
      unit->blobs.clear();
      EXPECT_THROW(algo.process(*unit), ProtocolError);
      return;
    }
    dist::ResultUnit r;
    r.problem_id = unit->problem_id;
    r.unit_id = unit->unit_id;
    r.stage = unit->stage;
    r.payload = algo.process(*unit);
    dm.accept_result(r);
  }
  FAIL() << "no shared-tree unit issued";
}

// ------------------------------------------------------------ TCP e2e --

struct DSearchCase {
  std::vector<bio::Sequence> queries;
  std::vector<bio::Sequence> database;
  dsearch::DSearchConfig config;
};

DSearchCase dsearch_case(std::uint64_t seed, std::size_t db_size = 48) {
  Rng rng(seed);
  DSearchCase c;
  c.queries = bio::make_queries(rng, 2, 60, bio::Alphabet::kProtein);
  bio::DatabaseSpec spec;
  spec.num_sequences = db_size;
  spec.mean_length = 80;
  spec.planted_homologs_per_query = 3;
  c.database = bio::make_database(rng, spec, c.queries);
  c.config.top_k = 8;
  return c;
}

dist::ServerConfig dsearch_server_config() {
  dist::ServerConfig cfg;
  cfg.scheduler.lease_timeout = 60.0;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "fixed:200000";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  dsearch::register_algorithm();
  return cfg;
}

dist::ClientConfig donor_config(std::uint16_t port, const std::string& name) {
  dist::ClientConfig cfg;
  cfg.server_port = port;
  cfg.name = name;
  return cfg;
}

// ------------------------------------------------------- dedup headline --

struct BulkSnapshot {
  std::uint64_t sent, hits, raw, wire;
  static BulkSnapshot take() {
    auto& m = net::bulk_plane_metrics();
    return {m.blobs_sent.value(), m.blobs_cache_hit.value(),
            m.bytes_raw.value(), m.bytes_wire.value()};
  }
};

TEST(DataPlaneTcp, ReplicatedChunksTransferOncePerDonorAndReuseAcrossRuns) {
  // The acceptance scenario: DSEARCH over real TCP, four donors,
  // replication_factor 2 — every database chunk reaches a given donor at
  // most once (asserted via the bulk counters), and results match the
  // serial reference bit for bit. Then a NEW server run over the same
  // inputs with replication_factor 4 finds the donors' disk caches warm:
  // chunks already held are never re-downloaded.
  auto c = dsearch_case(317);
  auto serial = dsearch::search_serial(c.queries, c.database, c.config);

  ScratchDir cache_root("dedup");
  constexpr int kDonors = 4;
  auto donor_cfg = [&](std::uint16_t port, int i) {
    auto cfg = donor_config(port, "donor-" + std::to_string(i));
    cfg.blob_cache_dir =
        (cache_root.path / ("donor-" + std::to_string(i))).string();
    return cfg;
  };
  auto run_fleet = [&](dist::Server& server) {
    std::vector<std::thread> threads;
    for (int i = 0; i < kDonors; ++i) {
      threads.emplace_back(
          [&, i] { dist::Client(donor_cfg(server.port(), i)).run(); });
    }
    for (auto& t : threads) t.join();
  };
  auto integrity_server_config = [&](int replicas) {
    auto cfg = dsearch_server_config();
    cfg.scheduler.replication_factor = replicas;
    cfg.scheduler.quorum = replicas;
    cfg.scheduler.spot_check_rate = 0.0;
    cfg.scheduler.reputation_trust_threshold = 1e9;  // never skip replication
    return cfg;
  };

  // How many of the four donors actually won work in a phase is a
  // scheduling race (a fast pair can drain a small queue before the
  // others ask), so expectations are derived from observed
  // participation: a donor that completed at least one unit fetched the
  // problem-data blob plus its chunks, leaving a non-empty cache dir.
  auto donors_with_warm_cache = [&] {
    std::uint64_t warm = 0;
    for (int i = 0; i < kDonors; ++i) {
      fs::path dir = donor_cfg(0, i).blob_cache_dir;
      if (fs::exists(dir) && !fs::is_empty(dir)) ++warm;
    }
    return warm;
  };

  // ---- Phase A: cold caches, replication 2 ----
  std::uint64_t units_a = 0;
  std::uint64_t participants_a = 0;
  {
    dist::Server server(integrity_server_config(2));
    server.start();
    auto dm = std::make_shared<dsearch::DSearchDataManager>(
        c.queries, c.database, c.config);
    auto pid = server.submit_problem(dm);

    auto before = BulkSnapshot::take();
    run_fleet(server);
    ASSERT_TRUE(server.wait_for_problem(pid, 60.0));
    auto after = BulkSnapshot::take();
    auto stats = server.stats();
    server.stop();

    EXPECT_EQ(dm->result(), serial);
    units_a = stats.units_issued;
    participants_a = donors_with_warm_cache();
    EXPECT_GE(participants_a, 2u);  // replication 2 needs >= 2 donors
    EXPECT_EQ(stats.units_reissued, 0u);
    // Cold caches: zero hits, and exactly one transfer per issued unit
    // (its chunk) plus one problem-data blob per participating donor. Any
    // double transfer of a chunk to the same donor would break this
    // equality.
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ(after.sent - before.sent, units_a + participants_a);
    EXPECT_GT(after.raw - before.raw, 0u);
    EXPECT_LE(after.wire - before.wire, after.raw - before.raw);
  }

  // ---- Phase B: new server, same inputs, replication 4, warm disks ----
  {
    dist::Server server(integrity_server_config(4));
    server.start();
    auto dm = std::make_shared<dsearch::DSearchDataManager>(
        c.queries, c.database, c.config);
    auto pid = server.submit_problem(dm);

    auto before = BulkSnapshot::take();
    run_fleet(server);
    ASSERT_TRUE(server.wait_for_problem(pid, 60.0));
    auto after = BulkSnapshot::take();
    auto stats = server.stats();
    server.stop();

    EXPECT_EQ(dm->result(), serial);
    EXPECT_EQ(stats.units_reissued, 0u);
    // Replication 4 with 4 donors forces every chunk onto every donor, so
    // participation is total and the ledger is exact: the fixed policy
    // re-creates identical chunks, each (donor, chunk) pair that phase A
    // already transferred is a disk hit now, every other pair downloads
    // once, and the problem-data blob is a hit exactly where phase A
    // fetched it.
    auto units_b = stats.units_issued;
    EXPECT_EQ(units_b, 2 * units_a);
    EXPECT_EQ(after.hits - before.hits, units_a + participants_a);
    EXPECT_EQ(after.sent - before.sent,
              (units_b - units_a) + (kDonors - participants_a));
  }
}

// ------------------------------------------------- problems by content --

/// A problem that issues no unit and never completes. While it is open, its
/// server never tells a donor that every problem is complete.
class OpenProblem final : public dist::DataManager {
 public:
  [[nodiscard]] std::string algorithm_name() const override {
    return dsearch::kAlgorithmName;
  }
  [[nodiscard]] std::vector<std::byte> problem_data() const override {
    return bytes_of("never complete");
  }
  std::optional<dist::WorkUnit> next_unit(const dist::SizeHint&) override {
    return std::nullopt;
  }
  void accept_result(const dist::ResultUnit&) override {}
  [[nodiscard]] bool is_complete() const override { return false; }
  [[nodiscard]] std::vector<std::byte> final_result() const override {
    return {};
  }
};

TEST(DataPlaneTcp, ContextNeverCrossesProblems) {
  // A problem id names a problem only within one server's lifetime. A
  // persistent donor serves problem 1 on server A (queries Q1 over D), then
  // moves to server B, whose problem 1 searches queries Q2 over the same
  // D. B's units must run with B's data. A's second, open problem keeps
  // the donor from ever being told that A is done, so nothing but the
  // content key stands between A's context and B's units.
  dsearch::register_algorithm();
  auto c = dsearch_case(411);
  const auto q2 = dsearch_case(412).queries;
  const double unit_ops = 200000;  // dsearch_server_config()'s fixed policy
  dsearch::DSearchDataManager serial_q1(c.queries, c.database, c.config);
  dsearch::DSearchDataManager serial_q2(q2, c.database, c.config);
  const auto answer_q1 = dist::run_locally(serial_q1, unit_ops);
  const auto answer_q2 = dist::run_locally(serial_q2, unit_ops);
  ASSERT_NE(answer_q1, answer_q2) << "the test needs answers that differ";

  dist::Server a(dsearch_server_config());
  dist::Server b(dsearch_server_config());
  a.start();
  b.start();
  auto dm_a = std::make_shared<dsearch::DSearchDataManager>(
      c.queries, c.database, c.config);
  auto dm_b = std::make_shared<dsearch::DSearchDataManager>(
      q2, c.database, c.config);
  auto pid_a = a.submit_problem(dm_a);
  a.submit_problem(std::make_shared<OpenProblem>());
  auto pid_b = b.submit_problem(dm_b);
  ASSERT_EQ(pid_a, pid_b) << "both servers call their first problem the same";

  auto cfg = donor_config(0, "mover");
  cfg.servers = {{"127.0.0.1", a.port()}, {"127.0.0.1", b.port()}};
  cfg.exit_when_idle = false;
  dist::Client donor(cfg);
  dist::ClientRunStats stats;
  std::thread runner([&] { stats = donor.run(); });
  const bool a_done = a.wait_for_problem(pid_a, 60.0);
  a.stop();  // the donor moves on to B
  const bool b_done = b.wait_for_problem(pid_b, 60.0);
  b.drain();
  runner.join();
  b.stop();
  ASSERT_TRUE(a_done);
  ASSERT_TRUE(b_done);
  EXPECT_EQ(dm_a->final_result(), answer_q1);
  EXPECT_EQ(dm_b->final_result(), answer_q2);
  EXPECT_EQ(stats.reconnects, 1u);
}

TEST(DataPlaneTcp, NewProblemCostsOneFetchBlobsRoundTrip) {
  // The assignment names its problem's data by digest, and the donor
  // fetches that data in the same FetchBlobs round trip as the first
  // unit's chunk: one round trip per unit and none extra per problem.
  auto c = dsearch_case(413);
  auto serial = dsearch::search_serial(c.queries, c.database, c.config);
  auto fetches = [] {
    return obs::Registry::global()
        .histogram("server.handle_s.FetchBlobs",
                   obs::Histogram::latency_bounds())
        .snapshot()
        .count;
  };

  dist::Server server(dsearch_server_config());
  server.start();
  auto dm = std::make_shared<dsearch::DSearchDataManager>(
      c.queries, c.database, c.config);
  const auto fetches_before = fetches();
  const auto before = BulkSnapshot::take();
  auto pid = server.submit_problem(dm);
  dist::Client(donor_config(server.port(), "solo")).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 60.0));
  const auto after = BulkSnapshot::take();
  const auto stats = server.stats();
  server.stop();

  EXPECT_EQ(dm->result(), serial);
  ASSERT_GT(stats.units_issued, 1u) << "the database should be chunked";
  EXPECT_EQ(stats.units_reissued, 0u);
  // Every unit's chunk is new to the donor (a miss), and so is the
  // problem data: one transfer each.
  EXPECT_EQ(after.sent - before.sent, stats.units_issued + 1);
  EXPECT_EQ(fetches() - fetches_before, stats.units_issued);
}

// ------------------------------------------------------------ simulator --

TEST(DataPlaneSim, SharedTreeBlobsDedupAndCompressInVirtualFleet) {
  // DPRml in the simulator: every eval unit of a stage shares one tree
  // blob, so a fleet must see cache hits (dedup) and a wire byte count
  // below the raw byte count (compression) — mirrored in both the
  // process-global bulk counters and the SimOutcome.
  dprml::register_algorithm();
  Rng rng(41);
  auto tree = phylo::random_tree(rng, {7, 0.12, "t"});
  auto aln = phylo::simulate_alignment(rng, tree, phylo::SubstModel::jc69(),
                                       phylo::RateModel::uniform(), {240});
  dprml::DPRmlConfig config;
  config.model_spec = "JC69";
  config.branch_tolerance = 1e-3;
  config.eval_passes = 1;
  config.refine_passes = 1;
  config.use_eval_cache = false;

  sim::SimConfig cfg;
  cfg.reference_ops_per_sec = 1e6;
  cfg.scheduler.lease_timeout = 1e5;
  cfg.scheduler.bounds.min_ops = 1;
  cfg.policy_spec = "adaptive:5";
  cfg.no_work_retry_s = 0.25;

  sim::SimDriver driver(cfg, sim::lab_fleet(5));
  driver.add_problem(std::make_shared<dprml::DPRmlDataManager>(aln, config));

  auto before = BulkSnapshot::take();
  auto out = driver.run();
  auto after = BulkSnapshot::take();

  EXPECT_GT(out.blobs_sent, 0u);
  EXPECT_GT(out.blob_cache_hits, 0u) << "shared stage trees must dedup";
  EXPECT_GT(out.blob_bytes_raw, 0.0);
  EXPECT_LT(out.blob_bytes_wire, out.blob_bytes_raw)
      << "newick trees are compressible";
  // The sim feeds the same process-global counters as the real server.
  EXPECT_EQ(after.sent - before.sent, out.blobs_sent);
  EXPECT_EQ(after.hits - before.hits, out.blob_cache_hits);
}

}  // namespace
}  // namespace hdcs
