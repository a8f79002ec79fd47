// Observability layer: metrics registry, JSONL tracing, MSG_STATS.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "net/message.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "sim/sim_driver.hpp"
#include "tests/toy_problem.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace hdcs::obs {
namespace {

TEST(Metrics, CounterConcurrentWriters) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPer = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(Metrics, HistogramConcurrentObservers) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPer = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) h.observe(static_cast<double>(t * 30 + 1));
    });
  }
  for (auto& t : threads) t.join();
  auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPer);
  std::uint64_t bucket_total = 0;
  for (auto c : s.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Metrics, HistogramQuantilesAndBounds) {
  Histogram h(Histogram::latency_bounds());
  for (int i = 0; i < 100; ++i) h.observe(0.001);
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  auto s = h.snapshot();
  EXPECT_LE(s.quantile(0.5), 0.002);
  EXPECT_GE(s.quantile(0.99), 1.0);
  EXPECT_NEAR(s.mean(), (100 * 0.001 + 10 * 5.0) / 110.0, 1e-9);
  EXPECT_THROW(Histogram({}), InputError);
  EXPECT_THROW(Histogram({2.0, 1.0}), InputError);
}

TEST(Metrics, RegistryStableReferencesAcrossReset) {
  auto& reg = Registry::global();
  Counter& a = reg.counter("test.obs.stable");
  Counter& b = reg.counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  a.inc(7);
  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);  // reference survives, value cleared
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, RegistryConcurrentFindOrCreate) {
  auto& reg = Registry::global();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < 1000; ++i) reg.counter("test.obs.race").inc();
      reg.histogram("test.obs.race_h", Histogram::latency_bounds()).observe(0.01);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(reg.counter("test.obs.race").value(), 8000u);
}

TEST(Metrics, RenderFormats) {
  auto& reg = Registry::global();
  reg.counter("test.obs.render").inc(5);
  reg.gauge("test.obs.render_g").set(2.5);
  reg.histogram("test.obs.render_h", {1.0}).observe(0.5);
  auto text = reg.render_text();
  EXPECT_NE(text.find("test.obs.render 5"), std::string::npos);
  auto json = reg.render_json();
  EXPECT_NE(json.find("\"test.obs.render\":5"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
}

TEST(Jsonl, RoundTripScalars) {
  auto fields = parse_flat_json(
      R"({"s":"a\"b\\c\n","n":-12.5,"i":42,"b":true,"z":null})");
  EXPECT_EQ(fields.at("s").as_string(), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(fields.at("n").as_number(), -12.5);
  EXPECT_DOUBLE_EQ(fields.at("i").as_number(), 42);
  EXPECT_TRUE(fields.at("b").b);
  EXPECT_EQ(fields.at("z").kind, JsonValue::Kind::kNull);
}

TEST(Jsonl, EscapeThenParse) {
  std::string nasty = "tab\t quote\" slash\\ newline\n ctrl\x01";
  std::string line = "{\"k\":\"" + json_escape(nasty) + "\"}";
  EXPECT_EQ(parse_flat_json(line).at("k").as_string(), nasty);
}

TEST(Jsonl, MalformedInputThrows) {
  EXPECT_THROW(parse_flat_json("not json"), ProtocolError);
  EXPECT_THROW(parse_flat_json("{\"k\":}"), ProtocolError);
  EXPECT_THROW(parse_flat_json("{\"k\":1"), ProtocolError);
  EXPECT_THROW(parse_flat_json("{\"k\":{\"nested\":1}}"), ProtocolError);
}

TEST(Tracer, MemoryRoundTripCarriesSchemaVersion) {
  Tracer tracer;
  tracer.to_memory();
  tracer.event(1.5, "unit_issued").u64("client", 3).num("cost_ops", 1e6);
  tracer.event(2.0, "unit_completed")
      .u64("client", 3)
      .str("note", "done \"ok\"")
      .boolean("cached", false);
  auto lines = tracer.lines();
  ASSERT_EQ(lines.size(), 2u);

  auto rec = parse_trace_line(lines[0]);
  EXPECT_EQ(rec.schema, kTraceSchemaVersion);
  EXPECT_DOUBLE_EQ(rec.t, 1.5);
  EXPECT_EQ(rec.ev, "unit_issued");
  EXPECT_DOUBLE_EQ(rec.number("client"), 3);
  EXPECT_DOUBLE_EQ(rec.number("cost_ops"), 1e6);

  auto rec2 = parse_trace_line(lines[1]);
  EXPECT_EQ(rec2.text("note"), "done \"ok\"");
  EXPECT_FALSE(rec2.fields.at("cached").b);
}

TEST(Tracer, FileSinkWritesJsonl) {
  std::string path = testing::TempDir() + "hdcs_trace_test.jsonl";
  std::remove(path.c_str());
  {
    Tracer tracer;
    tracer.open(path);
    tracer.event(0.25, "checkpoint").u64("problems", 2);
    tracer.close();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto rec = parse_trace_line(line);
  EXPECT_EQ(rec.ev, "checkpoint");
  EXPECT_DOUBLE_EQ(rec.number("problems"), 2);
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(Tracer, DisabledTracerIsANoOp) {
  Tracer tracer;  // no sink
  EXPECT_FALSE(tracer.enabled());
  tracer.event(1.0, "unit_issued").u64("client", 1).str("k", "v");
  EXPECT_TRUE(tracer.lines().empty());
}

TEST(Tracer, ConcurrentEmitters) {
  Tracer tracer;
  tracer.to_memory();
  constexpr int kThreads = 8;
  constexpr int kPer = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        tracer.event(static_cast<double>(i), "unit_issued")
            .u64("client", static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  auto lines = tracer.lines();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kPer);
  for (const auto& line : lines) {
    auto rec = parse_trace_line(line);  // every line individually valid
    EXPECT_EQ(rec.schema, kTraceSchemaVersion);
  }
}

TEST(Tracer, LogMirrorEmitsStructuredEvents) {
  Tracer tracer;
  tracer.to_memory();
  mirror_logs_to_tracer(&tracer);
  LOG_WARN("observability test message " << 42);
  mirror_logs_to_tracer(nullptr);  // restore plain stderr logging
  LOG_WARN("not mirrored");
  auto lines = tracer.lines();
  ASSERT_EQ(lines.size(), 1u);
  auto rec = parse_trace_line(lines[0]);
  EXPECT_EQ(rec.ev, "log");
  EXPECT_EQ(rec.text("level"), "WARN");
  EXPECT_EQ(rec.text("msg"), "observability test message 42");
}

}  // namespace
}  // namespace hdcs::obs

namespace hdcs::dist {
namespace {

TEST(Wire, FetchStatsRoundTrip) {
  FetchStatsPayload p;
  p.include_clients = false;
  auto decoded = decode_fetch_stats(encode_fetch_stats(p, 17));
  EXPECT_FALSE(decoded.include_clients);

  StatsSnapshotPayload snap;
  snap.json = R"({"schema":1,"metrics":{}})";
  auto m = encode_stats_snapshot(snap, 17);
  EXPECT_EQ(m.correlation, 17u);
  EXPECT_EQ(decode_stats_snapshot(m).json, snap.json);
  EXPECT_THROW(decode_fetch_stats(m), ProtocolError);
}

TEST(MsgStats, LiveServerServesSnapshot) {
  test::register_toy_algorithm();
  ServerConfig cfg;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "adaptive:0.05";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  Server server(cfg);
  server.start();
  auto dm = std::make_shared<test::ToySumDataManager>(500000);
  auto pid = server.submit_problem(dm);

  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "stats-worker";
  Client(ccfg).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));

  // A bare monitoring connection (no Hello) asks for MSG_STATS.
  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  net::write_message(stream, encode_fetch_stats(FetchStatsPayload{}, 99));
  auto reply = net::read_message(stream);
  EXPECT_EQ(reply.type, net::MessageType::kStatsSnapshot);
  EXPECT_EQ(reply.correlation, 99u);
  auto snap = decode_stats_snapshot(reply);

  EXPECT_NE(snap.json.find("\"scheduler\":{"), std::string::npos);
  EXPECT_NE(snap.json.find("\"units_issued\":"), std::string::npos);
  EXPECT_NE(snap.json.find("\"stats-worker\""), std::string::npos);
  EXPECT_NE(snap.json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(snap.json.find("net.frames_received"), std::string::npos);
  EXPECT_NE(snap.json.find("server.handle_s.RequestWork"), std::string::npos);
  EXPECT_NE(snap.json.find("\"units_pending\":"), std::string::npos);
  // Histograms export computed quantiles alongside their raw buckets.
  EXPECT_NE(snap.json.find("\"quantiles\":{\"p50\":"), std::string::npos);
  // A donor completed units, so the per-phase span histograms exist.
  EXPECT_NE(snap.json.find("\"unit.compute_s\":"), std::string::npos);
  EXPECT_NE(snap.json.find("\"unit.submit_s\":"), std::string::npos);

  // The in-process accessor sees the same per-client table.
  auto clients = server.client_stats();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].name, "stats-worker");
  EXPECT_GT(clients[0].stats.units_completed, 0);
  EXPECT_FALSE(clients[0].active);  // said Goodbye after completion
  server.stop();
}

TEST(MsgStats, ServerTraceRecordsFullClientLifecycle) {
  test::register_toy_algorithm();
  obs::Tracer tracer;
  tracer.to_memory();
  ServerConfig cfg;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "fixed:100000";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  cfg.tracer = &tracer;
  Server server(cfg);
  server.start();
  auto dm = std::make_shared<test::ToySumDataManager>(400000);
  auto pid = server.submit_problem(dm);

  ClientConfig ccfg;
  ccfg.server_port = server.port();
  ccfg.name = "traced";
  Client(ccfg).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  server.stop();

  auto lines = tracer.lines();
  ASSERT_FALSE(lines.empty());
  int joined = 0, left = 0, issued = 0, completed = 0;
  for (const auto& line : lines) {
    auto rec = obs::parse_trace_line(line);
    EXPECT_EQ(rec.schema, obs::kTraceSchemaVersion);
    if (rec.ev == "client_joined") ++joined;
    if (rec.ev == "client_left") ++left;
    if (rec.ev == "unit_issued") ++issued;
    if (rec.ev == "unit_completed") ++completed;
  }
  EXPECT_EQ(joined, 1);
  EXPECT_EQ(left, 1);  // Goodbye + handler teardown must not double-emit
  EXPECT_EQ(issued, 4);  // 400000 ops in fixed:100000 units
  EXPECT_EQ(completed, 4);
}

TEST(MsgStats, UnitProfileSharedSchemaAcrossServerAndSim) {
  test::register_toy_algorithm();

  // Real TCP run: one donor against a live server, trace collected.
  obs::Tracer server_tracer;
  server_tracer.to_memory();
  {
    ServerConfig cfg;
    cfg.scheduler.bounds.min_ops = 1000;
    cfg.policy_spec = "fixed:100000";
    cfg.tick_interval_s = 0.05;
    cfg.no_work_retry_s = 0.02;
    cfg.tracer = &server_tracer;
    Server server(cfg);
    server.start();
    auto pid = server.submit_problem(std::make_shared<test::ToySumDataManager>(400000));
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "profiled";
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    server.stop();
  }

  // Simulated run (virtual clock), same workload shape.
  obs::Tracer sim_tracer;
  sim_tracer.to_memory();
  {
    sim::SimConfig simcfg;
    simcfg.reference_ops_per_sec = 1e6;
    simcfg.scheduler.lease_timeout = 1e5;
    simcfg.scheduler.bounds.min_ops = 1;
    simcfg.policy_spec = "fixed:100000";
    simcfg.tracer = &sim_tracer;
    sim::SimDriver sim(simcfg, sim::lab_fleet(2));
    sim.add_problem(std::make_shared<test::ToySumDataManager>(400000));
    sim.run();
  }

  // Decomposition invariant: the six phases tile the lease. Wall-clock
  // runs may carry a small residual (the donor's queue_wait starts before
  // the lease clock); virtual-time runs tile it exactly (the 1e-6 slack is
  // only the %.9g rounding of the JSONL encoder).
  auto check_sums = [](const std::vector<std::string>& lines, double tol) {
    int profiles = 0;
    for (const auto& line : lines) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != "unit_profile") continue;
      ++profiles;
      double sum = rec.number("queue_wait_s") + rec.number("blob_fetch_s") +
                   rec.number("decompress_s") + rec.number("compute_s") +
                   rec.number("encode_s") + rec.number("submit_s");
      EXPECT_NEAR(sum, rec.number("elapsed_s"), tol);
      EXPECT_GE(rec.number("submit_s"), 0.0);
    }
    return profiles;
  };
  int server_profiles = check_sums(server_tracer.lines(), 10e-3);
  EXPECT_GT(server_profiles, 0);
  EXPECT_GT(check_sums(sim_tracer.lines(), 1e-6), 0);

  // Every result the server accepted over TCP carried exactly one profile.
  int server_completed = 0;
  for (const auto& line : server_tracer.lines()) {
    if (obs::parse_trace_line(line).ev == "unit_completed") ++server_completed;
  }
  EXPECT_EQ(server_profiles, server_completed);

  // The pinned schema: both emitters must produce unit_profile with
  // exactly these fields so one tool (trace_summary --critical-path,
  // --perfetto) can read either trace.
  auto profile_fields = [](const std::vector<std::string>& lines) {
    std::vector<std::string> keys;
    for (const auto& line : lines) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev != "unit_profile") continue;
      for (const auto& [k, v] : rec.fields) {
        if (k != "schema" && k != "t" && k != "ev") keys.push_back(k);
      }
      return keys;  // fields is an ordered map: keys come out sorted
    }
    return keys;
  };
  auto server_keys = profile_fields(server_tracer.lines());
  auto sim_keys = profile_fields(sim_tracer.lines());
  std::vector<std::string> expected_keys = {
      "blob_fetch_s", "client", "compute_s",   "decompress_s",
      "elapsed_s",    "encode_s", "problem",   "queue_wait_s",
      "saturations",  "stage",  "submit_s",    "threads", "unit"};
  EXPECT_EQ(server_keys, expected_keys);
  EXPECT_EQ(sim_keys, expected_keys);
}

TEST(MsgStats, WalCompactedEventHasPinnedSchema) {
  test::register_toy_algorithm();
  std::string wal_dir = ::testing::TempDir() + "hdcs_obs_wal";
  std::filesystem::remove_all(wal_dir);
  auto& compactions = obs::Registry::global().counter("wal.compactions");
  std::uint64_t compactions_before = compactions.value();

  // Fold the WAL into its base image once with a unit in flight, and
  // collect the wal_compacted event.
  obs::Tracer server_tracer;
  server_tracer.to_memory();
  ServerConfig cfg;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "fixed:100000";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  cfg.tracer = &server_tracer;
  cfg.wal_dir = wal_dir;
  {
    Server server(cfg);
    server.submit_problem(std::make_shared<test::ToySumDataManager>(400000));
    server.start();
    ClientConfig ccfg;
    ccfg.server_port = server.port();
    ccfg.name = "saver";
    ccfg.crash_after_units = 1;  // leaves its unit in flight
    Client(ccfg).run();
    server.compact_wal();
    server.stop();
  }
  EXPECT_GE(compactions.value(), compactions_before + 1);
  EXPECT_GT(obs::Registry::global().gauge("wal.base_bytes").value(), 0.0);

  // The pinned schema: trace tools read exactly these fields.
  std::vector<std::string> keys;
  for (const auto& line : server_tracer.lines()) {
    auto rec = obs::parse_trace_line(line);
    if (rec.ev != "wal_compacted") continue;
    for (const auto& [k, v] : rec.fields) {
      if (k != "schema" && k != "t" && k != "ev") keys.push_back(k);
    }
    break;  // fields is an ordered map: keys come out sorted
  }
  ASSERT_FALSE(keys.empty()) << "server emitted no wal_compacted";
  std::vector<std::string> expected_keys = {"base_bytes", "lsn"};
  EXPECT_EQ(keys, expected_keys);
  std::filesystem::remove_all(wal_dir);
}

TEST(MsgStats, QuarantineSurfacedInStatsSnapshot) {
  test::register_toy_algorithm();
  ServerConfig cfg;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "fixed:100000";
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  Server server(cfg);
  server.start();
  server.submit_problem(std::make_shared<test::ToySumDataManager>(400000));

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  net::write_message(stream, encode_fetch_stats(FetchStatsPayload{}, 7));
  auto snap = decode_stats_snapshot(net::read_message(stream));
  EXPECT_NE(snap.json.find("\"units_quarantined\":"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace hdcs::dist
