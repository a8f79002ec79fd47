// End-to-end integration: real Server + real Clients over loopback TCP.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "dist/client.hpp"
#include "dist/local_runner.hpp"
#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "net/bulk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tests/toy_problem.hpp"
#include "util/logging.hpp"

namespace hdcs::dist {
namespace {

using test::ToySumDataManager;

ServerConfig quick_server_config() {
  ServerConfig cfg;
  cfg.scheduler.lease_timeout = 60.0;
  cfg.scheduler.bounds.min_ops = 1000;
  cfg.policy_spec = "adaptive:0.05";  // tiny units keep the test fast
  cfg.tick_interval_s = 0.05;
  cfg.no_work_retry_s = 0.02;
  test::register_toy_algorithm();
  return cfg;
}

ClientConfig client_config(std::uint16_t port, const std::string& name) {
  ClientConfig cfg;
  cfg.server_port = port;
  cfg.name = name;
  return cfg;
}

// Long-poll tests hold an unserved RequestWork for up to 30 s, so a wake
// that never comes shows up as a park timeout (asserted absent), not as a
// test that merely runs slowly. Ticks also wake the oldest parked donor,
// so they come only after that deadline unless a test needs lease expiry.
ServerConfig long_poll_config() {
  auto cfg = quick_server_config();
  cfg.no_work_retry_s = 30.0;
  cfg.tick_interval_s = 60.0;
  return cfg;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

double parked_requests() {
  return obs::Registry::global().gauge("server.parked_requests").value();
}

int active_clients(Server& server) {
  int n = 0;
  for (const auto& c : server.client_stats()) n += c.active ? 1 : 0;
  return n;
}

// Poll `done` for up to 10 s; false if it never held.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 1000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

// A donor driven frame by frame over its own connection, which its Hello
// registered: every later frame speaks for `id` without naming it.
struct RawDonor {
  net::TcpStream stream;
  ClientId id = 0;
  std::uint64_t corr = 1;

  RawDonor(const Server& server, const std::string& name)
      : stream(net::TcpStream::connect("127.0.0.1", server.port())) {
    net::write_message(stream, encode_hello({name, 1e6}, corr++));
    id = decode_hello_ack(net::read_message(stream)).client_id;
  }
  void send_request_work() {
    net::write_message(stream, encode_request_work(corr++));
  }
  net::Message request_work() {
    send_request_work();
    return net::read_message(stream);
  }
  /// The next reply that is not a NoWork without completion, asking again
  /// after each such reply (a tick's wake), as a donor would.
  net::Message next_answer() {
    auto reply = net::read_message(stream);
    while (reply.type == net::MessageType::kNoWorkAvailable &&
           !decode_no_work(reply).all_problems_complete) {
      reply = request_work();
    }
    return reply;
  }
  /// Submit the toy sum for `unit`; returns the server's reply.
  net::Message submit(const WorkUnit& unit) {
    test::ToySumAlgorithm algo;
    algo.initialize(test::ToySumDataManager(0).problem_data());
    return submit(unit, algo.process(unit));
  }
  /// Submit `payload` (digest and all, a self-consistent answer, true or
  /// not) for `unit`; returns the server's reply.
  net::Message submit(const WorkUnit& unit, std::vector<std::byte> payload) {
    ResultUnit result;
    result.problem_id = unit.problem_id;
    result.unit_id = unit.unit_id;
    result.stage = unit.stage;
    result.epoch = unit.epoch;
    result.payload = std::move(payload);
    result.payload_crc = net::crc32(result.payload);
    net::write_message(stream, encode_submit_result(result, corr++));
    return net::read_message(stream);
  }
};

// Wait until `n` requests are parked server-wide. A raw donor whose held
// request was answered anyway (a tick's wake) asks again, as a donor would.
bool settle(const std::vector<RawDonor*>& raws, double n) {
  return eventually([&] {
    bool quiet = true;
    for (RawDonor* d : raws) {
      if (d->stream.readable(0)) {
        net::read_message(d->stream);
        d->send_request_work();
        quiet = false;
      }
    }
    return quiet && parked_requests() == n;
  });
}

TEST(LocalRunner, MatchesDirectComputation) {
  test::register_toy_algorithm();
  ToySumDataManager dm(123456);
  LocalRunStats stats;
  auto result = run_locally(dm, 10000, &stats);
  EXPECT_EQ(test::read_u64_result(result), dm.expected());
  EXPECT_EQ(stats.units, 13u);  // ceil(123456 / 10000)
  EXPECT_DOUBLE_EQ(stats.total_cost_ops, 123456.0);
}

TEST(LocalRunner, StagedProblemRunsToCompletion) {
  test::register_toy_algorithm();
  ToySumDataManager dm(50000, 3, /*stages=*/5);
  auto result = run_locally(dm, 3000);
  EXPECT_EQ(test::read_u64_result(result), dm.expected());
}

TEST(ServerClient, SingleClientCompletesProblem) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(2000000);
  auto pid = server.submit_problem(dm);

  Client client(client_config(server.port(), "worker-0"));
  auto stats = client.run();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GT(stats.units_processed, 0u);
  server.stop();
}

TEST(ServerClient, MultipleConcurrentClients) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(8000000);
  auto pid = server.submit_problem(dm);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<ClientRunStats> stats(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(client_config(server.port(), "worker-" + std::to_string(i)));
      stats[i] = client.run();
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());

  std::uint64_t total_units = 0;
  for (const auto& s : stats) total_units += s.units_processed;
  EXPECT_EQ(total_units, server.stats().results_accepted);
  server.stop();
}

TEST(ServerClient, MultipleProblemsServedToOneClient) {
  Server server(quick_server_config());
  server.start();
  auto dm1 = std::make_shared<ToySumDataManager>(1000000, 0);
  auto dm2 = std::make_shared<ToySumDataManager>(1500000, 42);
  auto p1 = server.submit_problem(dm1);
  auto p2 = server.submit_problem(dm2);

  Client client(client_config(server.port(), "solo"));
  client.run();

  ASSERT_TRUE(server.wait_for_all(30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(p1)), dm1->expected());
  EXPECT_EQ(test::read_u64_result(server.final_result(p2)), dm2->expected());
  server.stop();
}

TEST(ServerClient, StagedProblemOverTcp) {
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(1000000, 0, /*stages=*/4);
  auto pid = server.submit_problem(dm);

  std::thread t1([&] { Client(client_config(server.port(), "a")).run(); });
  std::thread t2([&] { Client(client_config(server.port(), "b")).run(); });
  t1.join();
  t2.join();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ServerClient, CrashedClientWorkIsReissued) {
  auto cfg = quick_server_config();
  cfg.scheduler.lease_timeout = 0.3;  // fast reissue after the crash
  Server server(cfg);
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(4000000);
  auto pid = server.submit_problem(dm);

  // The crasher vanishes after computing its first unit (no result sent).
  auto crasher_cfg = client_config(server.port(), "crasher");
  crasher_cfg.crash_after_units = 1;
  Client crasher(crasher_cfg);
  auto crash_stats = crasher.run();
  EXPECT_EQ(crash_stats.units_processed, 0u);  // nothing submitted

  Client survivor(client_config(server.port(), "survivor"));
  survivor.run();

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ServerClient, DistributedResultMatchesLocalRunner) {
  test::register_toy_algorithm();
  // Ground truth via the serial runner.
  ToySumDataManager serial(3000000, 9);
  auto serial_result = run_locally(serial, 100000);

  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(3000000, 9);
  auto pid = server.submit_problem(dm);
  std::thread t1([&] { Client(client_config(server.port(), "a")).run(); });
  std::thread t2([&] { Client(client_config(server.port(), "b")).run(); });
  std::thread t3([&] { Client(client_config(server.port(), "c")).run(); });
  t1.join();
  t2.join();
  t3.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(server.final_result(pid), serial_result);
  server.stop();
}

TEST(ServerClient, KeepalivesKeepSlowClientAlive) {
  // A donor whose unit takes longer than the server's client timeout must
  // survive by keeping its work connection alive; a silent donor in the
  // same setup has its connection closed, and its unit goes to the next
  // donor that asks.
  auto cfg = quick_server_config();
  cfg.client_timeout_s = 0.3;
  cfg.tick_interval_s = 0.05;
  cfg.policy_spec = "fixed:30000000";  // one big unit

  {
    Server server(cfg);
    server.start();
    auto pid = server.submit_problem(std::make_shared<ToySumDataManager>(30000000));
    auto ccfg = client_config(server.port(), "beater");
    ccfg.throttle = 12.0;  // stretch compute well past the client timeout
    Client(ccfg).run();
    ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
    EXPECT_EQ(server.clients_expired(), 0u)
        << "a donor that keeps alive must not be expired";
    server.stop();
  }

  Server server(cfg);
  server.start();
  auto pid = server.submit_problem(std::make_shared<ToySumDataManager>(30000000));
  auto ccfg = client_config(server.port(), "silent");
  ccfg.throttle = 12.0;
  ccfg.send_heartbeats = false;
  std::thread silent([&] { Client(ccfg).run(); });
  EXPECT_TRUE(eventually([&] { return server.clients_expired() >= 1; }))
      << "silent donor should have been expired by the timeout";
  Client(client_config(server.port(), "rescuer")).run();
  silent.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_GE(server.stats().units_reissued, 1u)
      << "the expired donor's unit must be reissued";
  server.stop();
}

TEST(ServerClient, KeepaliveFollowsTheCurrentSession) {
  // A persistent donor finishes a job on server A, which asks for no
  // keepalives, and moves to server B when A stops. B closes connections
  // silent for 0.4 s, so the keepalives must follow the session the donor
  // is on now: B's unit computes well past that timeout, and the donor
  // keeps its session through it.
  auto cfg = quick_server_config();
  cfg.policy_spec = "fixed:3000000";  // one unit per job
  Server a(cfg);
  cfg.client_timeout_s = 0.4;
  Server b(cfg);
  a.start();
  b.start();
  auto first = std::make_shared<ToySumDataManager>(1000);
  auto second = std::make_shared<ToySumDataManager>(3000000, 5);
  auto pid_a = a.submit_problem(first);
  auto pid_b = b.submit_problem(second);

  auto ccfg = client_config(0, "mover");
  ccfg.servers = {{"127.0.0.1", a.port()}, {"127.0.0.1", b.port()}};
  ccfg.exit_when_idle = false;
  ccfg.throttle = 300.0;  // B's 3M-element unit computes for about a second
  Client client(ccfg);
  ClientRunStats stats;
  std::thread donor([&] { stats = client.run(); });
  const bool a_done = a.wait_for_problem(pid_a, 30.0);
  a.stop();  // the donor moves on to B
  const bool b_done = b.wait_for_problem(pid_b, 60.0);
  b.drain();
  donor.join();
  ASSERT_TRUE(a_done);
  ASSERT_TRUE(b_done);
  EXPECT_EQ(test::read_u64_result(b.final_result(pid_b)), second->expected());
  EXPECT_EQ(b.clients_expired(), 0u)
      << "the donor sent no keepalives on its second session";
  EXPECT_EQ(stats.reconnects, 1u);  // A's stop, and nothing after it
  b.stop();
}

TEST(ServerClient, OneConnectionPerDonor) {
  // Liveness rides the work connection, so N donors hold N connections —
  // not 2N — even with keepalives on (interval 0.1 s here).
  auto cfg = quick_server_config();
  cfg.client_timeout_s = 0.4;
  Server server(cfg);
  server.start();
  constexpr int kDonors = 3;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::thread> threads;
  for (int i = 0; i < kDonors; ++i) {
    auto ccfg = client_config(server.port(), "idle-" + std::to_string(i));
    ccfg.exit_when_idle = false;
    clients.push_back(std::make_unique<Client>(ccfg));
    threads.emplace_back([c = clients.back().get()] { c->run(); });
  }
  EXPECT_TRUE(eventually([&] {
    int active = 0;
    for (const auto& info : server.client_stats()) active += info.active;
    return active == kDonors;
  }));
  for (int i = 0; i < 5; ++i) {  // across several keepalive intervals
    EXPECT_EQ(server.connected_clients(), kDonors);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (auto& c : clients) c->request_stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.clients_expired(), 0u);
  server.stop();
}

TEST(ServerClient, ThrottledClientReportsLowerBenchmark) {
  // The throttle knob exists so one box can emulate heterogeneous donors;
  // check it scales the self-reported benchmark. Both donors read the
  // process's one probe, so the halving is exact.
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(200000);
  auto pid = server.submit_problem(dm);
  auto slow = client_config(server.port(), "throttled");
  slow.throttle = 2.0;
  std::thread slow_donor([&slow] { Client(slow).run(); });
  Client(client_config(server.port(), "full-speed")).run();
  slow_donor.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));

  std::map<std::string, double> reported;
  for (const auto& c : server.client_stats()) {
    reported[c.name] = c.stats.benchmark_ops_per_sec;
  }
  const double full = Client::measure_benchmark();
  EXPECT_GT(full, 0.0);
  EXPECT_EQ(reported.at("full-speed"), full);
  EXPECT_EQ(reported.at("throttled"), full / 2.0);
  server.stop();
}

TEST(ServerClient, DonorPoolContributesAllCpus) {
  // A dual-CPU donor (like the paper's cluster nodes) runs one client per
  // CPU; together they must complete the problem, each contributing.
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(6000000);
  auto pid = server.submit_problem(dm);

  ClientConfig base = client_config(server.port(), "cluster-node-3");
  auto stats = Client::run_pool(base, 2);
  ASSERT_EQ(stats.size(), 2u);

  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GT(stats[0].units_processed + stats[1].units_processed, 0u);
  EXPECT_THROW(Client::run_pool(base, 0), InputError);
  server.stop();
}

TEST(ServerClient, DonorPoolRethrowsWhenEveryWorkerFails) {
  // A pool in which no worker finished must not look like success: the
  // first worker's error reaches the caller (hdcs_donor then exits 1).
  ClientConfig base = client_config(1, "unreachable");  // port 1 refuses
  base.max_connect_attempts = 1;
  EXPECT_THROW(Client::run_pool(base, 2), IoError);
}

TEST(ServerClient, MaxClientsShedsHelloUntilASeatFrees) {
  // ServerConfig::max_clients: a Hello beyond the cap is answered
  // RetryLater before the donor becomes scheduler state, a Goodbye frees
  // the seat, and a fleet larger than the cap still finishes the job.
  auto cfg = quick_server_config();
  cfg.max_clients = 2;
  obs::Tracer tracer;
  tracer.to_memory();
  cfg.tracer = &tracer;
  Server server(cfg);
  server.start();
  auto active = [&server] { return active_clients(server); };
  auto shed_events = [&tracer] {
    int n = 0;
    for (const auto& line : tracer.lines()) {
      auto rec = obs::parse_trace_line(line);
      if (rec.ev == "retry_later" && rec.text("reason") == "max_clients") ++n;
    }
    return n;
  };

  RawDonor a(server, "seat-a");
  RawDonor b(server, "seat-b");
  const std::uint64_t shed_before = counter("server.clients_shed");
  auto third = net::TcpStream::connect("127.0.0.1", server.port());
  net::write_message(third, encode_hello({"third", 1e6}, 1));
  auto nack = net::read_message(third);
  ASSERT_EQ(nack.type, net::MessageType::kRetryLater);
  EXPECT_EQ(decode_retry_later(nack).reason, "max_clients");
  EXPECT_EQ(counter("server.clients_shed"), shed_before + 1);
  EXPECT_EQ(shed_events(), 1);
  EXPECT_EQ(active(), 2);

  // One Goodbye frees a seat: the next Hello is admitted, not shed.
  net::write_message(a.stream, encode_goodbye(a.corr++));
  ASSERT_TRUE(eventually([&] { return active() == 1; }));
  RawDonor c(server, "seat-c");
  EXPECT_NE(c.id, 0u);
  EXPECT_EQ(counter("server.clients_shed"), shed_before + 1);
  EXPECT_EQ(active(), 2);
  net::write_message(b.stream, encode_goodbye(b.corr++));
  net::write_message(c.stream, encode_goodbye(c.corr++));
  ASSERT_TRUE(eventually([&] { return active() == 0; }));

  // Four donors, two seats: the shed ones back off and retry until a seat
  // frees or the job is done, and the answer is the serial one.
  auto dm = std::make_shared<ToySumDataManager>(2000000);
  auto pid = server.submit_problem(dm);
  std::vector<std::thread> fleet;
  for (int i = 0; i < 4; ++i) {
    fleet.emplace_back([&, i] {
      auto ccfg = client_config(server.port(), "fleet-" + std::to_string(i));
      ccfg.max_connect_attempts = 0;  // retry until admitted
      ccfg.backoff_max_s = 0.1;
      Client(ccfg).run();
    });
  }
  for (auto& t : fleet) t.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

TEST(ServerClient, LongPollDonorWaitingBeforeSubmitIsServedBySubmit) {
  Server server(long_poll_config());
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  // A persistent donor joins an empty server: told once that everything
  // is complete, it asks again and parks.
  auto ccfg = client_config(server.port(), "early");
  ccfg.exit_when_idle = false;
  Client client(ccfg);
  ClientRunStats stats;
  std::thread donor([&] { stats = client.run(); });
  EXPECT_TRUE(eventually([] { return parked_requests() == 1; }));

  auto dm = std::make_shared<ToySumDataManager>(500000);
  auto pid = server.submit_problem(dm);
  EXPECT_TRUE(server.wait_for_problem(pid, 10.0));
  server.drain();  // parked again between jobs: kShutdown releases it
  donor.join();
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GT(stats.units_processed, 0u);
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollStageMergesWakeParkedDonors) {
  auto cfg = long_poll_config();
  cfg.policy_spec = "fixed:1000000";  // one unit per stage
  Server server(cfg);
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  const auto wakes = counter("server.park_wakes");
  auto dm = std::make_shared<ToySumDataManager>(4000000, 0, /*stages=*/4);
  auto pid = server.submit_problem(dm);

  // Slowed units keep each stage open long enough for the two donors
  // without its unit to park at the barrier.
  std::vector<std::thread> donors;
  for (const char* name : {"a", "b", "c"}) {
    donors.emplace_back([&server, name] {
      auto ccfg = client_config(server.port(), name);
      ccfg.throttle = 10.0;
      Client(ccfg).run();
    });
  }
  for (auto& t : donors) t.join();
  ASSERT_TRUE(server.wait_for_problem(pid, 1.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  // Donors waited at the barriers, and a merge (not the deadline) woke them.
  EXPECT_GT(counter("server.park_wakes"), wakes);
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollExpiredLeaseReachesParkedDonor) {
  auto cfg = long_poll_config();
  cfg.tick_interval_s = 0.05;
  cfg.scheduler.lease_timeout = 0.3;
  cfg.policy_spec = "fixed:100000";  // the whole problem is one unit
  Server server(cfg);
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  auto dm = std::make_shared<ToySumDataManager>(100000);
  auto pid = server.submit_problem(dm);

  // A hung donor takes the only unit and never answers; its connection
  // stays open, so only the tick's lease expiry can requeue the unit.
  RawDonor hung(server, "hung");
  ASSERT_EQ(hung.request_work().type, net::MessageType::kWorkAssignment);

  Client(client_config(server.port(), "survivor")).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 1.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GE(server.stats().units_reissued, 1u);
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollBurstOfUnitsWakesParkedDonorsInTurn) {
  auto cfg = long_poll_config();
  cfg.policy_spec = "fixed:100000";
  Server server(cfg);
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  RawDonor r(server, "r"), s(server, "s"), t(server, "t");
  const std::vector<RawDonor*> donors{&r, &s, &t};
  for (RawDonor* d : donors) d->send_request_work();
  ASSERT_TRUE(settle(donors, 3));
  // Three units at once: the submit wakes the oldest donor, and each
  // served request wakes the next.
  server.submit_problem(std::make_shared<ToySumDataManager>(300000));
  std::set<RawDonor*> served;
  EXPECT_TRUE(eventually([&] {
    for (RawDonor* d : donors) {
      if (!d->stream.readable(0)) continue;
      if (net::read_message(d->stream).type ==
          net::MessageType::kWorkAssignment) {
        served.insert(d);
      } else {
        d->send_request_work();  // woken: ask again, in whatever order
      }
    }
    return served.size() == donors.size();
  }));
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollExitWhenIdleDonorsReturnAtCompletion) {
  auto cfg = long_poll_config();
  cfg.policy_spec = "fixed:100000";
  Server server(cfg);
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  const auto wakes = counter("server.park_wakes");
  auto dm = std::make_shared<ToySumDataManager>(100000);
  auto pid = server.submit_problem(dm);
  RawDonor holder(server, "holder");
  auto assignment = holder.request_work();
  ASSERT_EQ(assignment.type, net::MessageType::kWorkAssignment);

  // First in line, a donor that stays; then two exit-when-idle donors.
  // All find nothing to do and park.
  RawDonor stays(server, "stays");
  stays.send_request_work();
  ASSERT_TRUE(settle({&stays}, 1));
  std::vector<std::thread> donors;
  for (const char* name : {"x", "y"}) {
    donors.emplace_back(
        [&server, name] { Client(client_config(server.port(), name)).run(); });
  }
  EXPECT_TRUE(settle({&stays}, 3));
  // The last result completes every problem: all three are told at once.
  auto ack = holder.submit(decode_work_assignment(assignment).unit);
  EXPECT_TRUE(decode_result_ack(ack).accepted);
  auto told = stays.next_answer();
  EXPECT_TRUE(told.type == net::MessageType::kNoWorkAvailable &&
              decode_no_work(told).all_problems_complete);
  for (auto& t : donors) t.join();
  EXPECT_TRUE(server.wait_for_problem(pid, 1.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_GE(counter("server.park_wakes"), wakes + 3);
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollDrainShutsDownParkedDonors) {
  Server server(long_poll_config());
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  // Nothing submitted: a donor's first request is told "all complete" at
  // once...
  RawDonor raw(server, "raw");
  auto first = raw.request_work();
  ASSERT_EQ(first.type, net::MessageType::kNoWorkAvailable);
  EXPECT_TRUE(decode_no_work(first).all_problems_complete);
  // ...and persistent donors, which do ask again, park. Only kShutdown
  // ends their run.
  std::vector<std::thread> donors;
  for (const char* name : {"p", "q"}) {
    donors.emplace_back([&server, name] {
      auto ccfg = client_config(server.port(), name);
      ccfg.exit_when_idle = false;
      Client(ccfg).run();
    });
  }
  EXPECT_TRUE(eventually([] { return parked_requests() == 2; }));
  server.drain();
  for (auto& t : donors) t.join();
  EXPECT_EQ(parked_requests(), 0);
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
}

TEST(ServerClient, LongPollClosedConnectionLeavesNothingParked) {
  auto cfg = long_poll_config();
  cfg.policy_spec = "fixed:100000";
  Server server(cfg);
  server.start();
  const auto timeouts = counter("server.park_timeouts");
  // A leased unit keeps its problem open, so the departure of `gone` wakes
  // one parked request, the first in line: `first`'s. Only the close
  // itself can drop `gone`'s.
  auto held = std::make_shared<ToySumDataManager>(100000);
  auto held_pid = server.submit_problem(held);
  RawDonor holder(server, "holder");
  auto assignment = holder.request_work();
  ASSERT_EQ(assignment.type, net::MessageType::kWorkAssignment);
  RawDonor first(server, "first");
  first.send_request_work();
  ASSERT_TRUE(settle({&first}, 1));
  {
    RawDonor gone(server, "gone");
    gone.send_request_work();
    ASSERT_TRUE(settle({&first, &gone}, 2));
  }  // closed while parked
  ASSERT_TRUE(eventually([&first] { return first.stream.readable(0); }));
  auto woken = net::read_message(first.stream);
  ASSERT_EQ(woken.type, net::MessageType::kNoWorkAvailable);
  EXPECT_FALSE(decode_no_work(woken).all_problems_complete);
  ASSERT_TRUE(eventually([] { return parked_requests() == 0; }));
  auto ack = holder.submit(decode_work_assignment(assignment).unit);
  EXPECT_TRUE(decode_result_ack(ack).accepted);
  EXPECT_TRUE(server.wait_for_problem(held_pid, 1.0));

  // A later persistent donor parks in its place and the next submit
  // reaches it, not the dead connection.
  auto ccfg = client_config(server.port(), "later");
  ccfg.exit_when_idle = false;
  Client client(ccfg);
  std::thread donor([&] { client.run(); });
  EXPECT_TRUE(eventually([] { return parked_requests() == 1; }));
  auto dm = std::make_shared<ToySumDataManager>(200000);
  auto pid = server.submit_problem(dm);
  EXPECT_TRUE(server.wait_for_problem(pid, 10.0));
  server.drain();
  donor.join();
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_EQ(counter("server.park_timeouts"), timeouts);
  server.stop();
  EXPECT_EQ(parked_requests(), 0);
}

// A ToySum Algorithm that counts the live instances of its kind.
class CountedToySum final : public Algorithm {
 public:
  explicit CountedToySum(std::atomic<int>& live) : live_(live) { live_ += 1; }
  ~CountedToySum() override { live_ -= 1; }
  void initialize(std::span<const std::byte> data) override {
    inner_.initialize(data);
  }
  std::vector<std::byte> process(const WorkUnit& unit) override {
    return inner_.process(unit);
  }

 private:
  std::atomic<int>& live_;
  test::ToySumAlgorithm inner_;
};

TEST(ServerClient, PersistentDonorLetsGoOfFinishedProblems) {
  // A persistent donor serves one job after another. Told that every
  // problem is complete, it drops what it built for them, so what it
  // holds does not grow with the jobs it has served.
  std::atomic<int> live{0};
  int created = 0;
  AlgorithmRegistry registry;
  registry.register_algorithm(test::kToyAlgorithmName, [&live, &created] {
    created += 1;  // only the donor's work loop creates
    return std::make_unique<CountedToySum>(live);
  });
  Server server(quick_server_config());
  server.start();
  auto ccfg = client_config(server.port(), "persistent");
  ccfg.exit_when_idle = false;
  ccfg.registry = &registry;
  Client client(ccfg);
  std::thread donor([&] { client.run(); });
  for (std::uint64_t job = 0; job < 3; ++job) {
    auto dm = std::make_shared<ToySumDataManager>(200000, job);  // new data
    auto pid = server.submit_problem(dm);
    EXPECT_TRUE(server.wait_for_problem(pid, 30.0)) << "job " << job;
    EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
    EXPECT_TRUE(eventually([&live] { return live.load() == 0; }))
        << "job " << job << " left " << live.load() << " Algorithm(s) alive";
  }
  server.drain();
  donor.join();
  EXPECT_EQ(created, 3);  // one per job
  server.stop();
}

// A ToySum problem that fails on purpose: kDecoder's result decoder always
// throws a standard-library exception rather than an hdcs::Error (so the
// problem never completes); kGeneratorOnce's next_unit throws an Error
// once, so the server answers that RequestWork Error.
class FaultyToyDataManager final : public DataManager {
 public:
  enum class Fault { kDecoder, kGeneratorOnce };
  FaultyToyDataManager(std::uint64_t n, Fault fault)
      : inner_(n), fault_(fault) {}
  [[nodiscard]] std::string algorithm_name() const override {
    return inner_.algorithm_name();
  }
  [[nodiscard]] std::vector<std::byte> problem_data() const override {
    return inner_.problem_data();
  }
  std::optional<WorkUnit> next_unit(const SizeHint& hint) override {
    if (fault_ == Fault::kGeneratorOnce && !fired_) {
      fired_ = true;
      throw Error("unit generator hiccup");
    }
    return inner_.next_unit(hint);
  }
  void accept_result(const ResultUnit& result) override {
    if (fault_ == Fault::kDecoder) {
      throw std::out_of_range("result decoder read past the end");
    }
    inner_.accept_result(result);
  }
  [[nodiscard]] bool is_complete() const override {
    return fault_ != Fault::kDecoder && inner_.is_complete();
  }
  [[nodiscard]] std::vector<std::byte> final_result() const override {
    return inner_.final_result();
  }
  [[nodiscard]] std::uint64_t expected() const { return inner_.expected(); }

 private:
  ToySumDataManager inner_;
  Fault fault_;
  bool fired_ = false;
};

TEST(ServerClient, NonErrorExceptionFromDataManagerAnswersErrorFrame) {
  Server server(quick_server_config());
  server.start();
  const auto exceptions = counter("server.handler_exceptions");
  server.submit_problem(std::make_shared<FaultyToyDataManager>(
      100000, FaultyToyDataManager::Fault::kDecoder));
  RawDonor raw(server, "raw");
  auto assignment = raw.request_work();
  ASSERT_EQ(assignment.type, net::MessageType::kWorkAssignment);
  EXPECT_EQ(raw.submit(decode_work_assignment(assignment).unit).type,
            net::MessageType::kError);
  EXPECT_EQ(counter("server.handler_exceptions"), exceptions + 1);

  // The server lives on and finishes a healthy problem for other donors.
  auto dm = std::make_shared<ToySumDataManager>(2000000, 7);
  auto pid = server.submit_problem(dm);
  std::vector<std::thread> donors;
  for (const char* name : {"d", "e"}) {
    donors.emplace_back(
        [&server, name] { Client(client_config(server.port(), name)).run(); });
  }
  EXPECT_TRUE(server.wait_for_problem(pid, 30.0));
  server.drain();  // the broken problem never completes
  for (auto& t : donors) t.join();
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  server.stop();
}

// ---- The connection is the session -------------------------------------

TEST(ServerClient, SessionHostileDonorVotesOnlyAsItself) {
  // A hostile donor votes twice on a replicated unit. No frame names a
  // client, so its second SubmitResult on its connection is its own
  // duplicate vote, not a vote for another donor: the lie waits for an
  // honest vote.
  auto cfg = quick_server_config();
  cfg.scheduler.replication_factor = 2;
  cfg.scheduler.quorum = 2;
  cfg.scheduler.spot_check_rate = 0.0;
  Server server(cfg);
  server.start();
  auto dm = std::make_shared<ToySumDataManager>(1000);  // one unit
  auto pid = server.submit_problem(dm);

  RawDonor honest(server, "honest");
  RawDonor hostile(server, "hostile");
  auto lease = hostile.request_work();
  ASSERT_EQ(lease.type, net::MessageType::kWorkAssignment);
  const WorkUnit unit = decode_work_assignment(lease).unit;
  auto lie = [] {
    ByteWriter w;
    w.u64(42);
    return w.take();
  };
  EXPECT_TRUE(decode_result_ack(hostile.submit(unit, lie())).accepted);
  EXPECT_FALSE(decode_result_ack(hostile.submit(unit, lie())).accepted);
  EXPECT_EQ(server.stats().votes_recorded, 1u);
  EXPECT_EQ(server.stats().duplicate_results_dropped, 1u);
  EXPECT_EQ(server.stats().vote_quorums, 0u);

  // The honest vote ties it; a third donor's tie-breaker settles it.
  auto replica = honest.request_work();
  ASSERT_EQ(replica.type, net::MessageType::kWorkAssignment);
  EXPECT_TRUE(
      decode_result_ack(honest.submit(decode_work_assignment(replica).unit))
          .accepted);
  EXPECT_EQ(server.stats().vote_quorums, 0u);
  Client(client_config(server.port(), "referee")).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  for (const auto& c : server.client_stats()) {
    EXPECT_EQ(c.vote_losses, c.name == "hostile" ? 1u : 0u) << c.name;
  }
  server.stop();
}

TEST(ServerClient, SessionSecondHelloIsRefused) {
  // One Hello per connection: a second one is answered Error and changes
  // nothing — no second row, and the first id keeps its lease.
  Server server(quick_server_config());
  server.start();
  server.submit_problem(std::make_shared<ToySumDataManager>(200000));
  {
    RawDonor raw(server, "first");
    auto lease = raw.request_work();
    ASSERT_EQ(lease.type, net::MessageType::kWorkAssignment);
    net::write_message(raw.stream, encode_hello({"second", 1e6}, raw.corr++));
    EXPECT_EQ(net::read_message(raw.stream).type, net::MessageType::kError);
    auto rows = server.client_stats();
    EXPECT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows.front().id, raw.id);
    EXPECT_EQ(rows.front().stats.outstanding, 1);
    // The connection still speaks for the first id.
    EXPECT_TRUE(decode_result_ack(raw.submit(decode_work_assignment(lease).unit))
                    .accepted);
    EXPECT_EQ(server.client_stats().front().stats.units_completed, 1);
  }  // closed without a Goodbye: the departure is the close
  EXPECT_TRUE(eventually([&] { return active_clients(server) == 0; }));
  EXPECT_EQ(active_clients(server), 0);
  server.stop();
}

TEST(ServerClient, SessionErrorReplyEndsSessionWithoutOrphan) {
  // An Error reply ends the donor's session like a corrupt frame: it
  // closes the connection (its row departs), backs off one step and says
  // Hello on a new one. No row is left active behind it.
  Server server(quick_server_config());
  server.start();
  auto dm = std::make_shared<FaultyToyDataManager>(
      200000, FaultyToyDataManager::Fault::kGeneratorOnce);
  auto pid = server.submit_problem(dm);
  auto stats = Client(client_config(server.port(), "hiccup")).run();
  ASSERT_TRUE(server.wait_for_problem(pid, 30.0));
  EXPECT_EQ(test::read_u64_result(server.final_result(pid)), dm->expected());
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_TRUE(eventually([&] { return active_clients(server) == 0; }));
  EXPECT_EQ(active_clients(server), 0);
  EXPECT_EQ(server.client_stats().size(), 2u);  // one row per session
  server.stop();
}

TEST(Server, StopIsIdempotentAndStartableOnce) {
  Server server(quick_server_config());
  server.start();
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // no crash
}

}  // namespace
}  // namespace hdcs::dist
