// Microbenchmarks of the transport layer over loopback: framed round trips
// (the "RMI replacement" control path) and bulk blob transfers (the
// "ordinary sockets" data path of paper §2.2), plus the connection-storm
// harness gating the epoll server: N simulated donors multiplexed on one
// client-side event loop do hello + H one-way keepalives + a request/submit
// round against a live Server, reporting joins/sec, the RequestWork and
// SubmitResult round-trip p99 and the process's resident thread count
// (which must stay at the configured io-threads + worker-pool budget no
// matter how many donors connect).
//
// Standalone storm mode (the CI net-storm leg):
//   bench_net --storm 2000 [--heartbeats H] [--io-threads K] [--workers W]
//             [--out build/BENCH_NET.json]

#include <benchmark/benchmark.h>
#include <sys/epoll.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

#include "dist/server.hpp"
#include "dist/wire.hpp"
#include "net/bulk.hpp"
#include "net/compress.hpp"
#include "net/event_loop.hpp"
#include "net/frame_reader.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "tests/toy_problem.hpp"
#include "util/rng.hpp"

using namespace hdcs;
using namespace hdcs::net;

namespace {

struct Loop {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client;
  TcpStream server;
  std::thread echo;

  /// Echo server: reads a frame, sends it back; empty Goodbye frame stops.
  Loop() {
    std::thread connector(
        [&] { client = TcpStream::connect("127.0.0.1", listener.port()); });
    server = std::move(*listener.accept(5000));
    connector.join();
    echo = std::thread([this] {
      try {
        for (;;) {
          Message m = read_message(server);
          if (m.type == MessageType::kGoodbye) return;
          write_message(server, m);
        }
      } catch (const Error&) {
      }
    });
  }

  ~Loop() {
    try {
      Message bye;
      bye.type = MessageType::kGoodbye;
      write_message(client, bye);
    } catch (const Error&) {
    }
    if (echo.joinable()) echo.join();
  }
};

void BM_MessageRoundTrip(benchmark::State& state) {
  Loop loop;
  auto payload_size = static_cast<std::size_t>(state.range(0));
  Message m;
  m.type = MessageType::kHeartbeat;
  m.payload.assign(payload_size, std::byte{0x5a});
  for (auto _ : state) {
    write_message(loop.client, m);
    Message reply = read_message(loop.client);
    benchmark::DoNotOptimize(reply.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size) * 2);
}
BENCHMARK(BM_MessageRoundTrip)->Arg(0)->Arg(256)->Arg(4096)->Arg(65536);

/// Blob bytes with a controllable compression ratio: entropy 0 = one
/// repeated motif (FASTA-like redundancy), 1 = uniform random residues.
std::vector<std::byte> mixed_blob(std::size_t size, double entropy) {
  Rng rng(7);
  static constexpr char kMotif[] = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ";
  std::vector<std::byte> blob(size);
  for (std::size_t i = 0; i < size; ++i) {
    bool random = rng.next_double() < entropy;
    blob[i] = static_cast<std::byte>(
        random ? rng.next_u64() & 0xff : kMotif[i % (sizeof kMotif - 1)]);
  }
  return blob;
}

/// The blob data path (header + optional LZ + body) over loopback;
/// range(1) is entropy in percent, so the compressible and incompressible
/// cases are separate timing series.
void BM_BulkTransferV4(benchmark::State& state) {
  auto size = static_cast<std::size_t>(state.range(0));
  auto blob = mixed_blob(size, static_cast<double>(state.range(1)) / 100.0);

  TcpListener listener = TcpListener::bind(0);
  TcpStream client;
  std::thread connector(
      [&] { client = TcpStream::connect("127.0.0.1", listener.port()); });
  TcpStream server = std::move(*listener.accept(5000));
  connector.join();

  std::uint64_t wire = 0;
  for (auto _ : state) {
    BlobWireInfo info;
    std::thread sender([&] { info = send_blob_v4(client, blob); });
    auto received = recv_blob_v4(server);
    sender.join();
    wire += info.wire_bytes;
    benchmark::DoNotOptimize(received.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.counters["wire_ratio"] =
      state.iterations()
          ? static_cast<double>(wire) /
                (static_cast<double>(state.iterations()) *
                 static_cast<double>(size))
          : 0;
}
BENCHMARK(BM_BulkTransferV4)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 100})
    ->Args({8 << 20, 0});

void BM_LzCompress(benchmark::State& state) {
  auto blob =
      mixed_blob(static_cast<std::size_t>(state.range(0)),
                 static_cast<double>(state.range(1)) / 100.0);
  for (auto _ : state) {
    auto packed = lz_compress(blob);
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompress)->Args({1 << 20, 0})->Args({1 << 20, 100});

void BM_LzDecompress(benchmark::State& state) {
  auto blob = mixed_blob(static_cast<std::size_t>(state.range(0)), 0.0);
  auto packed = lz_compress(blob);
  if (!packed) {
    state.SkipWithError("motif blob unexpectedly incompressible");
    return;
  }
  for (auto _ : state) {
    auto raw = lz_decompress(*packed, blob.size());
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> data(size, std::byte{0xab});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

// ---- Connection storm: N donors on one client-side event loop ----

struct StormOptions {
  std::size_t donors = 2000;
  int heartbeats = 3;  // one-way keepalives each donor sends after Hello
  int io_threads = 1;
  int worker_threads = 4;
  std::size_t connect_burst = 256;  // un-acked connects in flight at once
  double deadline_s = 300.0;
};

struct StormReport {
  std::size_t donors = 0;
  std::size_t joined = 0;
  std::size_t failed_connects = 0;
  std::size_t peak_concurrent = 0;
  double join_window_s = 0;
  double joins_per_sec = 0;
  double request_rtt_p99_ms = 0;  // RequestWork and SubmitResult round trips
  std::uint64_t requests = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t work_units = 0;
  int resident_threads = 0;  // peak "Threads:" from /proc/self/status
  bool timed_out = false;
};

int resident_threads_now() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

/// Raise RLIMIT_NOFILE to the hard cap and return how many donors fit:
/// each donor costs two descriptors (client end + server end, same
/// process) plus headroom for the server/loop plumbing.
std::size_t raise_fd_limit_and_clamp(std::size_t donors) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
    getrlimit(RLIMIT_NOFILE, &lim);
  }
  std::size_t budget = lim.rlim_cur > 128 ? (lim.rlim_cur - 128) / 2 : 1;
  if (donors > budget) {
    std::fprintf(stderr,
                 "storm: RLIMIT_NOFILE %llu only fits %zu donors, clamping "
                 "from %zu\n",
                 static_cast<unsigned long long>(lim.rlim_cur), budget, donors);
    return budget;
  }
  return donors;
}

class Storm {
 public:
  explicit Storm(const StormOptions& opt) : opt_(opt) {}

  StormReport run() {
    using Clock = std::chrono::steady_clock;
    test::register_toy_algorithm();
    dist::ServerConfig cfg;
    cfg.scheduler.lease_timeout = 600.0;
    cfg.scheduler.bounds.min_ops = 1000;
    cfg.scheduler.bounds.max_ops = 20000;  // keep units tiny: the storm
    cfg.policy_spec = "adaptive:0.05";     // measures I/O, not toy_f sums
    cfg.io_threads = opt_.io_threads;
    cfg.worker_threads = opt_.worker_threads;
    dist::Server server(cfg);
    server.start();
    server.submit_problem(
        std::make_shared<test::ToySumDataManager>(1ull << 40));
    port_ = server.port();

    donors_.resize(opt_.donors);
    for (std::size_t i = 0; i < donors_.size(); ++i) {
      donors_[i] = std::make_unique<Donor>();
      donors_[i]->index = i;
    }
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(opt_.deadline_s));
    rtts_ms_.reserve(opt_.donors * 2);

    loop_.add_periodic(0.02, [this] { launch_more(); });
    loop_.add_periodic(0.5, [this] {
      report_.resident_threads =
          std::max(report_.resident_threads, resident_threads_now());
      if (Clock::now() > deadline_) {
        report_.timed_out = true;
        loop_.stop();
      }
    });
    loop_.post([this] { launch_more(); });
    loop_.run();  // the bench thread IS the donor-side loop

    report_.donors = opt_.donors;
    report_.joined = joined_;
    report_.failed_connects = failed_;
    report_.requests = rtts_ms_.size();
    report_.join_window_s = join_window_s_;
    report_.joins_per_sec =
        join_window_s_ > 0 ? static_cast<double>(joined_) / join_window_s_ : 0;
    if (!rtts_ms_.empty()) {
      std::sort(rtts_ms_.begin(), rtts_ms_.end());
      report_.request_rtt_p99_ms =
          rtts_ms_[std::min(rtts_ms_.size() - 1, rtts_ms_.size() * 99 / 100)];
    }
    report_.resident_threads =
        std::max(report_.resident_threads, resident_threads_now());
    server.stop();
    return report_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Donor {
    enum class Phase { kUnstarted, kConnecting, kActive, kClosed };
    Phase phase = Phase::kUnstarted;
    net::TcpStream stream;
    net::FrameReader reader;
    std::vector<std::byte> out;  // pending unsent bytes
    std::size_t out_off = 0;
    int connect_attempts = 0;
    bool joined = false;
    bool idle = false;  // finished its script, waiting for the last join
    std::uint64_t corr = 1;
    Clock::time_point request_sent;
    std::size_t index = 0;
  };

  void launch_more() {
    while (launched_ < donors_.size() &&
           launched_ - joined_ - failed_ < opt_.connect_burst) {
      launch(*donors_[launched_]);
      ++launched_;
    }
  }

  void launch(Donor& d) {
    try {
      d.stream = net::TcpStream::connect_nonblocking("127.0.0.1", port_);
    } catch (const hdcs::Error&) {
      fail(d);
      return;
    }
    ++d.connect_attempts;
    d.phase = Donor::Phase::kConnecting;
    Donor* p = &d;
    loop_.add_fd(d.stream.fd(), EPOLLOUT,
                 [this, p](std::uint32_t ev) { event(*p, ev); });
  }

  void fail(Donor& d) {
    if (d.stream.valid()) {
      loop_.remove_fd(d.stream.fd());
      d.stream.close();
    }
    if (d.connect_attempts < 5) {  // listen-backlog overflow: try again
      d.phase = Donor::Phase::kUnstarted;
      launch(d);
      return;
    }
    d.phase = Donor::Phase::kClosed;
    ++failed_;
    maybe_all_joined();
    finish(d);
  }

  /// Every donor has either joined or permanently failed: stamp the join
  /// window and let idle donors (concurrency holders) say goodbye.
  void maybe_all_joined() {
    if (joined_ + failed_ != donors_.size()) return;
    if (join_window_s_ == 0) {
      join_window_s_ =
          std::chrono::duration<double>(Clock::now() - start_).count();
    }
    release_idlers();
  }

  void close_donor(Donor& d) {
    if (d.stream.valid()) {
      loop_.remove_fd(d.stream.fd());
      d.stream.close();
    }
    d.phase = Donor::Phase::kClosed;
    finish(d);
  }

  void finish(Donor&) {
    ++done_;
    if (done_ == donors_.size()) loop_.stop();
  }

  void event(Donor& d, std::uint32_t ev) {
    try {
      if (d.phase == Donor::Phase::kConnecting) {
        if (int err = d.stream.socket_error(); err != 0) {
          fail(d);
          return;
        }
        d.phase = Donor::Phase::kActive;
        open_now_ += 1;
        report_.peak_concurrent = std::max(report_.peak_concurrent, open_now_);
        dist::HelloPayload hello;
        hello.client_name = "storm-" + std::to_string(d.index);
        hello.benchmark_ops_per_sec = 1e6;
        queue(d, dist::encode_hello(hello, d.corr++));
        flush(d);
        return;
      }
      if (ev & (EPOLLERR | EPOLLHUP)) {
        on_eof(d);
        return;
      }
      if (ev & EPOLLOUT) flush(d);
      if (ev & EPOLLIN) readable(d);
    } catch (const hdcs::Error&) {
      on_eof(d);
    }
  }

  void readable(Donor& d) {
    std::byte buf[4096];
    std::vector<net::Message> msgs;
    for (int round = 0; round < 16; ++round) {
      auto n = d.stream.recv_nb(buf);
      if (!n) break;  // EAGAIN
      if (*n == 0) {
        on_eof(d);
        return;
      }
      d.reader.feed(std::span(buf, *n), msgs);
    }
    for (auto& m : msgs) {
      on_message(d, m);
      if (d.phase == Donor::Phase::kClosed) return;
    }
    flush(d);
  }

  void on_eof(Donor& d) {
    if (d.phase == Donor::Phase::kActive) open_now_ -= 1;
    close_donor(d);
  }

  void on_message(Donor& d, const net::Message& m) {
    using net::MessageType;
    if (d.joined) {
      // Past the HelloAck, every reply answers a timed RequestWork or
      // SubmitResult.
      rtts_ms_.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - d.request_sent)
                             .count());
    }
    switch (m.type) {
      case MessageType::kHelloAck: {
        dist::decode_hello_ack(m);
        d.joined = true;
        ++joined_;
        maybe_all_joined();
        // Keepalives are one-way: the server consumes them on its loop
        // thread, and the RequestWork behind them is answered in order.
        net::Message beat;
        beat.type = MessageType::kHeartbeat;
        for (int i = 0; i < opt_.heartbeats; ++i) queue(d, beat);
        report_.heartbeats += static_cast<std::uint64_t>(opt_.heartbeats);
        send_request(d, dist::encode_request_work(d.corr++));
        break;
      }
      case MessageType::kWorkAssignment: {
        auto unit = dist::decode_work_assignment(m).unit;
        ByteReader r(unit.payload);
        std::uint64_t begin = r.u64();
        std::uint64_t end = r.u64();
        std::uint64_t sum = 0;
        for (std::uint64_t i = begin; i < end; ++i) sum += test::toy_f(i);
        dist::ResultUnit result;
        result.problem_id = unit.problem_id;
        result.unit_id = unit.unit_id;
        result.stage = unit.stage;
        result.epoch = unit.epoch;
        ByteWriter w;
        w.u64(sum);
        result.payload = w.take();
        result.payload_crc = net::crc32(result.payload);
        ++report_.work_units;
        send_request(d, dist::encode_submit_result(result, d.corr++));
        break;
      }
      case MessageType::kNoWorkAvailable:
      case MessageType::kResultAck:
      case MessageType::kRetryLater:
      case MessageType::kShutdown:
      case MessageType::kError:
        script_done(d);
        break;
      default:
        break;
    }
  }

  void send_request(Donor& d, const net::Message& m) {
    d.request_sent = Clock::now();
    queue(d, m);
  }

  /// The donor finished its script. It stays connected (idle) until every
  /// donor has joined — the storm measures N *concurrent* connections, not
  /// N sequential ones — then says goodbye and waits for the server-side
  /// close.
  void script_done(Donor& d) {
    if (joined_ + failed_ >= donors_.size()) {
      say_goodbye(d);
    } else {
      d.idle = true;
    }
  }

  void release_idlers() {
    for (auto& dp : donors_) {
      if (dp->idle && dp->phase == Donor::Phase::kActive) {
        dp->idle = false;
        say_goodbye(*dp);
      }
    }
  }

  void say_goodbye(Donor& d) {
    queue(d, dist::encode_goodbye(d.corr++));
    flush(d);  // EOF from the server-side close ends the connection
  }

  void queue(Donor& d, const net::Message& m) {
    auto frame = net::encode_frame(m);
    d.out.insert(d.out.end(), frame.begin(), frame.end());
  }

  void flush(Donor& d) {
    while (d.out_off < d.out.size()) {
      auto n = d.stream.send_nb(std::span(d.out).subspan(d.out_off));
      if (!n) break;  // EAGAIN: EPOLLOUT stays armed below
      d.out_off += *n;
    }
    if (d.out_off >= d.out.size()) {
      d.out.clear();
      d.out_off = 0;
    }
    loop_.modify_fd(d.stream.fd(),
                    EPOLLIN | (d.out.empty() ? 0u : EPOLLOUT));
  }

  StormOptions opt_;
  StormReport report_;
  net::EventLoop loop_;
  std::vector<std::unique_ptr<Donor>> donors_;
  std::uint16_t port_ = 0;
  std::size_t launched_ = 0;
  std::size_t joined_ = 0;
  std::size_t failed_ = 0;
  std::size_t done_ = 0;
  std::size_t open_now_ = 0;
  double join_window_s_ = 0;
  std::vector<double> rtts_ms_;
  Clock::time_point start_;
  Clock::time_point deadline_;
};

StormReport run_storm(StormOptions opt) {
  opt.donors = raise_fd_limit_and_clamp(opt.donors);
  Storm storm(opt);
  return storm.run();
}

void BM_ConnectionStorm(benchmark::State& state) {
  StormOptions opt;
  opt.donors = static_cast<std::size_t>(state.range(0));
  opt.heartbeats = 2;
  for (auto _ : state) {
    auto rep = run_storm(opt);
    if (rep.timed_out || rep.joined < rep.donors) {
      state.SkipWithError("storm did not complete");
      return;
    }
    state.counters["joins_per_sec"] = rep.joins_per_sec;
    state.counters["rtt_p99_ms"] = rep.request_rtt_p99_ms;
    state.counters["resident_threads"] =
        static_cast<double>(rep.resident_threads);
  }
}
BENCHMARK(BM_ConnectionStorm)->Arg(512)->Iterations(1)->Unit(benchmark::kMillisecond);

int storm_main(int argc, char** argv) {
  StormOptions opt;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--storm") {
      opt.donors = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--heartbeats") {
      opt.heartbeats = std::atoi(next());
    } else if (arg == "--io-threads") {
      opt.io_threads = std::atoi(next());
    } else if (arg == "--workers") {
      opt.worker_threads = std::atoi(next());
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr, "unknown storm flag: %s\n", arg.c_str());
      return 2;
    }
  }
  auto rep = run_storm(opt);
  std::printf(
      "storm: %zu donors, %zu joined (%zu failed), peak %zu concurrent\n"
      "  joins/sec        %.1f (window %.2fs)\n"
      "  request p99      %.2f ms over %llu round trips\n"
      "  keepalives       %llu (one-way)\n"
      "  work units       %llu\n"
      "  resident threads %d (io=%d workers=%d)\n",
      rep.donors, rep.joined, rep.failed_connects, rep.peak_concurrent,
      rep.joins_per_sec, rep.join_window_s, rep.request_rtt_p99_ms,
      static_cast<unsigned long long>(rep.requests),
      static_cast<unsigned long long>(rep.heartbeats),
      static_cast<unsigned long long>(rep.work_units), rep.resident_threads,
      opt.io_threads, opt.worker_threads);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n  \"schema\": \"hdcs-bench-net-v1\",\n  \"config\": {"
        << "\"donors\": " << rep.donors
        << ", \"heartbeats\": " << opt.heartbeats
        << ", \"io_threads\": " << opt.io_threads
        << ", \"worker_threads\": " << opt.worker_threads << "},\n"
        << "  \"storm\": {\n"
        << "    \"donors\": " << rep.donors << ",\n"
        << "    \"joined\": " << rep.joined << ",\n"
        << "    \"failed_connects\": " << rep.failed_connects << ",\n"
        << "    \"peak_concurrent\": " << rep.peak_concurrent << ",\n"
        << "    \"join_window_s\": " << rep.join_window_s << ",\n"
        << "    \"joins_per_sec\": " << rep.joins_per_sec << ",\n"
        << "    \"request_rtt_p99_ms\": " << rep.request_rtt_p99_ms
        << ",\n"
        << "    \"requests\": " << rep.requests << ",\n"
        << "    \"heartbeats\": " << rep.heartbeats << ",\n"
        << "    \"work_units\": " << rep.work_units << ",\n"
        << "    \"resident_threads\": " << rep.resident_threads << "\n"
        << "  }\n}\n";
  }
  bool ok = !rep.timed_out && rep.joined == rep.donors;
  if (!ok) std::fprintf(stderr, "storm FAILED to join every donor\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--storm") == 0) return storm_main(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
