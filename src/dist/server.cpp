#include "dist/server.hpp"

#include <sys/epoll.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "dist/wire.hpp"
#include "net/bulk.hpp"
#include "net/fault.hpp"
#include "net/frame_reader.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/vfs.hpp"

namespace hdcs::dist {

namespace {
// Request-handling latency, one histogram per client->server message type.
// Measures decode + scheduling + encode, i.e. everything between reading
// the request frame and writing the response frame.
obs::Histogram* handler_histogram(net::MessageType type) {
  auto& reg = obs::Registry::global();
  auto make = [&reg](const char* name) {
    return &reg.histogram(std::string("server.handle_s.") + name,
                          obs::Histogram::latency_bounds());
  };
  switch (type) {
    case net::MessageType::kHello: {
      static obs::Histogram* h = make("Hello");
      return h;
    }
    case net::MessageType::kRequestWork: {
      static obs::Histogram* h = make("RequestWork");
      return h;
    }
    case net::MessageType::kSubmitResult: {
      static obs::Histogram* h = make("SubmitResult");
      return h;
    }
    case net::MessageType::kFetchBlobs: {
      static obs::Histogram* h = make("FetchBlobs");
      return h;
    }
    case net::MessageType::kFetchStats: {
      static obs::Histogram* h = make("FetchStats");
      return h;
    }
    default:
      return nullptr;  // Goodbye closes the connection; others are errors
                       // (Heartbeat never leaves the loop thread)
  }
}

obs::Gauge& connected_gauge() {
  static obs::Gauge* g =
      &obs::Registry::global().gauge("server.connected_clients");
  return *g;
}

// Event-loop health counters (net.loop.wakeups / lag_s / fds live in
// net/event_loop.cpp; these are the server-side flow-control ones).
struct LoopIoMetrics {
  obs::Counter& eagain_writes =
      obs::Registry::global().counter("net.loop.eagain_writes");
  obs::Counter& backpressure_stalls =
      obs::Registry::global().counter("net.loop.backpressure_stalls");
  obs::Counter& connections_shed =
      obs::Registry::global().counter("net.loop.connections_shed");
  obs::Gauge& write_queue_hwm =
      obs::Registry::global().gauge("net.loop.write_queue_hwm");
};
LoopIoMetrics& loop_io_metrics() {
  static LoopIoMetrics m;
  return m;
}

// Long-poll instruments: requests held right now (summed over servers in
// the process), how long each was held before its answer, and what
// answered it — an event that can create work, or the deadline.
struct ParkMetrics {
  obs::Gauge& parked =
      obs::Registry::global().gauge("server.parked_requests");
  obs::Histogram& park_s = obs::Registry::global().histogram(
      "server.park_s", obs::Histogram::latency_bounds());
  obs::Counter& wakes = obs::Registry::global().counter("server.park_wakes");
  obs::Counter& timeouts =
      obs::Registry::global().counter("server.park_timeouts");
};
ParkMetrics& park_metrics() {
  static ParkMetrics m;
  return m;
}

// Group-commit instruments: acks held for an fsync right now (summed over
// servers in the process) and how long each was held, append to release.
struct HoldMetrics {
  obs::Gauge& held = obs::Registry::global().gauge("server.held_acks");
  obs::Histogram& hold_s = obs::Registry::global().histogram(
      "server.ack_hold_s", obs::Histogram::latency_bounds());
};
HoldMetrics& hold_metrics() {
  static HoldMetrics m;
  return m;
}

constexpr std::size_t kAllParked = static_cast<std::size_t>(-1);

std::chrono::steady_clock::duration steady_seconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}
}  // namespace

// One hot standby's outbound record queue. Handlers push (under
// core_mutex_, in core-mutation order) the same encoded payloads the WAL
// stores; the replica connection's thread drains them into WalAppend
// batches. A standby that stops acking while records pile up overflows and
// is disconnected — it resyncs from a fresh snapshot instead of wedging
// the primary on an unbounded queue.
struct Server::ReplicaFeed {
  static constexpr std::size_t kMaxQueued = 1u << 16;

  std::mutex m;
  std::condition_variable cv;
  std::deque<std::vector<std::byte>> q;
  bool overflow = false;

  void push(const std::vector<std::byte>& rec) {
    {
      std::lock_guard lock(m);
      if (q.size() >= kMaxQueued) {
        overflow = true;
        q.clear();
      } else {
        q.push_back(rec);
      }
    }
    cv.notify_one();
  }
};

// One epoll loop, its thread, and the connections pinned to it. `conns` is
// touched only from the loop's own thread.
struct Server::IoLoop {
  net::EventLoop loop;
  std::thread thread;
  std::unordered_set<std::shared_ptr<Conn>> conns;
};

// Per-connection state machine. Everything here is owned by the
// connection's loop thread, except client_id: the client this connection's
// Hello registered (0 = none), written on the loop thread as Hello/Goodbye
// outcomes land and read by workers, which take every request's client
// from it.
struct Server::Conn {
  net::TcpStream stream;
  IoLoop* io = nullptr;
  net::FrameReader reader;
  std::deque<net::Message> inbox;  // parsed requests awaiting a worker slot
  bool busy = false;               // one worker job in flight at a time
  bool closed = false;
  bool paused = false;            // backpressure: EPOLLIN off
  bool want_write = false;        // EPOLLOUT armed (kernel buffer was full)
  bool close_after_flush = false; // Goodbye: serve nothing more, close
                                  // once the queue drains
  std::uint32_t armed = 0;        // epoll mask currently registered
  std::atomic<ClientId> client_id{0};
  /// Set by the loop when the connection closes (guarded by park_mutex_):
  /// a worker must not park a request nobody can receive.
  bool hung_up = false;
  /// problem_gen_ when this connection was last told every problem is
  /// complete (guarded by core_mutex_; 0 = never).
  std::uint64_t told_complete_gen = 0;

  struct Chunk {
    std::vector<std::byte> bytes;
    std::size_t off = 0;
    /// Blob-budget bytes released when this chunk finishes sending (or the
    /// connection dies with it queued).
    std::size_t release = 0;
  };
  std::deque<Chunk> outq;
  std::size_t outq_bytes = 0;

  /// Mid-structure stall guard: set while the reader is inside a frame,
  /// re-armed on every read that makes progress, swept at 1 Hz.
  std::chrono::steady_clock::time_point read_deadline{};
  /// Write-stall guard: set when the queue is non-empty and the kernel
  /// refuses bytes; cleared on any write progress.
  std::chrono::steady_clock::time_point write_deadline{};
  /// Liveness: when bytes last arrived (any frame, keepalives included).
  std::chrono::steady_clock::time_point last_read{};
};

// What a worker hands back to the loop thread: response frames (and bulk
// bodies) already encoded to wire bytes, plus connection-state directives.
struct Server::HandlerOutcome {
  std::vector<std::vector<std::byte>> chunks;  // enqueued in order
  std::size_t inflight_charged = 0;  // blob budget to release after send
  ClientId became_client = 0;        // Hello assigned this id
  bool clear_client = false;         // Goodbye: drop the id before close
  bool close = false;                // close once chunks are flushed
  bool replica = false;              // detach into a replication session
  bool parked = false;               // held: answered by whoever pops it
  bool lead_commit = false;          // run group_commit() after posting
  net::Message request;              // original frame (replica detach)
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      core_(config_.scheduler, make_policy(config_.policy_spec)),
      epoch_(std::chrono::steady_clock::now()) {
  core_.set_tracer(config_.tracer);
  // 0=scalar 1=sse2 2=avx2 3=avx512 (util/simd.hpp); which kernel tier this
  // process dispatches — visible in metrics dumps and hdcs_top.
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));
}

Server::~Server() { stop(); }

double Server::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Server::start() {
  if (running_.exchange(true)) return;
  if (!config_.wal_dir.empty()) {
    WalConfig wc;
    wc.dir = config_.wal_dir;
    wc.segment_bytes = config_.wal_segment_bytes;
    wal_ = std::make_unique<WalLog>(wc);
    wal_->set_tracer(config_.tracer);
    WalRecovery rec = wal_->take_recovery();
    if (rec.base_snapshot || !rec.tail.empty()) {
      std::lock_guard lock(core_mutex_);
      // Replay with the tracer detached: the recovered mutations were
      // already traced by the previous life of this scheduler.
      core_.set_tracer(nullptr);
      if (rec.base_snapshot) {
        ByteReader r(*rec.base_snapshot);
        core_.restore_exact(r);
        r.expect_end();
      }
      for (const WalRecord& wrec : rec.tail) apply_wal_record(core_, wrec);
      core_.set_tracer(config_.tracer);
      double t = now();
      // New term: the torn-off tail may have held unsynced RequestWork
      // records whose unit ids this core will reuse — fence their stale
      // results by epoch, and sweep the dead connections' client rows
      // (which requeues every lease they held).
      enter_new_term("wal_recovery", t);
      last_compact_lsn_ = wal_->next_lsn();
      if (config_.tracer) {
        config_.tracer->event(t, "wal_recovered")
            .u64("records", rec.records_replayable)
            .u64("lsn", wal_->next_lsn())
            .u64("epoch", core_.epoch())
            .u64("torn_bytes", rec.torn_bytes_truncated);
      }
      LOG_INFO("WAL recovery from " << config_.wal_dir << ": "
               << rec.records_replayable << " records over "
               << rec.segments_scanned << " segments, resuming at lsn "
               << wal_->next_lsn() << " epoch " << core_.epoch());
      progress_cv_.notify_all();
    }
  }
  if (wal_) repl_lsn_ = wal_->next_lsn();
  durability_.store(
      static_cast<int>(wal_ ? Durability::kDurable : Durability::kNone));
  obs::Registry::global().gauge("server.durability")
      .set(static_cast<double>(durability_.load()));
  listener_ = net::TcpListener::bind(config_.port);
  port_ = listener_.port();
  if (!config_.primary_host.empty()) standby_.store(true);
  workers_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max(1, config_.worker_threads)));
  io_.clear();
  const int nloops = std::max(1, config_.io_threads);
  for (int i = 0; i < nloops; ++i) io_.push_back(std::make_unique<IoLoop>());
  // The sweep checks every stall and silence deadline; a quarter of the
  // client timeout keeps a silent donor's expiry within 1.25x of it.
  const double sweep_s = config_.client_timeout_s > 0
                             ? std::min(1.0, config_.client_timeout_s / 4)
                             : 1.0;
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    // add_periodic/add_fd are loop-thread-only; queue the setup so it runs
    // as the loop's first task.
    iop->loop.post([this, iop, sweep_s] {
      iop->loop.add_periodic(sweep_s, [this, iop] { sweep_conns(*iop); });
    });
  }
  io_[0]->loop.post([this] {
    io_[0]->loop.add_fd(listener_.fd(), EPOLLIN,
                        [this](std::uint32_t) { accept_ready(); });
  });
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    iop->thread = std::thread([iop] { iop->loop.run(); });
  }
  housekeeper_ = std::thread([this] { housekeeping_loop(); });
  if (standby_.load()) {
    replica_ = std::thread([this] { replica_loop(); });
    LOG_INFO("standby listening on 127.0.0.1:" << port_ << ", syncing from "
             << config_.primary_host << ":" << config_.primary_port);
  } else {
    LOG_INFO("server listening on 127.0.0.1:" << port_);
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();  // end the housekeeper's tick/deadline wait
  }
  // Tear connections down on their own loop threads (each posts its
  // client_left to the workers), stop the loops, then drain the worker
  // queue — shutdown() runs what is queued before joining.
  if (!io_.empty()) {
    io_[0]->loop.post([this] {
      io_[0]->loop.remove_fd(listener_.fd());
      listener_.close();
    });
  }
  for (auto& io : io_) {
    IoLoop* iop = io.get();
    iop->loop.post([this, iop] {
      auto conns = iop->conns;  // disconnect mutates the set
      for (const auto& c : conns) conn_disconnect(c, nullptr);
    });
  }
  for (auto& io : io_) io->loop.stop();
  for (auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }
  if (workers_) workers_->shutdown();
  if (replica_.joinable()) replica_.join();
  if (housekeeper_.joinable()) housekeeper_.join();
  std::vector<std::thread> replicas;
  {
    std::lock_guard lock(replica_threads_mutex_);
    replicas.swap(replica_threads_);
  }
  for (auto& t : replicas) {
    if (t.joinable()) t.join();
  }
  io_.clear();
  workers_.reset();
  progress_cv_.notify_all();
}

ProblemId Server::submit_problem(std::shared_ptr<DataManager> dm) {
  std::lock_guard lock(core_mutex_);
  ProblemId id = core_.submit_problem(std::move(dm));
  problem_gen_ += 1;
  wake_parked_locked();
  progress_cv_.notify_all();
  return id;
}

bool Server::wait_for_problem(ProblemId id, double timeout_s) {
  std::unique_lock lock(core_mutex_);
  auto done = [&] { return core_.problem_complete(id) || !running_.load(); };
  if (timeout_s < 0) {
    progress_cv_.wait(lock, done);
  } else {
    progress_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done);
  }
  return core_.problem_complete(id);
}

bool Server::wait_for_all(double timeout_s) {
  std::unique_lock lock(core_mutex_);
  auto done = [&] { return core_.all_complete() || !running_.load(); };
  if (timeout_s < 0) {
    progress_cv_.wait(lock, done);
  } else {
    progress_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done);
  }
  return core_.all_complete();
}

std::vector<std::byte> Server::final_result(ProblemId id) {
  std::lock_guard lock(core_mutex_);
  return core_.final_result(id);
}

SchedulerStats Server::stats() {
  std::lock_guard lock(core_mutex_);
  return core_.stats();
}

std::vector<ClientInfo> Server::client_stats() {
  std::lock_guard lock(core_mutex_);
  return core_.all_client_stats();
}

namespace {
std::string json_num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}
}  // namespace

std::string Server::stats_json(bool include_clients) {
  SchedulerStats s;
  std::vector<ClientInfo> clients;
  std::uint64_t evicted_completed;
  std::size_t pending;
  std::uint64_t term;
  std::uint64_t wal_lsn;
  double t;
  std::size_t parked;
  std::size_t held;
  {
    std::lock_guard lock(park_mutex_);
    parked = parked_.size();
    held = held_.size();
  }
  {
    std::lock_guard lock(core_mutex_);
    s = core_.stats();
    if (include_clients) clients = core_.all_client_stats();
    evicted_completed = core_.evicted_units_completed();
    pending = core_.pending_units();
    term = core_.epoch();
    wal_lsn = wal_ ? wal_->next_lsn() : 0;
    t = now();
  }
  // Mirrored as a gauge so registry-only consumers (render_text dumps,
  // hdcs_top's metrics pane) see the backlog too.
  obs::Registry::global().gauge("scheduler.units_pending")
      .set(static_cast<double>(pending));
  std::ostringstream out;
  out << "{\"schema\":" << obs::kTraceSchemaVersion << ",\"now\":" << json_num(t)
      << ",\"simd_tier\":\"" << to_string(simd_tier()) << "\""
      << ",\"role\":\"" << (standby_.load() ? "standby" : "primary") << "\""
      << ",\"durability\":\""
      << (durability() == Durability::kDurable
              ? "durable"
              : durability() == Durability::kDegraded ? "degraded" : "none")
      << "\""
      << ",\"epoch\":" << term << ",\"wal_lsn\":" << wal_lsn
      << ",\"connected_clients\":" << connected_.load()
      << ",\"parked_requests\":" << parked << ",\"held_acks\":" << held
      << ",\"scheduler\":{"
      << "\"units_issued\":" << s.units_issued
      << ",\"units_reissued\":" << s.units_reissued
      << ",\"units_hedged\":" << s.units_hedged
      << ",\"results_accepted\":" << s.results_accepted
      << ",\"duplicate_results_dropped\":" << s.duplicate_results_dropped
      << ",\"stale_results_dropped\":" << s.stale_results_dropped
      << ",\"work_requests_unserved\":" << s.work_requests_unserved
      << ",\"clients_expired\":" << clients_expired_.load()
      << ",\"units_quarantined\":" << s.units_quarantined
      << ",\"units_replicated\":" << s.units_replicated
      << ",\"replicas_issued\":" << s.replicas_issued
      << ",\"spot_checks\":" << s.spot_checks
      << ",\"votes_recorded\":" << s.votes_recorded
      << ",\"vote_quorums\":" << s.vote_quorums
      << ",\"vote_mismatches\":" << s.vote_mismatches
      << ",\"results_rejected_mismatch\":" << s.results_rejected_mismatch
      << ",\"results_rejected_digest\":" << s.results_rejected_digest
      << ",\"results_rejected_blacklisted\":" << s.results_rejected_blacklisted
      << ",\"results_rejected_stale_epoch\":" << s.results_rejected_stale_epoch
      << ",\"donors_blacklisted\":" << s.donors_blacklisted
      << ",\"clients_evicted\":" << s.clients_evicted
      << ",\"evicted_units_completed\":" << evicted_completed
      << ",\"units_pending\":" << pending << "}";
  if (include_clients) {
    out << ",\"clients\":[";
    bool first = true;
    for (const auto& c : clients) {
      if (!first) out << ",";
      first = false;
      out << "{\"id\":" << c.id << ",\"name\":\"" << obs::json_escape(c.name)
          << "\",\"active\":" << (c.active ? "true" : "false")
          << ",\"benchmark_ops_per_sec\":" << json_num(c.stats.benchmark_ops_per_sec)
          << ",\"ewma_ops_per_sec\":" << json_num(c.stats.ewma_ops_per_sec)
          << ",\"units_completed\":" << c.stats.units_completed
          << ",\"outstanding\":" << c.stats.outstanding
          << ",\"last_seen\":" << json_num(c.stats.last_seen)
          << ",\"rep\":" << json_num(c.reputation)
          << ",\"blacklisted\":" << (c.blacklisted ? "true" : "false")
          << ",\"vote_wins\":" << c.vote_wins
          << ",\"vote_losses\":" << c.vote_losses << "}";
    }
    out << "]";
  }
  out << ",\"metrics\":" << obs::Registry::global().render_json() << "}";
  return out.str();
}

int Server::connected_clients() { return connected_.load(); }

void Server::accept_ready() {
  // Loop-0 thread. Drain the (non-blocking) listener: one EPOLLIN can
  // cover a whole burst of queued connections.
  while (running_.load()) {
    std::optional<net::TcpStream> stream;
    try {
      stream = listener_.accept(0);
    } catch (const IoError& e) {
      if (running_.load()) LOG_ERROR("accept failed: " << e.what());
      return;
    }
    if (!stream) return;
    IoLoop& target = *io_[next_loop_++ % io_.size()];
    if (&target == io_[0].get()) {
      register_conn(target, std::move(*stream));
    } else {
      auto s = std::make_shared<net::TcpStream>(std::move(*stream));
      target.loop.post(
          [this, &target, s] { register_conn(target, std::move(*s)); });
    }
  }
}

void Server::register_conn(IoLoop& io, net::TcpStream stream) {
  if (!running_.load()) return;
  auto c = std::make_shared<Conn>();
  c->stream = std::move(stream);
  c->io = &io;
  c->stream.set_nonblocking(true);
  c->armed = EPOLLIN;
  c->last_read = std::chrono::steady_clock::now();
  io.loop.add_fd(c->stream.fd(), EPOLLIN,
                 [this, c](std::uint32_t events) { conn_event(c, events); });
  io.conns.insert(c);
  connected_gauge().set(connected_.fetch_add(1) + 1);
}

void Server::conn_event(std::shared_ptr<Conn> c, std::uint32_t events) {
  if (c->closed) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    conn_disconnect(std::move(c), "peer closed");
    return;
  }
  try {
    if (events & EPOLLOUT) conn_flush(c);
    if (c->closed) return;
    if ((events & EPOLLIN) && !c->paused) conn_readable(c);
  } catch (const net::ConnectionClosed&) {
    LOG_INFO("client connection closed (client " << c->client_id.load()
                                                 << ")");
    conn_disconnect(std::move(c), nullptr);
  } catch (const Error& e) {
    LOG_WARN("handler error (client " << c->client_id.load()
                                      << "): " << e.what());
    conn_disconnect(std::move(c), nullptr);
  }
}

void Server::conn_readable(const std::shared_ptr<Conn>& c) {
  // Same fault-injection points the blocking recv path has: a delay, a
  // dropped read (connection torn down), then a corrupted byte among the
  // received bytes — which the frame CRCs must catch downstream.
  net::FaultPlan* fp = net::installed_fault_plan();
  if (fp) {
    if (double d = fp->delay_s(); d > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
    }
    if (fp->drop_recv()) {
      conn_disconnect(c, nullptr);
      return;
    }
  }
  std::array<std::byte, 16384> buf;
  std::vector<net::Message> msgs;
  bool progressed = false;
  // Bounded per event so one firehose sender cannot starve the loop's
  // other connections; level-triggered epoll re-fires for the rest.
  for (int round = 0; round < 64; ++round) {
    auto n = c->stream.recv_nb(buf);
    if (!n) break;  // EAGAIN
    if (*n == 0) {  // orderly EOF
      LOG_INFO("client connection closed (client " << c->client_id.load()
                                                   << ")");
      conn_disconnect(c, nullptr);
      return;
    }
    progressed = true;
    std::span<std::byte> data(buf.data(), *n);
    if (fp) {
      if (auto idx = fp->corrupt_byte(*n)) data[*idx] ^= std::byte{0x20};
    }
    c->reader.feed(data, msgs);  // ProtocolError -> conn_event's catch
  }
  if (progressed) c->last_read = std::chrono::steady_clock::now();
  if (c->reader.mid_frame()) {
    // Re-arm on progress: the guard fires on *silence* mid-frame, exactly
    // like the blocking path's recv_all stall timeout.
    if (progressed ||
        c->read_deadline == std::chrono::steady_clock::time_point{}) {
      c->read_deadline = c->last_read +
                         std::chrono::milliseconds(net::kMidStreamStallMs);
    }
  } else {
    c->read_deadline = {};
  }
  for (auto& m : msgs) {
    // A keepalive's whole job was to arrive (last_read, above).
    if (m.type == net::MessageType::kHeartbeat) continue;
    c->inbox.push_back(std::move(m));
  }
  conn_pump(c);
}

void Server::conn_pump(const std::shared_ptr<Conn>& c) {
  if (c->busy || c->closed || c->close_after_flush || c->inbox.empty()) {
    return;
  }
  net::Message request = std::move(c->inbox.front());
  c->inbox.pop_front();
  c->busy = true;
  auto self = c;
  bool accepted = workers_->submit([this, self,
                                    request = std::move(request)]() mutable {
    HandlerOutcome out = handle_request(self, request);
    const bool lead = out.lead_commit;
    if (!out.parked) {  // else whoever pops the entry answers it
      self->io->loop.post([this, self, out = std::move(out)]() mutable {
        deliver(self, std::move(out));
      });
    }
    if (lead) group_commit();
  });
  if (!accepted) c->busy = false;  // shutting down; stop() closes the conn
}

void Server::deliver(const std::shared_ptr<Conn>& c, HandlerOutcome out) {
  if (out.became_client) c->client_id.store(out.became_client);
  if (out.clear_client) c->client_id.store(0);
  if (c->closed) {
    // The connection died while the worker was busy: nothing to send, but
    // the budget charge must come back, and a client that joined through a
    // now-dead connection must be swept out of the scheduler.
    if (out.inflight_charged) {
      blob_inflight_bytes_.fetch_sub(out.inflight_charged);
    }
    if (out.became_client) client_left_async(out.became_client);
    return;
  }
  c->busy = false;
  if (out.replica) {
    detach_replica(c, std::move(out.request));
    return;
  }
  for (std::size_t i = 0; i < out.chunks.size(); ++i) {
    const bool last = i + 1 == out.chunks.size();
    conn_enqueue(c, std::move(out.chunks[i]),
                 last ? out.inflight_charged : 0);
  }
  if (out.chunks.empty() && out.inflight_charged) {
    blob_inflight_bytes_.fetch_sub(out.inflight_charged);
  }
  if (out.close) c->close_after_flush = true;
  conn_flush(c);
  if (!c->closed) conn_pump(c);
}

void Server::conn_enqueue(const std::shared_ptr<Conn>& c,
                          std::vector<std::byte> bytes, std::size_t release) {
  if (c->closed) {
    if (release) blob_inflight_bytes_.fetch_sub(release);
    return;
  }
  c->outq_bytes += bytes.size();
  std::size_t prev = write_hwm_.load(std::memory_order_relaxed);
  while (c->outq_bytes > prev &&
         !write_hwm_.compare_exchange_weak(prev, c->outq_bytes)) {
  }
  loop_io_metrics().write_queue_hwm.set(
      static_cast<double>(write_hwm_.load(std::memory_order_relaxed)));
  c->outq.push_back(Conn::Chunk{std::move(bytes), 0, release});
}

void Server::conn_flush(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  net::FaultPlan* fp = net::installed_fault_plan();
  try {
    while (!c->outq.empty()) {
      Conn::Chunk& ch = c->outq.front();
      std::span<const std::byte> rest = std::span(ch.bytes).subspan(ch.off);
      if (fp && !rest.empty()) {
        if (double d = fp->delay_s(); d > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(d));
        }
        if (auto keep = fp->truncate_send(rest.size())) {
          // Mirror the blocking path: deliver only a prefix so the peer
          // sees a torn frame, then break the connection.
          if (*keep > 0) c->stream.send_nb(rest.subspan(0, *keep));
          conn_disconnect(c, nullptr);
          return;
        }
      }
      auto n = c->stream.send_nb(rest);
      if (!n) {
        loop_io_metrics().eagain_writes.inc();
        break;
      }
      ch.off += *n;
      c->outq_bytes -= *n;
      if (*n > 0) c->write_deadline = {};  // progress: the donor is draining
      if (ch.off == ch.bytes.size()) {
        if (ch.release) blob_inflight_bytes_.fetch_sub(ch.release);
        c->outq.pop_front();
      } else if (*n == 0) {
        break;
      }
    }
  } catch (const net::ConnectionClosed&) {
    conn_disconnect(c, nullptr);
    return;
  }
  if (c->outq.empty()) {
    c->want_write = false;
    c->write_deadline = {};
    if (c->close_after_flush) {
      conn_disconnect(c, nullptr);
      return;
    }
  } else {
    c->want_write = true;
    if (c->write_deadline == std::chrono::steady_clock::time_point{}) {
      c->write_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(kWriteStallTimeoutS));
    }
  }
  // Backpressure: a queue past the bound stops reads (no new requests, no
  // new responses) until the donor drains half of it. Kernel-buffer-full
  // is not a disconnect — only a full *stall* (sweep_conns) is.
  if (!c->paused && c->outq_bytes > config_.max_write_buffer_bytes) {
    c->paused = true;
    loop_io_metrics().backpressure_stalls.inc();
  } else if (c->paused && c->outq_bytes <= config_.max_write_buffer_bytes / 2) {
    c->paused = false;
  }
  sync_conn_events(c);
}

void Server::sync_conn_events(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  std::uint32_t want = (c->paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                       (c->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == c->armed) return;
  c->io->loop.modify_fd(c->stream.fd(), want);
  c->armed = want;
}

void Server::sweep_conns(IoLoop& io) {
  const auto now = std::chrono::steady_clock::now();
  constexpr std::chrono::steady_clock::time_point kUnset{};
  const auto timeout = steady_seconds(config_.client_timeout_s);
  std::vector<std::shared_ptr<Conn>> stalled_read;
  std::vector<std::shared_ptr<Conn>> stalled_write;
  std::vector<std::shared_ptr<Conn>> silent;
  for (const auto& c : io.conns) {
    if (c->read_deadline != kUnset && now >= c->read_deadline &&
        c->reader.mid_frame()) {
      stalled_read.push_back(c);
    } else if (c->write_deadline != kUnset && now >= c->write_deadline) {
      stalled_write.push_back(c);
    } else if (config_.client_timeout_s > 0 && c->client_id.load() != 0 &&
               !c->busy && c->outq.empty() && now - c->last_read >= timeout) {
      silent.push_back(c);  // registered, owed nothing, and gone quiet
    }
  }
  for (auto& c : stalled_read) {
    LOG_WARN("handler error (client "
             << c->client_id.load() << "): peer stalled mid-read: got "
             << c->reader.pending_bytes() << " bytes of an unfinished frame");
    conn_disconnect(std::move(c), nullptr);
  }
  for (auto& c : stalled_write) {
    loop_io_metrics().connections_shed.inc();
    LOG_WARN("shedding stalled connection (client "
             << c->client_id.load() << "): " << c->outq_bytes
             << " bytes undrained for " << kWriteStallTimeoutS
             << "s");
    conn_disconnect(std::move(c), nullptr);
  }
  for (auto& c : silent) {
    const ClientId id = c->client_id.exchange(0);
    clients_expired_.fetch_add(1);
    obs::Registry::global().counter("server.clients_expired").inc();
    LOG_WARN("client " << id << " silent for " << config_.client_timeout_s
                       << "s; closing its connection");
    conn_disconnect(std::move(c), nullptr);
    client_left_async(id, "timeout");
  }
}

void Server::conn_disconnect(std::shared_ptr<Conn> c, const char* reason) {
  if (c->closed) return;
  c->closed = true;
  c->io->loop.remove_fd(c->stream.fd());
  for (const auto& ch : c->outq) {
    if (ch.release) blob_inflight_bytes_.fetch_sub(ch.release);
  }
  c->outq.clear();
  c->outq_bytes = 0;
  c->inbox.clear();
  {
    // A held request or ack dies with its connection: it is nobody's to
    // answer (a donor resubmits an unacked result on its next session).
    std::lock_guard lock(park_mutex_);
    c->hung_up = true;
    if (const auto dropped = std::erase_if(
            parked_, [&c](const Parked& p) { return p.conn == c; })) {
      park_metrics().parked.add(-static_cast<double>(dropped));
    }
    if (const auto dropped = std::erase_if(
            held_, [&c](const HeldAck& h) { return h.conn == c; })) {
      hold_metrics().held.add(-static_cast<double>(dropped));
    }
  }
  c->stream.close();
  c->io->conns.erase(c);
  connected_gauge().set(connected_.fetch_sub(1) - 1);
  if (reason) {
    LOG_WARN("handler error (client " << c->client_id.load()
                                      << "): " << reason);
  }
  if (ClientId id = c->client_id.exchange(0)) client_left_async(id);
}

void Server::client_left_async(ClientId id, const char* reason) {
  workers_->submit([this, id, reason] {
    {
      std::lock_guard lock(core_mutex_);
      double t = now();
      core_.client_left(id, t, reason);
      WalRecord rec;
      rec.op = WalOp::kClientLeft;
      rec.now = t;
      rec.arg = id;
      log_record(std::move(rec));
      wake_parked_locked();  // its leases went back to the queue
    }
    progress_cv_.notify_all();
  });
}

void Server::detach_replica(const std::shared_ptr<Conn>& c,
                            net::Message hello) {
  // The connection becomes a long-lived replication session: pull it off
  // the loop, restore blocking mode, and give it a dedicated thread (hot
  // standbys are few; the blocking serve_replica path stays byte-exact).
  c->closed = true;
  c->io->loop.remove_fd(c->stream.fd());
  c->io->conns.erase(c);
  net::TcpStream stream = std::move(c->stream);
  try {
    stream.set_nonblocking(false);
    for (const auto& ch : c->outq) {
      stream.send_all(std::span(ch.bytes).subspan(ch.off));
    }
  } catch (const Error& e) {
    LOG_WARN("replica handoff failed: " << e.what());
    connected_gauge().set(connected_.fetch_sub(1) - 1);
    return;
  }
  std::lock_guard lock(replica_threads_mutex_);
  replica_threads_.emplace_back(
      [this, s = std::move(stream), hello = std::move(hello)]() mutable {
        serve_replica(s, hello);
        connected_gauge().set(connected_.fetch_sub(1) - 1);
      });
}

void Server::housekeeping_loop() {
  double last_rearm = now();
  double last_budget_check = now();
  const auto tick_every = steady_seconds(config_.tick_interval_s);
  auto next_tick = std::chrono::steady_clock::now();
  while (running_.load()) {
    const auto woke = std::chrono::steady_clock::now();
    const bool tick_due = woke >= next_tick;
    if (tick_due) next_tick = woke + tick_every;
    // A standby's shadow core is driven only by the primary's record
    // stream (which includes the primary's own Tick records with the
    // primary's clock); ticking it locally would double-expire leases.
    if (tick_due && !standby_.load()) {
      {
        std::lock_guard lock(core_mutex_);
        double t = now();
        core_.tick(t);
        WalRecord rec;
        rec.op = WalOp::kTick;
        rec.now = t;
        log_record(std::move(rec));  // doubles as a replication keepalive
        wake_parked_locked();  // expired leases are back in the queue
        try {
          maybe_compact_locked(t);
        } catch (const Error& e) {
          // A full disk must not kill scheduling; retry next interval.
          LOG_ERROR("wal compaction failed: " << e.what());
        }
      }
      progress_cv_.notify_all();
      // Degraded -> durable re-arm: rebuild the WAL on a steady cadence
      // until the disk recovers.
      if (static_cast<Durability>(durability_.load()) ==
              Durability::kDegraded &&
          !storage_failed_.load() &&
          now() - last_rearm >= config_.rearm_retry_s) {
        last_rearm = now();
        try_rearm();
      }
      // Disk-budget watchdog: compaction folds segments into one base
      // snapshot, so forcing it under pressure sheds WAL bytes before the
      // device itself runs dry (which would degrade us the hard way).
      if (wal_ && config_.wal_dir_budget_bytes > 0 &&
          static_cast<Durability>(durability_.load()) ==
              Durability::kDurable &&
          now() - last_budget_check >= 2.0) {
        last_budget_check = now();
        const std::uint64_t used = vfs::dir_bytes(config_.wal_dir);
        if (used > config_.wal_dir_budget_bytes) {
          obs::Registry::global().counter("storage.budget_compactions").inc();
          try {
            compact_wal();
          } catch (const Error& e) {
            LOG_ERROR("budget compaction failed: " << e.what());
          }
          const std::uint64_t after = vfs::dir_bytes(config_.wal_dir);
          if (after > config_.wal_dir_budget_bytes) {
            LOG_WARN("wal dir still over budget after compaction ("
                     << after << " > " << config_.wal_dir_budget_bytes
                     << " bytes)");
          }
        }
      }
    }
    bool expired;
    {
      std::lock_guard lock(park_mutex_);
      expired = !parked_.empty() && parked_.front().deadline <= woke;
    }
    if (expired) {  // held to their no_work_retry_s deadline
      std::lock_guard lock(core_mutex_);
      answer_parked(kAllParked, core_.all_complete(), /*expired_only=*/true);
    }
    // Sleep until the next tick or the oldest parked request's deadline;
    // park() cuts the wait short when it queues a new oldest entry.
    std::unique_lock lock(park_mutex_);
    auto until = next_tick;
    if (!parked_.empty()) until = std::min(until, parked_.front().deadline);
    park_cv_.wait_until(lock, until, [&] {
      return !running_.load() ||
             (!parked_.empty() && parked_.front().deadline < until);
    });
  }
}

std::uint64_t Server::epoch() {
  std::lock_guard lock(core_mutex_);
  return core_.epoch();
}

void Server::drain() {
  draining_.store(true);
  answer_parked(kAllParked, false, false);  // draining: each gets kShutdown
  progress_cv_.notify_all();
}

bool Server::park(const std::shared_ptr<Conn>& c, std::uint64_t correlation) {
  std::lock_guard lock(park_mutex_);
  if (c->hung_up || draining_.load()) return false;
  const auto t = std::chrono::steady_clock::now();
  parked_.push_back(
      Parked{c, correlation, t, t + steady_seconds(config_.no_work_retry_s)});
  park_metrics().parked.add(1);
  if (parked_.size() == 1) park_cv_.notify_one();  // a new nearest deadline
  return true;
}

void Server::answer_parked(std::size_t max, bool all_complete,
                           bool expired_only) {
  const auto t = std::chrono::steady_clock::now();
  std::vector<Parked> batch;
  {
    std::lock_guard lock(park_mutex_);
    while (batch.size() < max && !parked_.empty() &&
           (!expired_only || parked_.front().deadline <= t)) {
      batch.push_back(std::move(parked_.front()));
      parked_.pop_front();
    }
  }
  if (batch.empty()) return;
  auto& m = park_metrics();
  m.parked.add(-static_cast<double>(batch.size()));
  (expired_only ? m.timeouts : m.wakes).inc(batch.size());
  for (Parked& p : batch) {
    m.park_s.observe(std::chrono::duration<double>(t - p.since).count());
    net::Message reply;
    if (draining_.load()) {
      reply.type = net::MessageType::kShutdown;
      reply.correlation = p.correlation;
    } else {
      NoWorkPayload np;
      np.all_problems_complete = all_complete;
      reply = encode_no_work(np, p.correlation);
    }
    HandlerOutcome out;
    out.chunks.push_back(net::encode_frame(reply));
    p.conn->io->loop.post([this, c = p.conn, out = std::move(out)]() mutable {
      deliver(c, std::move(out));
    });
  }
}

void Server::wake_parked_locked() {
  {
    // Only a caller holding core_mutex_ parks, so an empty queue stays
    // empty here; skip the scan over every problem.
    std::lock_guard lock(park_mutex_);
    if (parked_.empty()) return;
  }
  const bool done = core_.all_complete();
  answer_parked(done ? kAllParked : 1, done, /*expired_only=*/false);
}

bool Server::hold_ack(const std::shared_ptr<Conn>& c,
                      std::uint64_t correlation, bool accepted,
                      std::uint64_t need_lsn, bool& lead) {
  std::lock_guard lock(park_mutex_);
  if (need_lsn <= durable_lsn_) return false;
  if (c->hung_up) return true;  // nobody to answer; the donor resubmits
  held_.push_back(HeldAck{c, correlation, accepted, need_lsn,
                          std::chrono::steady_clock::now()});
  hold_metrics().held.add(1);
  if (!committing_) committing_ = lead = true;
  return true;
}

void Server::group_commit() {
  // The leader: sync what has been appended, answer what that covered,
  // and go again while acks wait. The fsync holds no lock, so handlers —
  // including the next requests of the donors waiting here — keep running.
  // Once durability is lost (read under core_mutex_, where it is set), a
  // held ack is answered as an un-held one would be.
  auto lost = [this] {
    return storage_failed_.load() ? Release::kNackAll : Release::kAckAll;
  };
  for (;;) {
    std::optional<WalLog::SyncPoint> point;
    Release how = Release::kDurable;
    {
      std::lock_guard lock(core_mutex_);
      if (static_cast<Durability>(durability_.load()) == Durability::kDurable) {
        try {
          point = wal_->sync_point();
        } catch (const Error& e) {  // a failed compaction left it failed
          LOG_ERROR("wal sync failed: " << e.what());
          degrade_locked("wal_sync", now());
        }
      }
      if (!point) how = lost();
    }
    if (point) {
      try {
        WalLog::sync(*point);
      } catch (const Error& e) {
        LOG_ERROR("wal sync failed: " << e.what());
        std::lock_guard lock(core_mutex_);
        wal_->fail();  // fsyncgate: never retried
        degrade_locked("wal_sync", now());
        how = lost();
      }
    }
    if (!release_acks(how, how == Release::kDurable ? point->lsn : 0)) return;
  }
}

bool Server::release_acks(Release how, std::uint64_t synced_lsn) {
  const auto t = std::chrono::steady_clock::now();
  std::vector<HeldAck> ready;
  bool waiting;
  {
    std::lock_guard lock(park_mutex_);
    durable_lsn_ = std::max(durable_lsn_, synced_lsn);
    for (auto it = held_.begin(); it != held_.end();) {
      if (how == Release::kDurable && it->need_lsn > durable_lsn_) {
        ++it;
        continue;
      }
      ready.push_back(std::move(*it));
      it = held_.erase(it);
    }
    waiting = !held_.empty();
    if (!waiting) committing_ = false;
  }
  auto& m = hold_metrics();
  m.held.add(-static_cast<double>(ready.size()));
  for (HeldAck& h : ready) {
    m.hold_s.observe(std::chrono::duration<double>(t - h.since).count());
    net::Message reply;
    if (how == Release::kNackAll) {
      reply = retry_later(h.correlation, "fail_stop");
    } else {
      ResultAckPayload ack;
      ack.accepted = h.accepted;
      reply = encode_result_ack(ack, h.correlation);
    }
    // Not a HandlerOutcome: the connection stopped waiting on this reply
    // when the ack was held, so its busy flag is someone else's.
    h.conn->io->loop.post([this, c = h.conn,
                           bytes = net::encode_frame(reply)]() mutable {
      conn_enqueue(c, std::move(bytes), 0);
      conn_flush(c);
    });
  }
  return waiting;
}

void Server::compact_wal() {
  std::lock_guard lock(core_mutex_);
  if (!wal_) return;
  ByteWriter w;
  core_.snapshot_exact(w);
  auto snap = w.take();
  wal_->compact(snap, now());
  last_compact_lsn_ = wal_->next_lsn();
}

void Server::maybe_compact_locked(double t) {
  if (!wal_ || config_.wal_compact_every == 0) return;
  if (wal_->next_lsn() - last_compact_lsn_ < config_.wal_compact_every) return;
  ByteWriter w;
  core_.snapshot_exact(w);
  auto snap = w.take();
  wal_->compact(snap, t);
  last_compact_lsn_ = wal_->next_lsn();
}

std::uint64_t Server::log_record(WalRecord rec) {
  // While degraded the WAL is frozen (its segment failed; only compact()
  // rebuilds it) — records flow to the replica feeds only, numbered by
  // repl_lsn_, so a hot standby stays exact through the primary's bad-disk
  // window.
  const bool degraded = static_cast<Durability>(durability_.load()) ==
                        Durability::kDegraded;
  const bool use_wal = wal_ != nullptr && !degraded;
  if (!use_wal && feeds_.empty()) return 0;
  rec.lsn = use_wal ? wal_->next_lsn() : repl_lsn_;
  bool append_failed = false;
  if (use_wal) {
    try {
      wal_->append(rec);
    } catch (const Error& e) {
      // The record still goes out on the feeds below — the standby's
      // shadow core must apply everything the primary's live core applied,
      // or post-degrade records would hit a diverged shadow — and only
      // then do we degrade (whose own kEpoch record is feeds-only).
      LOG_ERROR("wal append failed: " << e.what());
      append_failed = true;
    }
  }
  repl_lsn_ = rec.lsn + 1;
  if (!feeds_.empty()) {
    auto bytes = encode_wal_record(rec);
    for (const auto& feed : feeds_) feed->push(bytes);
  }
  if (append_failed) degrade_locked("wal_append", rec.now);
  return rec.lsn;
}

void Server::enter_new_term(const char* reason, double t) {
  std::uint64_t next = core_.epoch() + 1;
  core_.bump_epoch(next);
  WalRecord rec;
  rec.op = WalOp::kEpoch;
  rec.now = t;
  rec.arg = next;
  log_record(std::move(rec));
  // Every active client row belongs to the previous term — its connection
  // died with the old server. Sweeping them requeues their leases now
  // instead of waiting out the lease timeout; reconnecting donors say Hello
  // on new connections and get fresh ids.
  for (const auto& c : core_.all_client_stats()) {
    if (!c.active) continue;
    core_.client_left(c.id, t);
    WalRecord left;
    left.op = WalOp::kClientLeft;
    left.now = t;
    left.arg = c.id;
    log_record(std::move(left));
  }
  if (wal_ && !wal_->failed()) {
    try {
      wal_->sync();
    } catch (const Error& e) {
      LOG_ERROR("wal sync failed entering new term: " << e.what());
      degrade_locked("wal_sync", t);
    }
  }
  LOG_INFO("entered epoch " << core_.epoch() << " (" << reason << ")");
}

void Server::degrade_locked(const char* reason, double t) {
  const auto current = static_cast<Durability>(durability_.load());
  if (current != Durability::kDurable) return;
  durability_.store(static_cast<int>(Durability::kDegraded));
  auto& reg = obs::Registry::global();
  reg.gauge("server.durability").set(static_cast<double>(durability_.load()));
  reg.counter("server.durability_degradations").inc();
  // The feeds take over the lsn sequence exactly where the WAL stopped.
  if (wal_) repl_lsn_ = std::max(repl_lsn_, wal_->next_lsn());
  // Fence the degraded window: +2, not +1, so a crash-while-degraded
  // restart (replay durable state, then enter_new_term's +1) lands on a
  // DIFFERENT epoch than this one — nothing issued or accepted while
  // non-durable can ever be merged into the revived durable core.
  const std::uint64_t next = core_.epoch() + 2;
  core_.bump_epoch(next);
  WalRecord rec;
  rec.op = WalOp::kEpoch;
  rec.now = t;
  rec.arg = next;
  log_record(std::move(rec));  // feeds-only: durability_ is already degraded
  if (config_.tracer) {
    config_.tracer->event(t, "durability_degraded")
        .str("reason", reason)
        .u64("epoch", next);
  }
  if (config_.durability_mode == DurabilityMode::kFailStop) {
    storage_failed_.store(true);
    draining_.store(true);
    answer_parked(kAllParked, false, false);  // draining: each gets kShutdown
    LOG_ERROR("durability lost (" << reason << "): fail-stop — draining, "
              << "epoch " << next);
  } else {
    LOG_ERROR("durability degraded (" << reason << "): continuing non-durable "
              << "at epoch " << next << "; re-arm every "
              << config_.rearm_retry_s << "s");
  }
  progress_cv_.notify_all();
}

bool Server::try_rearm() {
  std::lock_guard lock(core_mutex_);
  if (static_cast<Durability>(durability_.load()) != Durability::kDegraded) {
    return true;
  }
  const double t = now();
  try {
    // Rebuild: fresh base snapshot at the feeds' lsn, fresh segment (only
    // a WAL'd server is ever durable, so only one can be degraded). A
    // still-broken disk throws out of the base write and we stay degraded
    // for the next retry.
    ByteWriter w;
    core_.snapshot_exact(w);
    auto snap = w.take();
    wal_->reset(snap, repl_lsn_, t);
    wal_->sync();
    last_compact_lsn_ = wal_->next_lsn();
  } catch (const Error& e) {
    LOG_WARN("durability re-arm failed: " << e.what());
    return false;
  }
  durability_.store(static_cast<int>(Durability::kDurable));
  auto& reg = obs::Registry::global();
  reg.gauge("server.durability").set(static_cast<double>(durability_.load()));
  reg.counter("server.durability_restores").inc();
  if (config_.tracer) {
    config_.tracer->event(t, "durability_restored").u64("epoch", core_.epoch());
  }
  LOG_INFO("durability restored (epoch " << core_.epoch() << ")");
  return true;
}

net::Message Server::retry_later(std::uint64_t correlation,
                                 const char* reason) {
  // The donor backs off and keeps its buffered state.
  obs::Registry::global().counter("server.retry_laters").inc();
  RetryLaterPayload p;
  p.retry_after_s = config_.retry_later_s;
  p.reason = reason;
  return encode_retry_later(p, correlation);
}

Server::HandlerOutcome Server::handle_request(const std::shared_ptr<Conn>& c,
                                              const net::Message& request) {
  HandlerOutcome out;
  net::Message response;
  bool have_response = true;
  // FetchBlobs bodies: shared_ptrs collected under the core lock, encoded
  // (and compressed) after the response frame without holding it.
  std::vector<std::pair<std::uint64_t,
                        std::shared_ptr<const std::vector<std::byte>>>>
      blob_bodies;
  std::size_t inflight_charged = 0;
  ClientId client_id = 0;  // Hello-assigned, mirrored into the outcome
  // The connection is the session: every request speaks for the client
  // its one Hello registered (0 = none yet).
  const ClientId session = c->client_id.load();
  auto registered = [session] {
    if (session == 0) throw ProtocolError("no Hello on this connection");
    return session;
  };
  Stopwatch handle_timer;

  try {
      if (standby_.load() && request.type != net::MessageType::kFetchStats) {
        // An unpromoted standby serves monitoring but no work: donors see
        // an error, drop the session, and fail over to the next endpoint
        // in their --servers list.
        response = net::make_error(request.correlation, "standby: not serving");
      } else if (draining_.load() &&
                 request.type == net::MessageType::kRequestWork) {
        // Graceful shutdown: in-flight submissions still land, but no new
        // work goes out and polling donors are told to disconnect.
        response.type = net::MessageType::kShutdown;
        response.correlation = request.correlation;
      } else if (storage_failed_.load() &&
                 (request.type == net::MessageType::kHello ||
                  request.type == net::MessageType::kSubmitResult)) {
        // Fail-stop after a storage fault: no new sessions, and results
        // are NACKed rather than accepted-but-lost — the donor keeps its
        // buffered copy for the restarted server. (FetchStats stays up so
        // operators can see why; RequestWork already gets kShutdown from
        // the draining guard above.)
        response = retry_later(request.correlation, "fail_stop");
      } else switch (request.type) {
        case net::MessageType::kHello: {
          auto hello = decode_hello(request);
          if (session != 0) {
            throw ProtocolError("this connection already said Hello (client " +
                                std::to_string(session) + ")");
          }
          std::lock_guard lock(core_mutex_);
          double t = now();
          if (config_.max_clients > 0 &&
              core_.active_client_count() >= config_.max_clients) {
            // Shed before joining: the donor never becomes scheduler state,
            // so no lease/eviction bookkeeping is spent on it.
            obs::Registry::global().counter("server.clients_shed").inc();
            if (config_.tracer) {
              config_.tracer->event(t, "retry_later")
                  .str("reason", "max_clients")
                  .str("name", hello.client_name);
            }
            response = retry_later(request.correlation, "max_clients");
            break;
          }
          client_id = core_.client_joined(hello.client_name,
                                          hello.benchmark_ops_per_sec, t);
          WalRecord rec;
          rec.op = WalOp::kClientJoined;
          rec.now = t;
          rec.arg = client_id;
          rec.name = hello.client_name;
          rec.benchmark = hello.benchmark_ops_per_sec;
          log_record(std::move(rec));
          HelloAckPayload ack;
          ack.client_id = client_id;
          // Four keepalive chances per timeout window (0 = none needed).
          ack.heartbeat_interval_s = config_.client_timeout_s / 4;
          response = encode_hello_ack(ack, request.correlation);
          break;
        }
        case net::MessageType::kRequestWork: {
          decode_request_work(request);
          const ClientId id = registered();
          std::lock_guard lock(core_mutex_);
          double t = now();
          auto unit = core_.request_work(id, t);
          {
            // Logged even when nothing was issued: an unserved request
            // still mutates stats and policy state, and replay must walk
            // the exact same path (an InputError above skips the log, the
            // same way it skips the core mutation).
            WalRecord rec;
            rec.op = WalOp::kRequestWork;
            rec.now = t;
            rec.arg = id;
            log_record(std::move(rec));
          }
          if (unit) {
            // The assignment names its problem by content, so a donor
            // never runs it with another server's data of the same id.
            WorkAssignmentPayload assignment;
            assignment.algorithm_name =
                core_.data_manager(unit->problem_id).algorithm_name();
            assignment.problem_data.digest =
                core_.problem_data_digest(unit->problem_id);
            assignment.problem_data.size =
                core_.problem_data_bytes(unit->problem_id);
            assignment.unit = std::move(*unit);
            response = encode_work_assignment(assignment, request.correlation);
            wake_parked_locked();  // more units may be queued behind it
            break;
          }
          NoWorkPayload p;
          p.all_problems_complete = core_.all_complete();
          if (p.all_problems_complete && c->told_complete_gen != problem_gen_) {
            // The first unserved request after completion is answered at
            // once, so exit-when-idle donors leave promptly; a repeat on
            // this connection (a persistent donor between jobs) parks
            // until the next submit_problem.
            c->told_complete_gen = problem_gen_;
          } else if (park(c, request.correlation)) {
            have_response = false;
            out.parked = true;
            break;
          }
          response = encode_no_work(p, request.correlation);
          break;
        }
        case net::MessageType::kSubmitResult: {
          const ResultUnit result = decode_submit_result(request);
          const ClientId id = registered();
          ResultAckPayload ack;
          bool durable;
          std::uint64_t need_lsn;
          {
            std::lock_guard lock(core_mutex_);
            double t = now();
            ack.accepted = core_.submit_result(id, result, t);
            WalRecord rec;
            rec.op = WalOp::kSubmitResult;
            rec.now = t;
            rec.arg = id;
            rec.result = result;
            const std::uint64_t lsn = log_record(std::move(rec));
            if (ack.accepted) accepted_lsn_ = lsn;
            // The ack is what lets the donor drop its buffered copy, so it
            // waits until the result it reports is durable: this record,
            // or for a duplicate the first copy's (accepted_lsn_ covers
            // both). Once degraded there is nothing left to fsync:
            // kContinue acks anyway (accepted-but-non-durable, epoch
            // already fenced), kFailStop NACKs so the donor keeps its copy.
            durable = wal_ && static_cast<Durability>(durability_.load()) ==
                                  Durability::kDurable;
            need_lsn = accepted_lsn_;
            wake_parked_locked();  // a merge can open a stage or finish
          }
          progress_cv_.notify_all();
          if (durable && hold_ack(c, request.correlation, ack.accepted,
                                  need_lsn, out.lead_commit)) {
            have_response = false;  // the commit leader answers it
          } else if (storage_failed_.load()) {
            response = retry_later(request.correlation, "fail_stop");
          } else {
            response = encode_result_ack(ack, request.correlation);
          }
          break;
        }
        case net::MessageType::kFetchBlobs: {
          auto fetch = decode_fetch_blobs(request);
          BlobDataPayload reply;
          {
            std::lock_guard lock(core_mutex_);
            for (std::uint64_t digest : fetch.digests) {
              auto bytes = core_.blob_bytes(digest);
              bool ok = bytes && bytes->size() <= net::kMaxBlobBytes;
              reply.blobs.push_back({digest, ok});
              if (ok) blob_bodies.emplace_back(digest, std::move(bytes));
            }
          }
          // Global in-flight budget: bodies sit in memory from here until
          // the socket writes below finish, so a burst of cold donors can
          // multiply resident bytes. Over budget -> shed the whole fetch
          // (the donor retries; partial replies would poison its cache
          // accounting).
          if (config_.blob_inflight_budget_bytes > 0 && !blob_bodies.empty()) {
            std::size_t total = 0;
            for (const auto& [digest, bytes] : blob_bodies) {
              total += bytes->size();
            }
            if (blob_inflight_bytes_.load() + total >
                config_.blob_inflight_budget_bytes) {
              blob_bodies.clear();
              obs::Registry::global().counter("server.blob_fetches_shed").inc();
              if (config_.tracer) {
                config_.tracer->event(now(), "retry_later")
                    .str("reason", "blob_budget")
                    .str("name", "client:" + std::to_string(session));
              }
              response = retry_later(request.correlation, "blob_budget");
              break;
            }
            blob_inflight_bytes_.fetch_add(total);
            inflight_charged = total;
          }
          response = encode_blob_data(reply, request.correlation);
          break;
        }
        case net::MessageType::kFetchStats: {
          auto fetch = decode_fetch_stats(request);
          StatsSnapshotPayload snap;
          snap.json = stats_json(fetch.include_clients);
          response = encode_stats_snapshot(snap, request.correlation);
          break;
        }
        case net::MessageType::kGoodbye: {
          decode_goodbye(request);
          const ClientId id = registered();
          {
            std::lock_guard lock(core_mutex_);
            double t = now();
            core_.client_left(id, t);
            WalRecord rec;
            rec.op = WalOp::kClientLeft;
            rec.now = t;
            rec.arg = id;
            log_record(std::move(rec));
            wake_parked_locked();
          }
          progress_cv_.notify_all();
          // Client is gone: no response, drop the conn's id (the departure
          // is already recorded) and close once the queue drains.
          have_response = false;
          out.clear_client = true;
          out.close = true;
          break;
        }
        case net::MessageType::kReplicaHello: {
          // The connection becomes a replication session: the loop detaches
          // it onto a dedicated blocking thread (serve_replica cleans up
          // its own feed registration).
          out.replica = true;
          out.request = request;
          return out;
        }
        default:
          response = net::make_error(request.correlation,
                                     std::string("unexpected message type: ") +
                                         net::to_string(request.type));
          break;
      }
  } catch (const Error& e) {
    // A bad request (unknown problem, no Hello, malformed payload) must
    // not kill the connection: report it to the peer.
    LOG_WARN("request failed (client " << session << "): " << e.what());
    response = net::make_error(request.correlation, e.what());
  } catch (const std::exception& e) {
    // Anything else (a DataManager's std::out_of_range, bad_alloc) must not
    // reach the worker pool's task loop, where it would terminate the
    // server: answer it the same way, and count it.
    obs::Registry::global().counter("server.handler_exceptions").inc();
    LOG_ERROR("request handler threw (client " << session
                                                << "): " << e.what());
    response = net::make_error(request.correlation, e.what());
  }

  if (obs::Histogram* h = handler_histogram(request.type)) {
    h->observe(handle_timer.seconds());
  }
  out.became_client = client_id;
  out.inflight_charged = inflight_charged;
  if (have_response) {
    // Frames and bulk bodies are encoded here, on the worker — the loop
    // thread only moves bytes.
    out.chunks.push_back(net::encode_frame(response));
    for (const auto& [digest, bytes] : blob_bodies) {
      auto enc = net::encode_blob_v4(*bytes);
      auto& bm = net::bulk_plane_metrics();
      bm.blobs_sent.inc();
      bm.bytes_raw.inc(enc.info.raw_bytes);
      bm.bytes_wire.inc(enc.info.wire_bytes);
      if (config_.tracer) {
        config_.tracer->event(now(), "blob_sent")
            .u64("client", session)
            .u64("digest", digest)
            .u64("raw", enc.info.raw_bytes)
            .u64("wire", enc.info.wire_bytes)
            .boolean("compressed", enc.info.compressed);
      }
      out.chunks.push_back(std::move(enc.bytes));
    }
  }
  return out;
}

void Server::serve_replica(net::TcpStream& stream, const net::Message& request) {
  auto feed = std::make_shared<ReplicaFeed>();
  std::string standby_name = "?";
  try {
    auto hello = decode_replica_hello(request);
    standby_name = hello.standby_name;
    ReplicaSnapshotPayload header;
    std::vector<std::byte> snapshot;
    {
      std::lock_guard lock(core_mutex_);
      ByteWriter w;
      core_.snapshot_exact(w);
      snapshot = w.take();
      header.epoch = core_.epoch();
      // A failed WAL no longer tracks the stream position; repl_lsn_ does.
      header.start_lsn = (wal_ && !wal_->failed()) ? wal_->next_lsn() : repl_lsn_;
      // Registered under the same lock that serialises mutations: every
      // record logged after this point reaches the queue, so snapshot +
      // stream covers the state with no gap.
      feeds_.push_back(feed);
    }
    header.snapshot_bytes = snapshot.size();
    net::write_message(stream,
                       encode_replica_snapshot(header, request.correlation));
    net::send_blob_v4(stream, snapshot);
    obs::Registry::global().counter("server.replica_syncs").inc();
    if (config_.tracer) {
      config_.tracer->event(now(), "replica_attached")
          .str("name", standby_name)
          .u64("epoch", header.epoch)
          .u64("lsn", header.start_lsn)
          .u64("snapshot_bytes", snapshot.size());
    }
    LOG_INFO("standby '" << standby_name << "' attached (epoch " << header.epoch
                         << ", lsn " << header.start_lsn << ", "
                         << snapshot.size() << " snapshot bytes)");
    std::uint64_t correlation = 1;
    while (running_.load()) {
      WalAppendPayload batch;
      bool overflow = false;
      {
        std::unique_lock fl(feed->m);
        feed->cv.wait_for(fl, std::chrono::milliseconds(200),
                          [&] { return !feed->q.empty() || feed->overflow; });
        overflow = feed->overflow;
        std::size_t n = std::min<std::size_t>(feed->q.size(), 512);
        for (std::size_t i = 0; i < n; ++i) {
          batch.records.push_back(std::move(feed->q.front()));
          feed->q.pop_front();
        }
      }
      if (overflow) {
        throw ProtocolError("standby fell behind the record stream");
      }
      // An empty wake is fine: Tick records arrive every tick interval, so
      // a healthy stream is never silent for long.
      if (batch.records.empty()) continue;
      net::write_message(stream, encode_wal_append(batch, correlation++));
      // Wait for the ack so a dead/wedged standby is noticed and its queue
      // stops growing (the poll keeps stop() responsive).
      while (running_.load() && !stream.readable(200)) {}
      if (!running_.load()) break;
      net::Message ack = net::read_message(stream);
      if (ack.type != net::MessageType::kResultAck) {
        throw ProtocolError(std::string("standby sent unexpected ") +
                            net::to_string(ack.type));
      }
    }
  } catch (const net::ConnectionClosed&) {
    LOG_INFO("standby '" << standby_name << "' disconnected");
  } catch (const Error& e) {
    LOG_WARN("replication to standby '" << standby_name
                                        << "' failed: " << e.what());
  }
  std::lock_guard lock(core_mutex_);
  std::erase(feeds_, feed);
}

void Server::replica_loop() {
  using clock = std::chrono::steady_clock;
  auto last_contact = clock::now();
  auto silent_s = [&] {
    return std::chrono::duration<double>(clock::now() - last_contact).count();
  };
  while (running_.load() && standby_.load()) {
    try {
      auto stream =
          net::TcpStream::connect(config_.primary_host, config_.primary_port);
      ReplicaHelloPayload hello;
      hello.standby_name = config_.standby_name;
      net::write_message(stream, encode_replica_hello(hello, 1));
      while (running_.load() && !stream.readable(200)) {}
      if (!running_.load()) return;
      net::Message resp = net::read_message(stream);
      auto header = decode_replica_snapshot(resp);
      auto snapshot = net::recv_blob_v4(
          stream, static_cast<std::size_t>(header.snapshot_bytes) + 1024);
      {
        std::lock_guard lock(core_mutex_);
        ByteReader r(snapshot);
        core_.restore_exact(r);
        r.expect_end();
        repl_lsn_ = header.start_lsn;
        if (wal_) {
          wal_->reset(snapshot, header.start_lsn, now());
          wal_->sync();
          last_compact_lsn_ = header.start_lsn;
        }
      }
      standby_synced_.store(true);
      last_contact = clock::now();
      progress_cv_.notify_all();
      obs::Registry::global().gauge("server.standby_synced").set(1);
      if (config_.tracer) {
        config_.tracer->event(now(), "standby_synced")
            .u64("epoch", header.epoch)
            .u64("lsn", header.start_lsn)
            .u64("snapshot_bytes", snapshot.size());
      }
      LOG_INFO("standby synced from " << config_.primary_host << ":"
               << config_.primary_port << " (epoch " << header.epoch
               << ", lsn " << header.start_lsn << ")");
      // Tail the live stream. The primary's Tick records double as
      // keepalives, so silence beyond the failover timeout means it died.
      while (running_.load() && standby_.load()) {
        if (!stream.readable(200)) {
          if (silent_s() >= config_.failover_timeout_s) {
            promote("primary stream silent");
            return;
          }
          continue;
        }
        net::Message m = net::read_message(stream);
        if (m.type != net::MessageType::kWalAppend) {
          throw ProtocolError(std::string("primary sent unexpected ") +
                              net::to_string(m.type));
        }
        auto batch = decode_wal_append(m);
        {
          std::lock_guard lock(core_mutex_);
          for (const auto& bytes : batch.records) {
            WalRecord rec = decode_wal_record(bytes);
            if (wal_) wal_->append(rec);  // primary's lsn, kept verbatim
            repl_lsn_ = rec.lsn + 1;
            apply_wal_record(core_, rec);
          }
          if (wal_) wal_->sync();
        }
        progress_cv_.notify_all();
        ResultAckPayload ack;
        ack.accepted = true;
        net::write_message(stream, encode_result_ack(ack, m.correlation));
        last_contact = clock::now();
      }
      return;
    } catch (const Error& e) {
      if (!running_.load() || !standby_.load()) return;
      if (standby_synced_.load() && silent_s() >= config_.failover_timeout_s) {
        promote("primary unreachable");
        return;
      }
      // Not synced yet (or the primary only just vanished): keep trying.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

void Server::promote(const char* reason) {
  double t;
  std::uint64_t new_epoch;
  {
    std::lock_guard lock(core_mutex_);
    t = now();
    enter_new_term(reason, t);
    new_epoch = core_.epoch();
    standby_.store(false);
  }
  obs::Registry::global().counter("server.failovers").inc();
  if (config_.tracer) {
    config_.tracer->event(t, "failover_promoted")
        .u64("epoch", new_epoch)
        .str("reason", reason);
  }
  LOG_INFO("standby promoted to primary (epoch " << new_epoch
                                                 << "): " << reason);
  progress_cv_.notify_all();
}

}  // namespace hdcs::dist
