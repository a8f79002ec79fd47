#pragma once
// Donor client: the process that runs on spare machines.
//
// Connects to the server, reports a self-measured benchmark score (so the
// scheduler can size the first unit before any EWMA data exists), then
// loops: request work -> resolve the unit's blobs (and, on a problem's
// first unit, its data) -> run the registered Algorithm -> submit the
// result. Designed to run "as a low priority background service" (paper
// §3); priority is the deployer's concern (nice/SCHED_IDLE), not this
// class's.
//
// An assignment names its problem by content: the Algorithm's name and the
// problem data's digest. That pair, never the server's problem id, keys
// what the donor builds from the data, so a donor that moves between
// servers never runs a unit with another problem's data. Once the server
// reports every problem complete, the donor lets go of all of it.
//
// The next RequestWork overtakes the ack: a WAL'd server holds a result's
// ack until its group commit has made the result durable, so the donor
// sends its next RequestWork straight after SubmitResult and computes that
// unit while the ack is on its way. At most one result is unacknowledged:
// its ack must arrive before the next SubmitResult, and before Goodbye.
// Every reply is matched by correlation through one reader, which keeps an
// ack that arrives while another reply is awaited.
//
// The connection is the session: its one Hello registers the donor, and no
// later frame names a client id. Session resilience: any transport or
// framing failure — initial connect, a mid-loop read/write, a corrupt
// frame, an Error reply, the server restarting — ends the session: the
// donor closes it, waits one step of capped exponential backoff + jitter,
// and says Hello on a fresh connection (new client id) instead of dying.
// A computed-but-unacknowledged result is buffered across the reconnect
// and resubmitted so the unit is never recomputed.
//
// Liveness rides the work connection: while a unit computes, a keepalive
// thread writes an empty one-way Heartbeat frame whenever the connection
// has been silent for the current session's HelloAck interval, so the
// server's silence sweep never closes a donor that is merely busy. The
// thread starts with the first session that asks for keepalives and
// follows every later one. Only the work loop reads the connection; every
// write, and every replacement or close, holds one mutex, so keepalive
// frames never interleave with the loop's.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/registry.hpp"
#include "dist/wire.hpp"
#include "net/blob_cache.hpp"
#include "net/bulk.hpp"
#include "net/socket.hpp"
#include "obs/span_profile.hpp"
#include "util/rng.hpp"

namespace hdcs::obs {
class Tracer;
}

namespace hdcs::dist {

struct ServerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ClientConfig {
  std::string server_host = "127.0.0.1";
  std::uint16_t server_port = 0;
  /// Ordered failover list (hot-standby deployments): non-empty
  /// supersedes server_host/server_port. The donor sticks with the
  /// endpoint that last answered and rotates to the next on a failed
  /// connect or handshake — an unpromoted standby rejects Hello with an
  /// error, so donors naturally skip past it until it promotes.
  std::vector<ServerEndpoint> servers;
  std::string name = "donor";
  /// Stop when the server reports all problems complete (used by tests and
  /// examples; a real deployment would keep waiting for new problems).
  bool exit_when_idle = true;
  /// Max consecutive "no work" responses before exiting when exit_when_idle.
  int max_idle_polls = 10000;
  /// Artificial throttle multiplier for heterogeneity experiments on one
  /// box: sleep (throttle-1)x the compute time of each unit. 0/1 = off.
  double throttle = 1.0;
  /// Fault injection: crash (vanish without submitting or saying Goodbye)
  /// right after computing the Nth unit. -1 = never.
  int crash_after_units = -1;
  /// Compute fault injection (test-only): corrupt this fraction of result
  /// payloads before submitting, modelling flaky RAM or a hostile donor.
  /// The corrupted payload gets a *matching* digest — a lying donor is
  /// self-consistent, so only replication voting can catch it. Draws are
  /// deterministic per (corrupt_seed, donor name, unit id). 0 = off.
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 0;
  /// Keep the work connection alive while a unit computes, so a long unit
  /// does not trip the server's client timeout. The interval comes from
  /// the HelloAck (0 = the server needs none). False = send no liveness
  /// frames at all: a computing donor then looks silent and is expired.
  bool send_heartbeats = true;
  /// Worker threads used *inside* each unit (Algorithm::set_parallelism):
  /// a multi-core donor splits a unit's independent pieces (e.g. DSEARCH
  /// database blocks) across threads with a deterministic merge, so the
  /// submitted payload is byte-identical to single-threaded execution.
  /// Contrast run_pool(), which runs whole independent donors per CPU.
  std::size_t exec_threads = 1;
  /// Consecutive failed connect+Hello attempts before the donor gives up
  /// (run() throws IoError). 1 = fail fast (the pre-reconnect behaviour);
  /// <= 0 = retry forever (service mode).
  int max_connect_attempts = 8;
  /// Reconnect backoff: delay starts at backoff_initial_s, doubles per
  /// consecutive failure up to backoff_max_s, and each wait is scaled by a
  /// deterministic (per-name) jitter of ±kBackoffJitter so a donor herd
  /// doesn't stampede a restarted server.
  /// The escalation persists across sessions (see ReconnectBackoff).
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  /// Blob cache: LRU memory-tier budget, plus an optional disk tier
  /// (empty dir = memory only) that survives donor restarts.
  std::size_t blob_cache_bytes = 64ull * 1024 * 1024;
  std::string blob_cache_dir;
  std::size_t blob_cache_disk_bytes = 256ull * 1024 * 1024;
  /// Optional structured event trace (blob_cache_hit events, stamped with
  /// wall seconds since this client was constructed). Not owned.
  obs::Tracer* tracer = nullptr;
  const AlgorithmRegistry* registry = &AlgorithmRegistry::global();
};

/// Relative spread of each reconnect wait (see ClientConfig::backoff_*).
inline constexpr double kBackoffJitter = 0.25;

/// Reconnect backoff that survives sessions. Each failed attempt escalates
/// the delay (x2, capped); merely reconnecting does NOT reset it — the
/// session must prove healthy (one of its results acked) first, so a donor
/// flapping against a sick server keeps paying the long delays instead of
/// hammering it, while one that survived a single blip earns the short
/// initial delay back with its next acked result. Work-loop thread only.
class ReconnectBackoff {
 public:
  ReconnectBackoff(double initial_s, double max_s)
      : initial_s_(initial_s), max_s_(max_s) {}

  /// Delay to wait before the next reconnect attempt (escalates per call).
  double next_delay() {
    delay_ = (delay_ <= 0) ? initial_s_ : std::min(delay_ * 2.0, max_s_);
    return delay_;
  }

  /// A result was acked: the session is healthy, so the next failure
  /// starts again from the initial delay.
  void session_healthy() { delay_ = 0; }

  /// Last delay handed out; 0 = fully reset (next attempt waits initial).
  [[nodiscard]] double current_delay() const { return delay_; }

 private:
  double initial_s_;
  double max_s_;
  double delay_ = 0;
};

struct ClientRunStats {
  std::uint64_t units_processed = 0;
  std::uint64_t idle_polls = 0;
  /// Sessions re-established after a transport failure (initial connect
  /// retries don't count until the first session exists).
  std::uint64_t reconnects = 0;
  /// Buffered results that had to be submitted on a later session.
  std::uint64_t results_resubmitted = 0;
  /// RetryLater NACKs honoured (overload/fail-stop shedding): the donor
  /// waited retry_after_s and retried instead of dropping state.
  std::uint64_t retry_laters = 0;
  double compute_seconds = 0;
};

class Client {
 public:
  explicit Client(ClientConfig config);

  /// Run the donor loop to completion (connects, works, says goodbye).
  /// Throws IoError if the server is unreachable.
  ClientRunStats run();

  /// Ask a running client (from another thread) to stop after the current
  /// unit. The client sends Goodbye so its lease is requeued immediately.
  void request_stop() { stop_.store(true); }

  /// Ask a running client to die abruptly (no Goodbye) — fault injection
  /// for lease-expiry tests.
  void request_crash() { crash_.store(true); }

  /// Synthetic CPU benchmark in abstract ops/sec, probed once per process
  /// (public for tests and benchmarks). A donor reports it divided by its
  /// throttle.
  static double measure_benchmark();

  /// Run `count` donor clients concurrently — one per CPU of a multi-core
  /// donor (the paper's dual-PIII cluster nodes contributed both CPUs).
  /// Each client gets the base name suffixed "-cpuN" and its own
  /// connection. Blocks until all are done; a worker's Error is logged,
  /// and when no worker finished cleanly the first worker's is rethrown.
  static std::vector<ClientRunStats> run_pool(const ClientConfig& base,
                                              int count);

 private:
  /// (algorithm name, problem data digest): what an Algorithm was built
  /// from. A problem id is unique only within one server's lifetime.
  using ContextKey = std::pair<std::string, std::uint64_t>;

  /// Resolve the assignment's blobs and return the Algorithm to run its
  /// unit with. On a problem's first unit the problem data joins the same
  /// FetchBlobs round trip as the unit's own blobs, and a new Algorithm is
  /// initialised from it. nullptr when the server no longer holds one of
  /// the blobs (see ensure_blobs).
  Algorithm* prepare(WorkAssignmentPayload& assignment);

  /// Resolve every blob in `blobs`: cache hits fill in the bytes locally,
  /// misses are batched into one FetchBlobs round-trip. Returns false when
  /// the server no longer holds one of them (the unit completed via a
  /// replica while our request was in flight) — the caller drops the unit
  /// and asks for fresh work. Present bodies are always drained off the
  /// stream (and cached) even on a partial miss, so the connection stays
  /// in sync.
  bool ensure_blobs(std::vector<WorkBlob>& blobs);

  /// Read frames until the reply to `correlation` arrives. The ack of the
  /// outstanding SubmitResult (ack_corr_) may come first; it is kept for
  /// take_ack(). Any other correlation, or an Error reply, is a
  /// ProtocolError: either ends the session.
  net::Message await_reply(std::uint64_t correlation);
  /// Send SubmitResult for `result`; its ack is then outstanding.
  void submit(const ResultUnit& result);
  /// Wait for the outstanding ack. True: acked, and `pending` is done.
  /// False: a RetryLater asks to resubmit it, or stop/crash cut the wait
  /// short.
  bool take_ack(std::optional<ResultUnit>& pending, bool& resubmitting,
                ClientRunStats& stats);

  /// Send a FetchBlobs request and read its reply, riding RetryLater NACKs
  /// (blob-budget shedding): wait retry_after_s and resend on the same
  /// connection. Throws IoError if stop/crash interrupts the wait.
  net::Message fetch_blobs_round(const FetchBlobsPayload& need);

  /// Record an honoured RetryLater NACK (stats + counter + log).
  void note_retry_later(const RetryLaterPayload& nack);

  /// Wall seconds since construction — the clock blob trace events use.
  double now() const;

  /// Write one frame on the work connection (any thread).
  void send(const net::Message& m);
  /// Replace the work connection (an empty stream just closes it).
  void install(net::TcpStream stream);
  /// Keepalive thread body: until keepalive_done_, write an empty
  /// Heartbeat whenever the work connection has been silent for the
  /// current session's heartbeat_interval_ (none while it is 0).
  void keepalive_loop();

  /// Connect + Hello, one backoff step between failed attempts. On success
  /// the work connection holds the new session, my_id_ is its client, and
  /// the keepalive thread follows its interval (started on first need).
  /// Returns false if stop/crash was requested while waiting; rethrows the
  /// last transport error once max_connect_attempts consecutive failures
  /// accumulate.
  bool connect_session();
  /// Wait one jittered ReconnectBackoff step; false if stop/crash
  /// interrupted it.
  bool backoff_step();
  /// Sleep ~delay seconds in small slices; false if stop/crash interrupted.
  bool backoff_wait(double delay);

  /// The endpoint the next connect will try.
  const ServerEndpoint& endpoint() const {
    return endpoints_[endpoint_ % endpoints_.size()];
  }
  void rotate_endpoint() {
    if (endpoints_.size() > 1) endpoint_ += 1;
  }

  ClientConfig config_;
  std::vector<ServerEndpoint> endpoints_;
  std::size_t endpoint_ = 0;
  ReconnectBackoff backoff_;
  net::BlobCache blob_cache_;
  /// Span profile of the unit currently being processed. Reset when an
  /// assignment is decoded; prepare/ensure_blobs accumulate blob-fetch and
  /// decompress spans into it; attached to the outgoing ResultUnit.
  obs::UnitProfile profile_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<ContextKey, std::unique_ptr<Algorithm>> contexts_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> crash_{false};
  ClientId my_id_ = 0;
  Rng backoff_rng_;
  std::uint64_t next_correlation_ = 1;
  std::uint64_t retry_laters_ = 0;  // work-loop thread only
  /// Correlation of the SubmitResult awaiting its ack on this session (0 =
  /// none), and that ack when it arrived ahead of another reply.
  std::uint64_t ack_corr_ = 0;
  std::optional<net::Message> early_ack_;

  // The work connection. stream_mutex_ guards every write to stream_,
  // every replacement or close of it, last_write_, heartbeat_interval_ and
  // keepalive_done_; reads need no lock, because only the work loop reads
  // (and it is also the only thread that replaces the stream).
  std::mutex stream_mutex_;
  std::condition_variable keepalive_cv_;
  net::TcpStream stream_;
  std::chrono::steady_clock::time_point last_write_;
  double heartbeat_interval_ = 0;  // from the current session's HelloAck
  bool keepalive_done_ = false;
  std::thread keepalive_;  // started by the first session that wants it
};

}  // namespace hdcs::dist
