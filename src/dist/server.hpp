#pragma once
// TCP server: wraps SchedulerCore with the framed-message protocol.
//
// Thread model (event-loop, fixed thread budget):
//   - io_threads epoll EventLoops (loop 0 also owns the listener); each
//     connection is pinned to one loop, parsed incrementally by a
//     FrameReader, and writes through a bounded per-connection queue —
//     ten thousand idle donors cost file descriptors, not OS threads,
//     and liveness is judged here too (see the liveness note below),
//   - worker_threads pool running everything that can block: scheduler
//     calls under core_mutex_, WAL fsyncs, stats JSON,
//   - one housekeeping thread (lease expiry ticks, parked-request
//     deadlines),
//   - one dedicated thread per attached hot standby (replication sessions
//     are long-lived, few, and intentionally blocking).
// A loop thread never takes core_mutex_ and never touches disk; a worker
// never touches a socket. Requests hop loop -> worker -> loop (post), with
// at most one worker job in flight per connection so responses keep their
// request order — except a ResultAck held for the group commit below.
//
// The connection is the session: its one Hello registers a client, and
// every later RequestWork, SubmitResult and Goodbye on it is that client's
// (no frame names a client id). Such a request before the Hello, or a
// second Hello, is answered Error and changes nothing. Closing a registered
// connection is the client's departure.
//
// Long-poll: a RequestWork with nothing to serve is *parked* — its NoWork
// reply is held in a FIFO (no worker waits on it, the connection stays
// busy) and sent when work can exist, so the donor asks again at once:
// the oldest entry on a SubmitResult, submit_problem, tick, departure or
// served RequestWork; every entry once all problems are complete, on
// drain() and on fail-stop; otherwise at its no_work_retry_s deadline.
// Whoever pops an entry answers it, exactly once.
//
// Group commit: a SubmitResult is applied and appended under core_mutex_
// as before (WAL order is mutation order), but with a WAL its ack is then
// *held* — a second kind of entry, {conn, correlation, accepted,
// need_lsn} — until the log is durable through need_lsn, the lsn of the
// last record that accepted a result (so a duplicate also waits for its
// first copy). A held ack does not keep its connection busy: the donor's
// next request is served at once, and the ack follows later, out of
// request order. The worker that holds an ack while no fsync runs becomes
// the commit leader (no thread of its own): after posting its own reply it
// takes a WalLog::SyncPoint under core_mutex_, fsyncs it without any lock,
// releases every ack the fsync covered, and repeats while acks remain. A
// failed fsync fails the log and degrades under core_mutex_; held acks are
// then answered RetryLater under kFailStop and acked under kContinue. A
// closed connection drops its held ack (the donor resubmits; the core
// drops the duplicate).
//
// Liveness rides the work connection. Each connection stamps the last time
// it received bytes; a Heartbeat frame (a donor's one-way keepalive while
// it computes) does nothing else — the loop drops it: no reply, no worker,
// no core lock. The loop's periodic sweep closes a registered connection
// that has been silent for client_timeout_s and is owed nothing (no worker
// job or parked request, empty write queue); the ordinary close path then
// logs the departure (kClientLeft), so WAL replay and standbys see a plain
// client_left.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dist/scheduler_core.hpp"
#include "dist/wal.hpp"
#include "net/bulk.hpp"
#include "net/event_loop.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "util/thread_pool.hpp"

namespace hdcs::dist {

/// What a primary does when its durable storage (WAL append or fsync)
/// fails.
enum class DurabilityMode {
  /// Keep scheduling with durability degraded: results are accepted but a
  /// crash before the disk recovers loses them (donors were told they
  /// could drop their copies). The epoch is bumped so a later restart
  /// from the stale durable state fences everything issued during the
  /// degraded window, and a watchdog re-arms durability (WAL rebuild)
  /// once the disk takes writes again.
  kContinue,
  /// Stop cleanly instead: refuse new sessions and result submissions
  /// (donors get RetryLater and keep their buffered results), drain,
  /// and let the operator restart onto healthy storage. storage_failed()
  /// turns true so the embedding process can exit non-zero.
  kFailStop,
};

/// A connection whose queued replies make no write progress for this long
/// is shed: its donor stopped reading.
inline constexpr double kWriteStallTimeoutS = 30.0;

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  SchedulerConfig scheduler;
  std::string policy_spec = "adaptive:15";
  double tick_interval_s = 0.5;
  /// Longest a RequestWork with nothing to serve is held before it is
  /// answered NoWork (it is answered sooner when work can exist; see the
  /// long-poll note above).
  double no_work_retry_s = 0.2;
  /// Close a registered donor connection silent for this long (see the
  /// liveness note above); its leases are requeued at once. HelloAck tells
  /// donors to keep alive every client_timeout_s / 4. 0 = never.
  double client_timeout_s = 0.0;
  /// Optional structured event trace. The server stamps events with wall
  /// time (seconds since start()); must outlive the server. Not owned.
  obs::Tracer* tracer = nullptr;

  // ---- write-ahead log (see dist/wal.hpp) ----

  /// WAL directory: the server's only durability. Empty = none (the
  /// default; a restart starts over). When set, every SchedulerCore
  /// mutation is logged under the core lock and a result is fsynced
  /// durable *before* its ack is sent — a kill -9 then loses zero accepted
  /// results. start() recovers base snapshot + tail, replays, and enters
  /// a new epoch, whose client sweep requeues every lease of the dead
  /// incarnation. The caller must have submitted the same problems (same
  /// inputs, same order) before start().
  std::string wal_dir;
  std::size_t wal_segment_bytes = 4u << 20;
  /// Fold the log into a fresh base snapshot every this many records
  /// (compaction; 0 = never). Runs on the housekeeping thread.
  std::uint64_t wal_compact_every = 4096;

  // ---- durability degradation (see DurabilityMode) ----

  DurabilityMode durability_mode = DurabilityMode::kContinue;
  /// Degraded-state re-arm cadence: every this many seconds the
  /// housekeeping thread tries to rebuild the WAL and restore `durable`.
  double rearm_retry_s = 1.0;
  /// Disk-budget watchdog: when the WAL directory exceeds this many
  /// bytes, force a compaction to shed folded segments before the disk
  /// actually fills. 0 = off.
  std::uint64_t wal_dir_budget_bytes = 0;

  // ---- overload control ----

  /// Shed Hello when this many clients are already active (donors get
  /// RetryLater and back off). 0 = unbounded.
  int max_clients = 0;
  /// Global cap on FetchBlobs response bytes in flight across all
  /// connections (bodies are held in memory from collection until the
  /// socket write finishes). Requests that would exceed it get RetryLater.
  /// 0 = unbounded.
  std::size_t blob_inflight_budget_bytes = 0;
  /// retry_after_s stamped into RetryLater NACKs.
  double retry_later_s = 0.5;

  // ---- event-loop I/O ----

  /// Epoll loops driving connection I/O. One loop handles thousands of
  /// donors; add loops only when a single core saturates on framing.
  int io_threads = 1;
  /// Workers running scheduler calls and WAL fsyncs so the loop threads
  /// never block on the core mutex or on disk.
  int worker_threads = 4;
  /// Per-connection write-queue bound. Above it the connection's reads are
  /// paused (backpressure) until the donor drains half; a donor that stops
  /// draining entirely is shed after kWriteStallTimeoutS.
  std::size_t max_write_buffer_bytes = 64u << 20;

  // ---- hot standby (protocol v6 replication) ----

  /// Non-empty = start as a hot standby of this primary: sync an exact
  /// snapshot, tail its WAL stream into a shadow core (and into wal_dir if
  /// set), answer donors with a "standby" error, and promote — bump the
  /// epoch and start serving — once the stream has been silent for
  /// failover_timeout_s after a successful sync.
  std::string primary_host;
  std::uint16_t primary_port = 0;
  double failover_timeout_s = 2.0;
  std::string standby_name = "standby";
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start accepting clients.
  void start();

  /// Stop accepting, close connections, join threads. Idempotent.
  void stop();

  /// Submit a problem (thread-safe); returns its id.
  ProblemId submit_problem(std::shared_ptr<DataManager> dm);

  /// Block until the given problem completes (or the server stops).
  /// Returns true if complete.
  bool wait_for_problem(ProblemId id, double timeout_s = -1);

  /// Block until every submitted problem completes.
  bool wait_for_all(double timeout_s = -1);

  [[nodiscard]] std::vector<std::byte> final_result(ProblemId id);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] SchedulerStats stats();
  /// Per-client scheduler view (includes departed clients), thread-safe.
  [[nodiscard]] std::vector<ClientInfo> client_stats();
  [[nodiscard]] int connected_clients();

  /// The JSON document served to MSG_STATS, also available in-process.
  [[nodiscard]] std::string stats_json(bool include_clients = true);

  /// Durability state surfaced in MSG_STATS and hdcs_top. kNone = no WAL
  /// configured (nothing to degrade from).
  enum class Durability { kNone = 0, kDurable = 1, kDegraded = 2 };
  [[nodiscard]] Durability durability() const {
    return static_cast<Durability>(durability_.load());
  }
  /// True once a fail-stop server has hit a storage fault: it is draining
  /// and the embedding process should exit non-zero (every acked result is
  /// already durable).
  [[nodiscard]] bool storage_failed() const { return storage_failed_.load(); }

  /// True while running as a hot standby that has not yet promoted.
  [[nodiscard]] bool is_standby() const { return standby_.load(); }
  /// True once a standby has received the primary's snapshot.
  [[nodiscard]] bool standby_synced() const { return standby_synced_.load(); }
  /// Current scheduler term (see SchedulerCore::epoch()). Thread-safe.
  [[nodiscard]] std::uint64_t epoch();
  /// Force an immediate WAL compaction (fold log into base snapshot).
  /// No-op without a WAL. Thread-safe.
  void compact_wal();
  /// Stop handing out work: parked RequestWorks are answered kShutdown at
  /// once, later ones on arrival, and donors disconnect cleanly. Used by
  /// the SIGINT/SIGTERM path in the examples before stop().
  void drain();
  /// Connections the liveness sweep closed as silent (MSG_STATS
  /// scheduler.clients_expired).
  [[nodiscard]] std::uint64_t clients_expired() const {
    return clients_expired_.load();
  }

 private:
  struct ReplicaFeed;  // per-standby queue of encoded WAL records
  struct IoLoop;       // an EventLoop + its thread + its connections
  struct Conn;         // per-connection state machine (loop-thread owned)
  struct HandlerOutcome;  // worker -> loop: encoded response chunks

  /// A held RequestWork (see the long-poll note).
  struct Parked {
    std::shared_ptr<Conn> conn;
    std::uint64_t correlation = 0;
    std::chrono::steady_clock::time_point since;
    std::chrono::steady_clock::time_point deadline;
  };
  /// A held ResultAck (see the group-commit note).
  struct HeldAck {
    std::shared_ptr<Conn> conn;
    std::uint64_t correlation = 0;
    bool accepted = false;
    std::uint64_t need_lsn = 0;  // sent once the WAL is durable through it
    std::chrono::steady_clock::time_point since;
  };
  /// What the commit leader does with the held acks it releases.
  enum class Release { kDurable, kAckAll, kNackAll };

  // Event-loop path. All conn_* methods run on the connection's loop
  // thread; handle_request runs on a worker.
  void accept_ready();
  void register_conn(IoLoop& io, net::TcpStream stream);
  void conn_event(std::shared_ptr<Conn> c, std::uint32_t events);
  void conn_readable(const std::shared_ptr<Conn>& c);
  void conn_flush(const std::shared_ptr<Conn>& c);
  void conn_enqueue(const std::shared_ptr<Conn>& c,
                    std::vector<std::byte> bytes, std::size_t release);
  void conn_pump(const std::shared_ptr<Conn>& c);
  void conn_disconnect(std::shared_ptr<Conn> c, const char* reason);
  void sync_conn_events(const std::shared_ptr<Conn>& c);
  void sweep_conns(IoLoop& io);
  HandlerOutcome handle_request(const std::shared_ptr<Conn>& c,
                                const net::Message& request);
  void deliver(const std::shared_ptr<Conn>& c, HandlerOutcome out);
  void detach_replica(const std::shared_ptr<Conn>& c, net::Message hello);
  /// Log a departure on a worker; `reason` labels the trace event only.
  void client_left_async(ClientId id, const char* reason = "goodbye");

  // Long-poll. park() queues c's RequestWork (false: c hung up or the
  // server drains, so answer now); answer_parked() pops up to `max` entries
  // (only those past their deadline when expired_only) and answers each
  // NoWork(all_complete), or kShutdown while draining.
  bool park(const std::shared_ptr<Conn>& c, std::uint64_t correlation);
  void answer_parked(std::size_t max, bool all_complete, bool expired_only);
  void wake_parked_locked();  // requires core_mutex_: work may exist now

  // Group commit. hold_ack() queues c's ack (false: durable already, answer
  // now) and sets `lead` when the caller must run group_commit() after
  // posting its reply; release_acks() answers what `how` allows and says
  // whether acks are still waiting for a later fsync.
  bool hold_ack(const std::shared_ptr<Conn>& c, std::uint64_t correlation,
                bool accepted, std::uint64_t need_lsn, bool& lead);
  void group_commit();
  bool release_acks(Release how, std::uint64_t synced_lsn);
  /// Retryable NACK, counted in server.retry_laters.
  net::Message retry_later(std::uint64_t correlation, const char* reason);

  void housekeeping_loop();
  void serve_replica(net::TcpStream& stream, const net::Message& hello);
  void replica_loop();  // standby: sync + tail the primary, promote on silence
  void promote(const char* reason);
  // All four require core_mutex_ held. log_record returns the lsn it
  // assigned (0: nothing logged — no WAL and no standby).
  std::uint64_t log_record(WalRecord rec);
  void enter_new_term(const char* reason, double t);
  void maybe_compact_locked(double t);
  void degrade_locked(const char* reason, double t);
  /// Housekeeping: attempt the degraded -> durable transition (WAL
  /// rebuild). Takes the core lock itself.
  bool try_rearm();
  double now() const;

  ServerConfig config_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;

  std::mutex core_mutex_;
  SchedulerCore core_;
  std::condition_variable progress_cv_;
  /// Bumped by submit_problem (guarded by core_mutex_). A connection told
  /// all_problems_complete in this generation parks its repeat requests.
  std::uint64_t problem_gen_ = 1;

  // Parked RequestWork replies, oldest first; every entry holds the same
  // no_work_retry_s, so the front also has the nearest deadline. Lock
  // order: core_mutex_ before park_mutex_; loop threads take only the
  // latter, and the commit leader holds neither while it fsyncs.
  // park_cv_ wakes the housekeeper for a new front deadline or stop().
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::deque<Parked> parked_;
  // Held acks, in hold order, and the group commit's state (park_mutex_):
  // every record through durable_lsn_ is on disk; committing_ is true
  // while a leader runs, which it does whenever held_ is non-empty.
  std::deque<HeldAck> held_;
  bool committing_ = false;
  std::uint64_t durable_lsn_ = 0;
  /// Lsn of the last record that accepted a result (core_mutex_).
  std::uint64_t accepted_lsn_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<int> connected_{0};
  std::vector<std::unique_ptr<IoLoop>> io_;
  std::unique_ptr<ThreadPool> workers_;
  std::size_t next_loop_ = 0;  // round-robin conn placement; loop-0 thread
  std::atomic<std::size_t> write_hwm_{0};
  std::thread housekeeper_;
  std::mutex replica_threads_mutex_;
  std::vector<std::thread> replica_threads_;
  std::chrono::steady_clock::time_point epoch_;

  // WAL + replication state. wal_, repl_lsn_ and feeds_ are guarded by
  // core_mutex_ (records are logged in core-mutation order).
  std::unique_ptr<WalLog> wal_;
  std::uint64_t repl_lsn_ = 1;  // next stream lsn when no WAL is configured
  std::uint64_t last_compact_lsn_ = 1;
  std::vector<std::shared_ptr<ReplicaFeed>> feeds_;
  std::atomic<bool> standby_{false};
  std::atomic<bool> standby_synced_{false};
  std::atomic<bool> draining_{false};
  std::thread replica_;

  // Durability state machine + overload accounting. durability_ holds a
  // Durability value; transitions happen under core_mutex_ (reads are
  // lock-free for stats/guards).
  std::atomic<int> durability_{0};
  std::atomic<bool> storage_failed_{false};
  std::atomic<std::uint64_t> blob_inflight_bytes_{0};
  std::atomic<std::uint64_t> clients_expired_{0};
};

}  // namespace hdcs::dist
