#pragma once
// Transport-independent scheduling brain.
//
// All of the distributed system's decision making lives here: which problem
// a work request is served from, how big the unit is (granularity policy),
// lease tracking and reissue of units lost to failed or slow donors, and
// per-client throughput estimation. The TCP Server drives it with wall-clock
// time; the discrete-event simulator drives the *same object* with virtual
// time — that is what lets the paper's 83- and 200-machine experiments run
// faithfully on one core.
//
// Result integrity: donors cannot be trusted to return *correct* bytes
// (flaky RAM, overclocked hardware, hostile volunteers). When replication
// is enabled the scheduler leases k copies of each unit to distinct donors,
// votes on the CRC-32 digests of the returned payloads, merges one
// canonical payload once a quorum of digests agree, and reissues
// tie-breaker replicas on disagreement. A per-donor reputation score (EWMA
// of vote wins/losses, keyed by donor *name* so it survives reconnects)
// lets proven donors run un-replicated, subject to seeded random
// spot-checks; donors that lose votes are demoted back to full replication
// and blacklisted after repeated offenses. See docs/ROBUSTNESS.md.
//
// Threading: SchedulerCore is NOT thread-safe; callers serialise access
// (Server holds a mutex, the simulator is single-threaded).

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/data_manager.hpp"
#include "dist/granularity.hpp"
#include "dist/work.hpp"
#include "util/rng.hpp"

namespace hdcs::obs {
class Tracer;
}

namespace hdcs::dist {

/// Times one unit may be hedged (see SchedulerConfig::hedge_endgame).
inline constexpr int kMaxHedgesPerUnit = 1;
/// Seed of the deterministic spot-check RNG (see
/// SchedulerConfig::spot_check_rate); its state is part of the exact
/// snapshot.
inline constexpr std::uint64_t kIntegritySeed = 1;

struct SchedulerConfig {
  /// Units not completed within lease_timeout seconds are reissued.
  double lease_timeout = 300.0;
  /// EWMA smoothing for measured client throughput.
  double ewma_alpha = 0.3;
  /// End-game straggler hedging: when a client asks for work and no fresh
  /// or requeued unit exists, speculatively hand it a *copy* of the oldest
  /// outstanding lease (owned by someone else). Whichever result arrives
  /// first wins; the loser is dropped as a duplicate. Bounds the tail a
  /// slow semi-idle donor can add to a problem without waiting for the
  /// lease timeout. A unit is hedged at most kMaxHedgesPerUnit times.
  bool hedge_endgame = false;
  /// Poison-unit quarantine: a unit whose every lease has failed (expiry,
  /// donor crash/timeout) this many times is quarantined instead of
  /// reissued forever — one unit that crashes every donor it touches must
  /// not wedge the whole problem. A late genuine result for a quarantined
  /// unit is still accepted (rescued). 0 = unlimited reissues (the
  /// default). Lost hedge or replica copies whose siblings are still alive
  /// do NOT burn attempts — only the failure of a unit's *last* live copy
  /// counts.
  int max_attempts_per_unit = 0;
  /// Per-client in-flight budget: a client already holding this many
  /// outstanding leases is served nothing until results (or lease expiry)
  /// drain the backlog — one greedy multi-threaded donor must not strip-
  /// mine the queue and then crash with half the problem leased. 0 =
  /// unbounded (the default, and the pre-overload-control behaviour).
  int max_outstanding_per_client = 0;
  GranularityBounds bounds;

  // ---- result integrity (replication / voting / reputation) ----

  /// Lease k copies of each unit to k distinct donors and accept a payload
  /// only when `quorum` digests agree. 1 (the default) disables
  /// replication entirely — every behaviour is then identical to the
  /// pre-integrity scheduler.
  int replication_factor = 1;
  /// Digest votes required to accept a payload; 0 = simple majority of
  /// replication_factor (k/2 + 1).
  int quorum = 0;
  /// Trusted donors run un-replicated, but each fresh unit issued to one
  /// is spot-checked (replicated anyway) with this probability, drawn from
  /// a deterministic RNG seeded by kIntegritySeed.
  double spot_check_rate = 0.05;
  /// Reputation EWMA: score <- (1-a)*score + a*(win ? 1 : 0), starting at
  /// 0.5. A donor is trusted once score >= reputation_trust_threshold.
  double reputation_alpha = 0.2;
  double reputation_trust_threshold = 0.8;
  /// Blacklist a donor name after this many total vote losses: its work
  /// requests are refused and its results rejected. 0 = never blacklist.
  int blacklist_after = 3;
  /// When every vote is in and no digest has quorum, reissue one
  /// tie-breaker replica — at most this many times before the unit is
  /// quarantined as unresolvable.
  int max_tie_breakers = 4;

  /// Client-table hygiene: a departed client row (Goodbye or timeout) is
  /// evicted this many seconds after it was last seen, once its leases
  /// have resolved, so a fleet of reconnecting donors does not grow the
  /// table forever. Aggregate counts survive eviction (clients_evicted /
  /// evicted_units_completed). 0 = keep departed rows forever.
  double client_retention_s = 600.0;
};

/// Per-donor trust state, keyed by donor *name* (client ids are ephemeral
/// across reconnects). Persisted in the exact snapshot.
struct DonorReputation {
  double score = 0.5;  // EWMA of vote outcomes in [0, 1]
  std::uint64_t vote_wins = 0;
  std::uint64_t vote_losses = 0;
  bool blacklisted = false;
};

/// One row of the scheduler's client table, exposed for observability
/// (Server::client_stats(), the MSG_STATS snapshot, hdcs_top).
struct ClientInfo {
  ClientId id = 0;
  std::string name;
  bool active = true;
  ClientStats stats;
  /// Reputation of the donor *name* this row belongs to.
  double reputation = 0.5;
  bool blacklisted = false;
  std::uint64_t vote_wins = 0;
  std::uint64_t vote_losses = 0;
};

struct SchedulerStats {
  std::uint64_t units_issued = 0;
  std::uint64_t units_reissued = 0;
  std::uint64_t units_hedged = 0;
  std::uint64_t results_accepted = 0;
  std::uint64_t duplicate_results_dropped = 0;
  std::uint64_t stale_results_dropped = 0;
  std::uint64_t work_requests_unserved = 0;
  std::uint64_t units_quarantined = 0;
  // ---- result integrity ----
  std::uint64_t units_replicated = 0;      // units put to a vote
  std::uint64_t replicas_issued = 0;       // extra copies leased out
  std::uint64_t spot_checks = 0;           // replications of trusted donors
  std::uint64_t votes_recorded = 0;
  std::uint64_t vote_quorums = 0;          // units resolved by agreement
  std::uint64_t vote_mismatches = 0;       // full rounds with no quorum
  std::uint64_t results_rejected_mismatch = 0;     // lost a digest vote
  std::uint64_t results_rejected_digest = 0;       // wire CRC != payload
  std::uint64_t results_rejected_blacklisted = 0;  // from a banned donor
  std::uint64_t donors_blacklisted = 0;
  std::uint64_t clients_evicted = 0;  // departed rows aged out of the table
  std::uint64_t results_rejected_stale_epoch = 0;  // fenced deposed-primary work
};

class SchedulerCore {
 public:
  SchedulerCore(SchedulerConfig config, std::unique_ptr<GranularityPolicy> policy);

  // ---- problems ----

  /// Register a problem; several may run concurrently (Fig. 2 runs six).
  ProblemId submit_problem(std::shared_ptr<DataManager> dm);

  [[nodiscard]] bool problem_complete(ProblemId id) const;
  [[nodiscard]] bool all_complete() const;
  [[nodiscard]] std::vector<std::byte> final_result(ProblemId id) const;
  [[nodiscard]] const DataManager& data_manager(ProblemId id) const;
  [[nodiscard]] std::vector<ProblemId> active_problems() const;

  // ---- content-addressed blob store (protocol v4 bulk-data plane) ----
  //
  // submit_problem() interns the problem data as a pinned blob;
  // request_work() interns every blob a DataManager attaches to a fresh
  // unit and strips the bytes, so UnitStates and wire assignments carry
  // only {digest, size} references. A blob's bytes live until the last
  // incomplete unit referencing it is merged (pinned problem-data blobs
  // live as long as the core).

  /// Bytes of an interned blob; nullptr when no incomplete unit references
  /// the digest (the caller should treat the referencing unit as stale).
  [[nodiscard]] std::shared_ptr<const std::vector<std::byte>> blob_bytes(
      std::uint64_t digest) const;
  /// Content digest / raw size of a problem's input data.
  [[nodiscard]] std::uint64_t problem_data_digest(ProblemId id) const;
  [[nodiscard]] std::uint64_t problem_data_bytes(ProblemId id) const;
  /// Fill an issued unit's blob references back in with their bytes. The
  /// transports stream blobs separately (cache-negotiated); in-process
  /// drivers that hand the unit straight to an Algorithm call this instead.
  /// Throws ProtocolError if a referenced digest is no longer interned.
  void materialize_unit_blobs(WorkUnit& unit) const;

  // ---- clients ----

  ClientId client_joined(const std::string& name, double benchmark_ops_per_sec,
                         double now);
  /// Orderly or detected departure: all leased units are requeued.
  /// `reason` ("goodbye", or "timeout" for a connection the server closed
  /// as silent) labels the trace event only; state is the same either way.
  void client_left(ClientId id, double now, const char* reason = "goodbye");
  [[nodiscard]] const ClientStats* client_stats(ClientId id) const;
  /// Snapshot of every client (active and departed) the core has seen.
  [[nodiscard]] std::vector<ClientInfo> all_client_stats() const;
  [[nodiscard]] int active_client_count() const;
  /// Reputation of a donor name; nullptr until it has won or lost a vote
  /// (or been issued replicated work).
  [[nodiscard]] const DonorReputation* reputation(const std::string& name) const;
  /// Units completed by client rows already evicted from the table.
  [[nodiscard]] std::uint64_t evicted_units_completed() const {
    return evicted_units_completed_;
  }

  // ---- the work loop ----

  /// Serve a work request. Tries requeued units and pending replica copies
  /// first, then asks active problems (round-robin, starting after the
  /// problem served last) for a fresh unit sized by the granularity
  /// policy. nullopt = nothing available right now (all problems complete
  /// or stage-blocked) or the requester is blacklisted.
  std::optional<WorkUnit> request_work(ClientId client, double now);

  /// Accept a result. Returns true if the result contributed (merged, or
  /// recorded as a digest vote); false for duplicates, stale results,
  /// digest mismatches and blacklisted donors.
  bool submit_result(ClientId client, const ResultUnit& result, double now);

  /// Housekeeping: expire leases and age out departed client rows. Call
  /// periodically. (Dead donors are detected by the transport: the server
  /// closes a silent connection, which is an ordinary client_left.)
  void tick(double now);

  // ---- exact snapshot / restore (WAL base image, hot-standby sync) ----
  //
  // The scheduler's one state image. The WAL's base snapshot and a
  // standby's initial sync both need a byte-exact state transfer: a core
  // replaying the primary's operation log must land in the *same* state
  // the primary was in, field for field, or replay diverges.
  // snapshot_exact() serialises every member — leases, client rows, stats,
  // the RR cursor, the integrity RNG's raw state, the epoch — and
  // restore_exact() overwrites a live core with it, all or nothing: an
  // image it refuses (ProtocolError) leaves the core as it was. The same
  // problems must already be registered (same inputs, same order); their
  // DataManagers are rewound to the snapshot. Because all core containers
  // are ordered maps, two cores are in identical states iff their
  // snapshot_exact() bytes are identical — the equivalence tests rely on
  // this. A restart from disk is restore_exact + WAL replay + a new term
  // (bump_epoch, then client_left for every client of the dead
  // incarnation, which requeues its leases).

  /// Current server term. Starts at 1; bumped via bump_epoch() on WAL
  /// recovery and standby promotion. Stamped into every issued lease.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Enter a new term (monotonic; throws ProtocolError on regression).
  /// Leases issued from now on carry the new epoch; results stamped with
  /// any other epoch are rejected by submit_result.
  void bump_epoch(std::uint64_t new_epoch);

  void snapshot_exact(ByteWriter& w) const;
  void restore_exact(ByteReader& r);

  /// Units currently leased or awaiting reissue across all problems.
  [[nodiscard]] std::size_t in_flight_units() const;
  /// Queued unit copies waiting for a donor to ask (reissues + replica
  /// copies). A persistently non-zero value means the fleet is too small
  /// for the failure/replication rate.
  [[nodiscard]] std::size_t pending_units() const;

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  [[nodiscard]] const GranularityPolicy& policy() const { return *policy_; }

  /// Attach a structured event trace (see obs/trace.hpp). Every scheduling
  /// decision — issue, reissue, hedge, replica, vote, completion,
  /// duplicate, rejection, blacklist, join/leave, stage barrier — is
  /// emitted with the caller's timestamps, so the simulator (virtual time)
  /// and the Server (wall time) produce the same schema. nullptr (the default) disables tracing; the tracer must
  /// outlive this core. The caller's serialisation rules apply (the core
  /// is not thread-safe, and neither is its use of the tracer).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

 private:
  /// One live lease: a copy of the unit in some donor's hands.
  struct Replica {
    ClientId owner = 0;
    double issued_at = 0;
    double deadline = 0;
    bool hedge = false;  // a lost hedge is dropped, never requeued
  };

  /// Everything the scheduler knows about one incomplete unit: the unit
  /// itself (payload retained for reissue), every live lease, queued
  /// copies awaiting a donor, and the digest votes received so far.
  struct UnitState {
    WorkUnit unit;
    /// Failed delivery attempts; incremented when a *reissued* copy is
    /// served. Drives poison-unit quarantine.
    int attempt = 1;
    int hedges = 0;           // speculative copies issued so far
    int replicas_wanted = 1;  // k for this unit (1 = un-replicated)
    int quorum_needed = 1;
    int tie_breakers = 0;
    bool spot_check = false;  // replicated only to audit a trusted donor
    std::vector<Replica> leases;
    int queued = 0;  // copies sitting in the issue queue
    std::map<std::string, std::uint32_t> votes;  // donor name -> digest
    /// First payload seen per digest; the quorum winner becomes canonical.
    std::map<std::uint32_t, std::vector<std::byte>> payload_by_digest;

    [[nodiscard]] int live_copies() const {
      return static_cast<int>(leases.size()) + static_cast<int>(votes.size()) +
             queued;
    }
    [[nodiscard]] bool holds_lease(ClientId id) const {
      for (const auto& l : leases) {
        if (l.owner == id) return true;
      }
      return false;
    }
  };

  struct QueueEntry {
    UnitId uid = 0;
    bool reissue = false;  // true: a failed unit (counts an attempt when served)
  };

  struct ProblemState {
    std::shared_ptr<DataManager> dm;
    std::map<UnitId, UnitState> in_flight;  // every incomplete issued unit
    std::deque<QueueEntry> issue_queue;     // copies awaiting a donor
    std::map<UnitId, UnitState> quarantined;  // poison units, never reissued
    UnitId next_unit_id = 1;
    bool barrier_flagged = false;  // one stage_barrier event per dry spell
    std::uint64_t data_digest = 0;  // content digest of dm->problem_data()
    std::uint64_t data_bytes = 0;

    /// Ids are issued densely from 1, so an issued id that is neither in
    /// flight nor quarantined has been merged (duplicate detection).
    [[nodiscard]] bool merged(UnitId uid) const {
      return uid != 0 && uid < next_unit_id && !in_flight.count(uid) &&
             !quarantined.count(uid);
    }
  };

  struct BlobEntry {
    std::shared_ptr<const std::vector<std::byte>> bytes;
    int refs = 0;        // incomplete units referencing this digest
    bool pinned = false; // problem data: never released
  };

  struct ClientState {
    ClientId self_id = 0;
    std::string name;
    ClientStats stats;
    bool active = true;
  };

  std::optional<WorkUnit> issue_from(ProblemId pid, ProblemState& ps, ClientState& cs,
                                     double now);
  std::optional<WorkUnit> serve_queued(ProblemId pid, ProblemState& ps,
                                       ClientState& cs, double now);
  std::optional<WorkUnit> hedge_from(ProblemId pid, ProblemState& ps,
                                     ClientState& cs, double now);
  void requeue_client_units(ClientId id, double now);
  /// One of a unit's leases failed (expiry / donor loss); the lease has
  /// already been removed. Drops lost hedges, requeues a replacement copy
  /// when the unit is short of its replication target. Returns true when
  /// the failure of the unit's last copy burned the attempt cap — the
  /// caller must then move_to_quarantine (deferred because the caller may
  /// be iterating the in_flight map).
  bool fail_replica(ProblemId pid, ProblemState& ps, UnitState& us,
                    const Replica& lost, double now, const char* reason);
  /// Decide whether the unit just leased to `cs` must be replicated
  /// (untrusted recipient, or a spot-check of a trusted one) and queue the
  /// missing copies.
  void apply_replication_policy(ProblemId pid, ProblemState& ps, UnitState& us,
                                const ClientState& cs, double now);
  void queue_copies(ProblemState& ps, UnitState& us, int copies, bool reissue);
  /// Record `client`'s digest vote and resolve: merge on quorum, reissue a
  /// tie-breaker when every copy has voted without agreement.
  bool record_vote(ProblemId pid, ProblemState& ps, UnitId uid, ClientId client,
                   const std::string& voter, std::uint32_t digest,
                   const ResultUnit& result, double now);
  /// Merge `payload` as the unit's canonical result and settle the vote:
  /// reward winners, punish losers, cancel surviving leases.
  void accept_unit(ProblemId pid, ProblemState& ps, UnitId uid, ClientId client,
                   std::uint32_t winning_digest, std::vector<std::byte> payload,
                   double now);
  void move_to_quarantine(ProblemId pid, ProblemState& ps, UnitId uid,
                          double now, const char* reason);
  /// Update a donor's reputation after a vote; may blacklist it.
  void settle_vote(const std::string& name, bool won, double now);
  [[nodiscard]] bool is_trusted(const std::string& name) const;
  [[nodiscard]] bool is_blacklisted(const std::string& name) const;
  [[nodiscard]] int effective_quorum() const;
  void release_lease_stat(ClientId owner);
  /// Voter key for a client id: its name, or "#<id>" if unknown.
  [[nodiscard]] std::string voter_name(ClientId id) const;
  /// Move a unit's blob bytes into the store (bumping refcounts) and strip
  /// them from the unit, leaving {digest, size} references. Blobs already
  /// byte-less (restore path) only bump refs; an unknown digest there is a
  /// ProtocolError.
  void intern_unit_blobs(WorkUnit& unit);
  /// Drop one reference per blob of a completing unit; unpinned entries
  /// reaching zero refs are erased.
  void release_unit_blobs(const WorkUnit& unit);
  /// restore_exact's decoder: overwrites members as it reads, so a throw
  /// leaves the core half-restored (restore_exact undoes that).
  void read_exact(ByteReader& r);

  SchedulerConfig config_;
  std::unique_ptr<GranularityPolicy> policy_;
  std::map<ProblemId, ProblemState> problems_;
  std::map<std::uint64_t, BlobEntry> blob_store_;
  std::map<ClientId, ClientState> clients_;
  std::map<std::string, DonorReputation> reputation_;
  ProblemId next_problem_id_ = 1;
  ClientId next_client_id_ = 1;
  ProblemId rr_cursor_ = 0;  // last problem served (round-robin fairness)
  SchedulerStats stats_;
  std::uint64_t evicted_units_completed_ = 0;
  Rng integrity_rng_;  // spot-check draws; seeded by kIntegritySeed
  obs::Tracer* tracer_ = nullptr;
  double last_now_ = 0;  // latest timestamp seen; stamps clock-less events
  std::uint64_t epoch_ = 1;  // server term; see epoch()/bump_epoch()
};

}  // namespace hdcs::dist
