#include "dist/scheduler_core.hpp"

#include <algorithm>

#include "net/bulk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace hdcs::dist {

namespace {
/// Fleet-wide per-phase latency histograms, fed from every v5 span profile
/// the scheduler merges. Process-global registry so the MSG_STATS snapshot
/// (and hdcs_top's phase-breakdown columns) see them without plumbing.
struct ProfileHistograms {
  obs::Histogram& queue_wait;
  obs::Histogram& blob_fetch;
  obs::Histogram& decompress;
  obs::Histogram& compute;
  obs::Histogram& encode;
  obs::Histogram& submit;
};
ProfileHistograms& profile_histograms() {
  auto& reg = obs::Registry::global();
  static ProfileHistograms h{
      reg.histogram("unit.queue_wait_s"), reg.histogram("unit.blob_fetch_s"),
      reg.histogram("unit.decompress_s"), reg.histogram("unit.compute_s"),
      reg.histogram("unit.encode_s"),     reg.histogram("unit.submit_s")};
  return h;
}
}  // namespace

SchedulerCore::SchedulerCore(SchedulerConfig config,
                             std::unique_ptr<GranularityPolicy> policy)
    : config_(config),
      policy_(std::move(policy)),
      integrity_rng_(kIntegritySeed) {
  if (!policy_) throw InputError("SchedulerCore: null granularity policy");
  if (config_.lease_timeout <= 0) throw InputError("lease_timeout must be > 0");
  if (config_.replication_factor < 1) {
    throw InputError("replication_factor must be >= 1");
  }
  if (config_.quorum < 0 || config_.quorum > config_.replication_factor) {
    throw InputError("quorum must be in [0, replication_factor]");
  }
  if (config_.spot_check_rate < 0 || config_.spot_check_rate > 1) {
    throw InputError("spot_check_rate must be in [0, 1]");
  }
  if (config_.reputation_alpha <= 0 || config_.reputation_alpha > 1) {
    throw InputError("reputation_alpha must be in (0, 1]");
  }
  if (config_.max_tie_breakers < 0) {
    throw InputError("max_tie_breakers must be >= 0");
  }
}

ProblemId SchedulerCore::submit_problem(std::shared_ptr<DataManager> dm) {
  if (!dm) throw InputError("submit_problem: null DataManager");
  ProblemId id = next_problem_id_++;
  ProblemState ps;
  ps.dm = std::move(dm);
  // Intern the problem data as a pinned blob: v4 donors address it by
  // digest like any other blob, and the serving path never re-encodes it.
  auto data = ps.dm->problem_data();
  ps.data_bytes = data.size();
  ps.data_digest = net::blob_digest(data);
  BlobEntry& entry = blob_store_[ps.data_digest];
  if (!entry.bytes) {
    entry.bytes =
        std::make_shared<const std::vector<std::byte>>(std::move(data));
  }
  entry.pinned = true;
  problems_.emplace(id, std::move(ps));
  LOG_INFO("problem " << id << " submitted (algorithm="
                      << problems_.at(id).dm->algorithm_name() << ")");
  return id;
}

std::shared_ptr<const std::vector<std::byte>> SchedulerCore::blob_bytes(
    std::uint64_t digest) const {
  auto it = blob_store_.find(digest);
  return it == blob_store_.end() ? nullptr : it->second.bytes;
}

std::uint64_t SchedulerCore::problem_data_digest(ProblemId id) const {
  auto it = problems_.find(id);
  if (it == problems_.end()) throw InputError("unknown problem id");
  return it->second.data_digest;
}

std::uint64_t SchedulerCore::problem_data_bytes(ProblemId id) const {
  auto it = problems_.find(id);
  if (it == problems_.end()) throw InputError("unknown problem id");
  return it->second.data_bytes;
}

void SchedulerCore::materialize_unit_blobs(WorkUnit& unit) const {
  for (WorkBlob& blob : unit.blobs) {
    auto bytes = blob_bytes(blob.digest);
    if (!bytes) {
      throw ProtocolError("materialize_unit_blobs: unknown blob digest " +
                          std::to_string(blob.digest));
    }
    blob.bytes = *bytes;
  }
}

void SchedulerCore::intern_unit_blobs(WorkUnit& unit) {
  for (WorkBlob& blob : unit.blobs) {
    if (!blob.bytes.empty()) {
      blob.digest = net::blob_digest(blob.bytes);
      blob.size = blob.bytes.size();
      BlobEntry& entry = blob_store_[blob.digest];
      if (!entry.bytes) {
        entry.bytes = std::make_shared<const std::vector<std::byte>>(
            std::move(blob.bytes));
      }
      entry.refs += 1;
      blob.bytes = {};
    } else {
      auto it = blob_store_.find(blob.digest);
      if (it == blob_store_.end()) {
        throw ProtocolError("unit references unknown blob digest " +
                            std::to_string(blob.digest));
      }
      it->second.refs += 1;
    }
  }
}

void SchedulerCore::release_unit_blobs(const WorkUnit& unit) {
  for (const WorkBlob& blob : unit.blobs) {
    auto it = blob_store_.find(blob.digest);
    if (it == blob_store_.end()) continue;
    it->second.refs -= 1;
    if (it->second.refs <= 0 && !it->second.pinned) blob_store_.erase(it);
  }
}

bool SchedulerCore::problem_complete(ProblemId id) const {
  auto it = problems_.find(id);
  if (it == problems_.end()) throw InputError("unknown problem id");
  return it->second.dm->is_complete();
}

bool SchedulerCore::all_complete() const {
  return std::all_of(problems_.begin(), problems_.end(),
                     [](const auto& kv) { return kv.second.dm->is_complete(); });
}

std::vector<std::byte> SchedulerCore::final_result(ProblemId id) const {
  auto it = problems_.find(id);
  if (it == problems_.end()) throw InputError("unknown problem id");
  if (!it->second.dm->is_complete()) throw Error("problem not complete");
  return it->second.dm->final_result();
}

const DataManager& SchedulerCore::data_manager(ProblemId id) const {
  auto it = problems_.find(id);
  if (it == problems_.end()) throw InputError("unknown problem id");
  return *it->second.dm;
}

std::vector<ProblemId> SchedulerCore::active_problems() const {
  std::vector<ProblemId> out;
  for (const auto& [id, ps] : problems_) {
    if (!ps.dm->is_complete()) out.push_back(id);
  }
  return out;
}

ClientId SchedulerCore::client_joined(const std::string& name,
                                      double benchmark_ops_per_sec, double now) {
  last_now_ = now;
  ClientId id = next_client_id_++;
  ClientState cs;
  cs.self_id = id;
  cs.name = name;
  cs.stats.benchmark_ops_per_sec = benchmark_ops_per_sec;
  cs.stats.last_seen = now;
  clients_.emplace(id, std::move(cs));
  LOG_INFO("client " << id << " (" << name << ") joined, benchmark "
                     << benchmark_ops_per_sec << " ops/s");
  if (tracer_) {
    tracer_->event(now, "client_joined")
        .u64("client", id)
        .str("name", name)
        .num("benchmark_ops_per_sec", benchmark_ops_per_sec);
  }
  return id;
}

void SchedulerCore::client_left(ClientId id, double now, const char* reason) {
  last_now_ = now;
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  if (!it->second.active) return;  // double Goodbye / timeout race: once only
  it->second.active = false;
  requeue_client_units(id, now);
  LOG_INFO("client " << id << " left; outstanding units requeued");
  if (tracer_) {
    tracer_->event(now, "client_left").u64("client", id).str("reason", reason);
  }
}

const ClientStats* SchedulerCore::client_stats(ClientId id) const {
  auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : &it->second.stats;
}

std::vector<ClientInfo> SchedulerCore::all_client_stats() const {
  std::vector<ClientInfo> out;
  out.reserve(clients_.size());
  for (const auto& [id, cs] : clients_) {
    ClientInfo info;
    info.id = id;
    info.name = cs.name;
    info.active = cs.active;
    info.stats = cs.stats;
    if (auto rit = reputation_.find(cs.name); rit != reputation_.end()) {
      info.reputation = rit->second.score;
      info.blacklisted = rit->second.blacklisted;
      info.vote_wins = rit->second.vote_wins;
      info.vote_losses = rit->second.vote_losses;
    }
    out.push_back(std::move(info));
  }
  return out;
}

int SchedulerCore::active_client_count() const {
  int n = 0;
  for (const auto& [_, cs] : clients_) {
    if (cs.active) ++n;
  }
  return n;
}

const DonorReputation* SchedulerCore::reputation(const std::string& name) const {
  auto it = reputation_.find(name);
  return it == reputation_.end() ? nullptr : &it->second;
}

std::string SchedulerCore::voter_name(ClientId id) const {
  auto it = clients_.find(id);
  return it == clients_.end() ? "#" + std::to_string(id) : it->second.name;
}

bool SchedulerCore::is_trusted(const std::string& name) const {
  auto it = reputation_.find(name);
  if (it == reputation_.end()) return false;  // unknown donors start untrusted
  return !it->second.blacklisted &&
         it->second.score >= config_.reputation_trust_threshold;
}

bool SchedulerCore::is_blacklisted(const std::string& name) const {
  auto it = reputation_.find(name);
  return it != reputation_.end() && it->second.blacklisted;
}

int SchedulerCore::effective_quorum() const {
  return config_.quorum > 0 ? config_.quorum
                            : config_.replication_factor / 2 + 1;
}

void SchedulerCore::release_lease_stat(ClientId owner) {
  auto it = clients_.find(owner);
  if (it != clients_.end() && it->second.stats.outstanding > 0) {
    it->second.stats.outstanding -= 1;
  }
}

std::optional<WorkUnit> SchedulerCore::request_work(ClientId client, double now) {
  last_now_ = now;
  auto cit = clients_.find(client);
  if (cit == clients_.end() || !cit->second.active) {
    throw InputError("request_work from unknown/inactive client " +
                     std::to_string(client));
  }
  ClientState& cs = cit->second;
  cs.stats.last_seen = now;

  // A blacklisted donor gets nothing: its results would be rejected anyway,
  // and handing it replicas would waste honest donors' votes.
  if (is_blacklisted(cs.name)) {
    stats_.work_requests_unserved += 1;
    return std::nullopt;
  }

  // Per-client in-flight budget: over-leased clients wait for their own
  // backlog to drain before getting more.
  if (config_.max_outstanding_per_client > 0 &&
      cs.stats.outstanding >= config_.max_outstanding_per_client) {
    stats_.work_requests_unserved += 1;
    return std::nullopt;
  }

  // 1) Queued copies first — reissues of failed units and missing replicas
  //    are what stage barriers and pending votes are waiting on.
  for (auto& [pid, ps] : problems_) {
    if (auto unit = serve_queued(pid, ps, cs, now)) return unit;
  }

  // 2) Round-robin across active problems for a fresh unit, starting after
  //    the problem that was served most recently so concurrent problems
  //    interleave fairly.
  if (problems_.empty()) {
    stats_.work_requests_unserved += 1;
    return std::nullopt;
  }
  auto start = problems_.upper_bound(rr_cursor_);
  if (start == problems_.end()) start = problems_.begin();
  auto it = start;
  do {
    ProblemState& ps = it->second;
    if (!ps.dm->is_complete()) {
      if (auto unit = issue_from(it->first, ps, cs, now)) {
        rr_cursor_ = it->first;
        return unit;
      }
    }
    ++it;
    if (it == problems_.end()) it = problems_.begin();
  } while (it != start);

  // 3) Nothing fresh anywhere: optionally hedge the end-game by doubling
  //    up on someone else's oldest outstanding unit.
  if (config_.hedge_endgame) {
    it = start;
    do {
      ProblemState& ps = it->second;
      if (!ps.dm->is_complete()) {
        if (auto unit = hedge_from(it->first, ps, cs, now)) {
          rr_cursor_ = it->first;
          return unit;
        }
      }
      ++it;
      if (it == problems_.end()) it = problems_.begin();
    } while (it != start);
  }

  stats_.work_requests_unserved += 1;
  return std::nullopt;
}

std::optional<WorkUnit> SchedulerCore::serve_queued(ProblemId pid,
                                                    ProblemState& ps,
                                                    ClientState& cs, double now) {
  // Bounded single pass: each entry is popped once; entries this client is
  // not eligible for (it already holds a copy, or its name already voted)
  // go back to the queue for someone else.
  std::size_t scan = ps.issue_queue.size();
  for (std::size_t i = 0; i < scan; ++i) {
    QueueEntry entry = ps.issue_queue.front();
    ps.issue_queue.pop_front();
    auto uit = ps.in_flight.find(entry.uid);
    if (uit == ps.in_flight.end()) continue;  // unit resolved meanwhile: stale
    UnitState& us = uit->second;
    if (us.holds_lease(cs.self_id) || us.votes.count(cs.name)) {
      ps.issue_queue.push_back(entry);  // replicas must go to distinct donors
      continue;
    }
    us.queued -= 1;
    us.leases.push_back(Replica{cs.self_id, now, now + config_.lease_timeout,
                                /*hedge=*/false});
    cs.stats.outstanding += 1;
    stats_.units_issued += 1;
    if (entry.reissue) {
      us.attempt += 1;
      stats_.units_reissued += 1;
      if (tracer_) {
        tracer_->event(now, "unit_reissued")
            .u64("client", cs.self_id)
            .u64("problem", pid)
            .u64("unit", us.unit.unit_id)
            .u64("stage", us.unit.stage)
            .num("cost_ops", us.unit.cost_ops)
            .num("attempt", us.attempt);
      }
    } else {
      stats_.replicas_issued += 1;
      if (tracer_) {
        tracer_->event(now, "replica_issued")
            .u64("client", cs.self_id)
            .u64("problem", pid)
            .u64("unit", us.unit.unit_id)
            .u64("stage", us.unit.stage)
            .num("cost_ops", us.unit.cost_ops);
      }
    }
    WorkUnit unit = us.unit;
    unit.epoch = epoch_;  // lease carries the current term (v6 fencing)
    apply_replication_policy(pid, ps, us, cs, now);
    return unit;
  }
  return std::nullopt;
}

std::optional<WorkUnit> SchedulerCore::hedge_from(ProblemId pid, ProblemState& ps,
                                                  ClientState& cs, double now) {
  // Oldest outstanding unit (by its earliest live lease) this client does
  // not already hold or have voted on, still under the hedge cap.
  auto best = ps.in_flight.end();
  double best_issued = 0;
  for (auto it = ps.in_flight.begin(); it != ps.in_flight.end(); ++it) {
    UnitState& us = it->second;
    if (us.leases.empty()) continue;  // queued or mid-vote, not hedgeable
    if (us.hedges >= kMaxHedgesPerUnit) continue;
    if (us.holds_lease(cs.self_id) || us.votes.count(cs.name)) continue;
    double oldest = us.leases.front().issued_at;
    for (const auto& l : us.leases) oldest = std::min(oldest, l.issued_at);
    if (best == ps.in_flight.end() || oldest < best_issued) {
      best = it;
      best_issued = oldest;
    }
  }
  if (best == ps.in_flight.end()) return std::nullopt;

  UnitState& us = best->second;
  us.hedges += 1;
  us.leases.push_back(Replica{cs.self_id, now, now + config_.lease_timeout,
                              /*hedge=*/true});
  cs.stats.outstanding += 1;
  stats_.units_issued += 1;
  stats_.units_hedged += 1;
  if (tracer_) {
    tracer_->event(now, "unit_hedged")
        .u64("client", cs.self_id)
        .u64("problem", pid)
        .u64("unit", us.unit.unit_id)
        .u64("stage", us.unit.stage)
        .num("cost_ops", us.unit.cost_ops)
        .num("attempt", us.attempt + us.hedges);
  }
  WorkUnit unit = us.unit;
  unit.epoch = epoch_;
  apply_replication_policy(pid, ps, us, cs, now);
  return unit;
}

std::optional<WorkUnit> SchedulerCore::issue_from(ProblemId pid, ProblemState& ps,
                                                  ClientState& cs, double now) {
  SizeHint hint;
  double target = policy_->target_ops(cs.stats, ps.dm->remaining_ops_estimate(),
                                      active_client_count());
  hint.target_ops =
      std::clamp(target, config_.bounds.min_ops, config_.bounds.max_ops);

  auto unit = ps.dm->next_unit(hint);
  if (!unit) {
    // Incomplete but dry: a stage barrier is holding fresh units back.
    // Emit once per dry spell so staged traces show barrier entry without
    // one event per idle poll.
    if (tracer_ && !ps.barrier_flagged && !ps.dm->is_complete()) {
      ps.barrier_flagged = true;
      tracer_->event(now, "stage_barrier")
          .u64("problem", pid)
          .num("outstanding", static_cast<double>(ps.in_flight.size()));
    }
    return std::nullopt;
  }
  ps.barrier_flagged = false;
  if (unit->cost_ops <= 0) {
    throw Error("DataManager produced unit with non-positive cost_ops");
  }
  unit->problem_id = pid;
  unit->unit_id = ps.next_unit_id++;
  unit->epoch = epoch_;
  // Bytes move into the content-addressed store; the stored UnitState and
  // the returned assignment both carry only {digest, size} references.
  intern_unit_blobs(*unit);

  UnitState us;
  us.unit = *unit;
  us.leases.push_back(Replica{cs.self_id, now, now + config_.lease_timeout,
                              /*hedge=*/false});
  auto [uit, inserted] = ps.in_flight.emplace(unit->unit_id, std::move(us));
  cs.stats.outstanding += 1;
  stats_.units_issued += 1;
  if (tracer_) {
    tracer_->event(now, "unit_issued")
        .u64("client", cs.self_id)
        .u64("problem", pid)
        .u64("unit", unit->unit_id)
        .u64("stage", unit->stage)
        .num("cost_ops", unit->cost_ops);
  }
  apply_replication_policy(pid, ps, uit->second, cs, now);
  return unit;
}

void SchedulerCore::apply_replication_policy(ProblemId pid, ProblemState& ps,
                                             UnitState& us,
                                             const ClientState& cs, double now) {
  if (config_.replication_factor < 2) return;  // integrity layer disabled
  if (us.replicas_wanted > 1 || !us.votes.empty()) return;  // already voting
  bool replicate = true;
  bool spot = false;
  if (is_trusted(cs.name)) {
    // Proven donors run un-replicated, minus a seeded random audit.
    spot = integrity_rng_.next_double() < config_.spot_check_rate;
    replicate = spot;
  }
  if (!replicate) return;
  us.replicas_wanted = config_.replication_factor;
  us.quorum_needed = effective_quorum();
  us.spot_check = spot;
  if (spot) stats_.spot_checks += 1;
  stats_.units_replicated += 1;
  int need = us.replicas_wanted - us.live_copies();
  if (need > 0) queue_copies(ps, us, need, /*reissue=*/false);
  if (tracer_) {
    tracer_->event(now, "unit_replicated")
        .u64("problem", pid)
        .u64("unit", us.unit.unit_id)
        .u64("replicas", static_cast<std::uint64_t>(us.replicas_wanted))
        .u64("quorum", static_cast<std::uint64_t>(us.quorum_needed))
        .boolean("spot_check", spot);
  }
}

void SchedulerCore::queue_copies(ProblemState& ps, UnitState& us, int copies,
                                 bool reissue) {
  for (int i = 0; i < copies; ++i) {
    ps.issue_queue.push_back(QueueEntry{us.unit.unit_id, reissue});
    us.queued += 1;
  }
}

bool SchedulerCore::submit_result(ClientId client, const ResultUnit& result,
                                  double now) {
  last_now_ = now;
  auto cit = clients_.find(client);
  if (cit != clients_.end()) cit->second.stats.last_seen = now;
  std::string voter = voter_name(client);

  if (is_blacklisted(voter)) {
    stats_.results_rejected_blacklisted += 1;
    if (tracer_) {
      tracer_->event(now, "result_rejected")
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .str("name", voter)
          .str("reason", "blacklisted");
    }
    return false;
  }

  // Epoch fence: a result must echo the term of the lease it answers. An
  // older term was issued by a server incarnation this core has
  // superseded — a deposed primary, or a pre-recovery life whose unsynced
  // tail may have reused ids — and an unstamped (0) result answers no
  // lease at all. Neither may merge.
  if (result.epoch != epoch_) {
    stats_.results_rejected_stale_epoch += 1;
    LOG_WARN("result from client " << client << " (" << voter
                                   << ") fenced: lease epoch " << result.epoch
                                   << " != current " << epoch_);
    if (tracer_) {
      tracer_->event(now, "result_rejected")
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .str("name", voter)
          .str("reason", "stale_epoch");
    }
    return false;
  }

  auto drop = [&](const char* reason) {
    if (tracer_) {
      tracer_->event(now, "result_duplicate")
          .u64("client", client)
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .str("reason", reason);
    }
    return false;
  };

  auto pit = problems_.find(result.problem_id);
  if (pit == problems_.end()) {
    stats_.stale_results_dropped += 1;
    return drop("unknown_problem");
  }
  ProblemId pid = pit->first;
  ProblemState& ps = pit->second;

  if (ps.merged(result.unit_id)) {
    stats_.duplicate_results_dropped += 1;
    return drop("duplicate");
  }

  // Transport-level certification: the digest the donor computed over the
  // payload it produced must match the bytes that arrived. A mismatch is a
  // corrupt donor (or a corrupt path the frame CRC somehow missed) — the
  // submitting donor's lease is failed, the result never reaches a vote.
  // Digest 0 means "not supplied" (an old donor); the payload still goes
  // through replication voting, just without the cheap self-check.
  std::uint32_t digest = net::crc32(std::span<const std::byte>(result.payload));
  if (result.payload_crc != 0 && result.payload_crc != digest) {
    stats_.results_rejected_digest += 1;
    LOG_WARN("result digest mismatch from client " << client << " ("
                                                   << voter << ") for unit "
                                                   << result.unit_id);
    if (tracer_) {
      tracer_->event(now, "result_rejected")
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .str("name", voter)
          .str("reason", "digest_mismatch");
    }
    auto uit = ps.in_flight.find(result.unit_id);
    if (uit != ps.in_flight.end()) {
      UnitState& us = uit->second;
      for (auto lit = us.leases.begin(); lit != us.leases.end(); ++lit) {
        if (lit->owner == client) {
          Replica lost = *lit;
          us.leases.erase(lit);
          release_lease_stat(client);
          if (fail_replica(pid, ps, us, lost, now, "digest_mismatch")) {
            move_to_quarantine(pid, ps, result.unit_id, now, "digest_mismatch");
          }
          break;
        }
      }
    }
    return false;
  }

  auto uit = ps.in_flight.find(result.unit_id);
  if (uit == ps.in_flight.end()) {
    // Quarantined poison units are never reissued, but a genuine late
    // result still reaches them: un-replicated units are rescued outright,
    // replicated ones re-enter the vote.
    auto qit = ps.quarantined.find(result.unit_id);
    if (qit == ps.quarantined.end()) {
      stats_.stale_results_dropped += 1;
      return drop("stale");
    }
    auto node = ps.quarantined.extract(qit);
    uit = ps.in_flight.insert(std::move(node)).position;
  }
  UnitState& us = uit->second;

  // Remove this client's lease (if it held one) and fold the turnaround
  // into its throughput estimate.
  double elapsed = -1;  // unknown unless this client held a live lease
  for (auto lit = us.leases.begin(); lit != us.leases.end(); ++lit) {
    if (lit->owner != client) continue;
    elapsed = now - lit->issued_at;
    if (elapsed > 1e-9 && cit != clients_.end()) {
      double rate = us.unit.cost_ops / elapsed;
      ClientStats& st = cit->second.stats;
      st.ewma_ops_per_sec =
          st.ewma_ops_per_sec <= 0
              ? rate
              : config_.ewma_alpha * rate +
                    (1 - config_.ewma_alpha) * st.ewma_ops_per_sec;
    }
    us.leases.erase(lit);
    release_lease_stat(client);
    break;
  }

  // v5 donors ship a span profile with the result. Merge it with the lease
  // timeline: the donor measured durations only (no clock sync), so the
  // scheduler derives the submit/server-side residual as elapsed minus the
  // donor's spans (clamped — the donor's queue_wait starts slightly before
  // the lease clock does). Skipped when no live lease matched (elapsed
  // unknown: the lease expired or the donor re-registered mid-unit).
  if (result.profile && elapsed >= 0) {
    const obs::UnitProfile& prof = *result.profile;
    double submit_s = std::max(0.0, elapsed - prof.total_s());
    auto& h = profile_histograms();
    h.queue_wait.observe(prof.queue_wait_s);
    h.blob_fetch.observe(prof.blob_fetch_s);
    h.decompress.observe(prof.decompress_s);
    h.compute.observe(prof.compute_s);
    h.encode.observe(prof.encode_s);
    h.submit.observe(submit_s);
    if (tracer_) {
      tracer_->event(now, "unit_profile")
          .u64("client", client)
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .u64("stage", result.stage)
          .num("elapsed_s", elapsed)
          .num("queue_wait_s", prof.queue_wait_s)
          .num("blob_fetch_s", prof.blob_fetch_s)
          .num("decompress_s", prof.decompress_s)
          .num("compute_s", prof.compute_s)
          .num("encode_s", prof.encode_s)
          .num("submit_s", submit_s)
          .u64("threads", prof.threads)
          .u64("saturations", prof.saturations);
    }
  }

  if (us.replicas_wanted <= 1 && us.votes.empty()) {
    // Un-replicated fast path: first result wins, exactly the pre-voting
    // scheduler. Surviving hedge copies are cancelled.
    for (const auto& l : us.leases) release_lease_stat(l.owner);
    double cost_ops = us.unit.cost_ops;
    release_unit_blobs(us.unit);
    ps.in_flight.erase(uit);  // queued copies become stale queue entries
    if (cit != clients_.end()) cit->second.stats.units_completed += 1;
    stats_.results_accepted += 1;
    if (tracer_) {
      auto ev = tracer_->event(now, "unit_completed");
      ev.u64("client", client)
          .u64("problem", result.problem_id)
          .u64("unit", result.unit_id)
          .u64("stage", result.stage)
          .num("cost_ops", cost_ops);
      if (elapsed >= 0) ev.num("elapsed_s", elapsed);
    }
    ps.dm->accept_result(result);
    return true;
  }

  return record_vote(pid, ps, result.unit_id, client, voter, digest, result,
                     now);
}

bool SchedulerCore::record_vote(ProblemId pid, ProblemState& ps, UnitId uid,
                                ClientId client, const std::string& voter,
                                std::uint32_t digest, const ResultUnit& result,
                                double now) {
  UnitState& us = ps.in_flight.at(uid);
  if (us.votes.count(voter)) {
    stats_.duplicate_results_dropped += 1;
    if (tracer_) {
      tracer_->event(now, "result_duplicate")
          .u64("client", client)
          .u64("problem", pid)
          .u64("unit", uid)
          .str("reason", "duplicate_vote");
    }
    return false;
  }
  us.votes.emplace(voter, digest);
  us.payload_by_digest.emplace(digest, result.payload);  // first copy wins
  stats_.votes_recorded += 1;
  int agreeing = 0;
  for (const auto& [name, d] : us.votes) {
    if (d == digest) ++agreeing;
  }
  if (tracer_) {
    tracer_->event(now, "vote_recorded")
        .u64("client", client)
        .u64("problem", pid)
        .u64("unit", uid)
        .u64("digest", digest)
        .u64("votes", us.votes.size());
  }
  if (agreeing >= us.quorum_needed) {
    auto payload = std::move(us.payload_by_digest.at(digest));
    accept_unit(pid, ps, uid, client, digest, std::move(payload), now);
    return true;
  }
  if (us.leases.empty() && us.queued == 0) {
    // Every copy answered and no digest has quorum: the donors disagree.
    stats_.vote_mismatches += 1;
    us.tie_breakers += 1;
    if (tracer_) {
      tracer_->event(now, "vote_mismatch")
          .u64("problem", pid)
          .u64("unit", uid)
          .u64("votes", us.votes.size())
          .u64("tie_breakers", static_cast<std::uint64_t>(us.tie_breakers));
    }
    if (us.tie_breakers > config_.max_tie_breakers) {
      move_to_quarantine(pid, ps, uid, now, "vote_unresolvable");
    } else {
      queue_copies(ps, us, 1, /*reissue=*/false);
    }
  }
  return true;
}

void SchedulerCore::accept_unit(ProblemId pid, ProblemState& ps, UnitId uid,
                                ClientId client, std::uint32_t winning_digest,
                                std::vector<std::byte> payload, double now) {
  auto node = ps.in_flight.extract(uid);
  UnitState us = std::move(node.mapped());
  release_unit_blobs(us.unit);
  stats_.results_accepted += 1;
  stats_.vote_quorums += 1;
  auto cit = clients_.find(client);
  if (cit != clients_.end()) cit->second.stats.units_completed += 1;
  // Donors still holding a copy neither win nor lose — their leases are
  // simply cancelled (their queued copies turn into stale queue entries).
  for (const auto& l : us.leases) release_lease_stat(l.owner);
  int winners = 0;
  for (const auto& [name, d] : us.votes) {
    if (d == winning_digest) ++winners;
  }
  if (tracer_) {
    tracer_->event(now, "vote_quorum")
        .u64("problem", pid)
        .u64("unit", uid)
        .u64("digest", winning_digest)
        .u64("votes", static_cast<std::uint64_t>(winners));
    tracer_->event(now, "unit_completed")
        .u64("client", client)
        .u64("problem", pid)
        .u64("unit", uid)
        .u64("stage", us.unit.stage)
        .num("cost_ops", us.unit.cost_ops);
  }
  for (const auto& [name, d] : us.votes) {
    bool won = d == winning_digest;
    if (!won) {
      stats_.results_rejected_mismatch += 1;
      LOG_WARN("donor '" << name << "' lost digest vote on unit " << uid
                         << " of problem " << pid);
      if (tracer_) {
        tracer_->event(now, "result_rejected")
            .u64("problem", pid)
            .u64("unit", uid)
            .str("name", name)
            .str("reason", "vote_lost");
      }
    }
    settle_vote(name, won, now);
  }
  ResultUnit canonical;
  canonical.problem_id = pid;
  canonical.unit_id = uid;
  canonical.stage = us.unit.stage;
  canonical.payload = std::move(payload);
  canonical.payload_crc = winning_digest;
  ps.dm->accept_result(canonical);
}

void SchedulerCore::settle_vote(const std::string& name, bool won, double now) {
  auto& rep = reputation_[name];
  if (won) {
    rep.vote_wins += 1;
  } else {
    rep.vote_losses += 1;
  }
  rep.score = (1 - config_.reputation_alpha) * rep.score +
              config_.reputation_alpha * (won ? 1.0 : 0.0);
  if (!won && !rep.blacklisted && config_.blacklist_after > 0 &&
      rep.vote_losses >= static_cast<std::uint64_t>(config_.blacklist_after)) {
    rep.blacklisted = true;
    stats_.donors_blacklisted += 1;
    LOG_WARN("donor '" << name << "' blacklisted after " << rep.vote_losses
                       << " lost votes");
    if (tracer_) {
      tracer_->event(now, "donor_blacklisted")
          .str("name", name)
          .u64("losses", rep.vote_losses)
          .num("score", rep.score);
    }
  }
}

void SchedulerCore::tick(double now) {
  last_now_ = now;
  // Expire leases.
  for (auto& [pid, ps] : problems_) {
    std::vector<UnitId> to_quarantine;
    for (auto& [uid, us] : ps.in_flight) {
      bool quarantine = false;
      for (auto lit = us.leases.begin(); lit != us.leases.end();) {
        if (lit->deadline <= now) {
          Replica lost = *lit;
          lit = us.leases.erase(lit);
          release_lease_stat(lost.owner);
          LOG_WARN("lease expired for problem " << pid << " unit " << uid
                                                << " (attempt " << us.attempt
                                                << ")");
          quarantine |= fail_replica(pid, ps, us, lost, now, "lease_expired");
        } else {
          ++lit;
        }
      }
      if (quarantine) to_quarantine.push_back(uid);
    }
    for (UnitId uid : to_quarantine) {
      move_to_quarantine(pid, ps, uid, now, "lease_expired");
    }
  }
  // Evict long-departed client rows so a fleet of reconnecting donors
  // cannot grow the table without bound. Aggregates are preserved.
  if (config_.client_retention_s > 0) {
    for (auto it = clients_.begin(); it != clients_.end();) {
      const ClientState& cs = it->second;
      if (!cs.active && cs.stats.outstanding == 0 &&
          now - cs.stats.last_seen > config_.client_retention_s) {
        evicted_units_completed_ +=
            static_cast<std::uint64_t>(cs.stats.units_completed);
        stats_.clients_evicted += 1;
        if (tracer_) {
          tracer_->event(now, "client_evicted")
              .u64("client", it->first)
              .str("name", cs.name);
        }
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void SchedulerCore::requeue_client_units(ClientId id, double now) {
  const char* reason = "client_left";
  for (auto& [pid, ps] : problems_) {
    std::vector<UnitId> to_quarantine;
    for (auto& [uid, us] : ps.in_flight) {
      for (auto lit = us.leases.begin(); lit != us.leases.end(); ++lit) {
        if (lit->owner != id) continue;
        Replica lost = *lit;
        us.leases.erase(lit);
        if (fail_replica(pid, ps, us, lost, now, reason)) {
          to_quarantine.push_back(uid);
        }
        break;  // a client holds at most one lease per unit
      }
    }
    for (UnitId uid : to_quarantine) {
      move_to_quarantine(pid, ps, uid, now, reason);
    }
  }
  auto cit = clients_.find(id);
  if (cit != clients_.end()) cit->second.stats.outstanding = 0;
}

bool SchedulerCore::fail_replica(ProblemId pid, ProblemState& ps, UnitState& us,
                                 const Replica& lost, double now,
                                 const char* reason) {
  (void)pid;
  (void)now;
  (void)reason;
  if (us.live_copies() == 0) {
    // The unit's last copy is gone (recorded votes count as live — they
    // already delivered). This is the legacy single-lease failure: it
    // burns an attempt toward quarantine and requeues one reissue copy.
    if (config_.max_attempts_per_unit > 0 &&
        us.attempt >= config_.max_attempts_per_unit) {
      return true;  // caller quarantines (we may be mid-iteration)
    }
    queue_copies(ps, us, 1, /*reissue=*/true);
    return false;
  }
  // Sibling copies are still live. A lost hedge is dropped for free; a
  // lost replica is replaced so the vote can still reach quorum. Neither
  // burns an attempt — losing a *copy* must not quarantine a healthy unit.
  if (lost.hedge) return false;
  int need = us.replicas_wanted - us.live_copies();
  if (need > 0) queue_copies(ps, us, need, /*reissue=*/false);
  return false;
}

void SchedulerCore::move_to_quarantine(ProblemId pid, ProblemState& ps,
                                       UnitId uid, double now,
                                       const char* reason) {
  auto node = ps.in_flight.extract(uid);
  if (node.empty()) return;
  UnitState& us = node.mapped();
  for (const auto& l : us.leases) release_lease_stat(l.owner);
  us.leases.clear();
  us.queued = 0;  // surviving queue entries are dropped as stale at serve
  LOG_WARN("quarantining poison unit " << uid << " of problem " << pid
                                       << " after " << us.attempt
                                       << " failed attempts (" << reason
                                       << ")");
  stats_.units_quarantined += 1;
  if (tracer_) {
    tracer_->event(now, "unit_quarantined")
        .u64("problem", pid)
        .u64("unit", uid)
        .u64("stage", us.unit.stage)
        .num("cost_ops", us.unit.cost_ops)
        .num("attempts", us.attempt)
        .str("reason", reason);
  }
  ps.quarantined.emplace(uid, std::move(node.mapped()));
}

// ---- exact snapshot / restore ------------------------------------------
//
// The one state image: every member is transferred verbatim, so a restart
// or a standby replaying the primary's WAL lands in the identical state.
// Containers are ordered maps, so serialisation order — and therefore the
// snapshot bytes — is a pure function of state: byte-equal snapshots <=>
// equal cores. config_/policy_/tracer_ are runtime wiring, supplied by the
// restoring host, and deliberately excluded. Merged units are not listed:
// ids are issued densely, so merged = below next_unit_id and neither in
// flight nor quarantined, and the image does not grow with the job.

namespace {
constexpr std::uint32_t kExactSnapshotMagic = 0x48455853;  // "XSEH"
// v2: merged unit ids are derived (see above), not listed per problem.
// v3: no clients_expired stat (the server's connection sweep counts it).
constexpr std::uint32_t kExactSnapshotVersion = 3;
}  // namespace

void SchedulerCore::bump_epoch(std::uint64_t new_epoch) {
  if (new_epoch <= epoch_) {
    throw ProtocolError("bump_epoch: term " + std::to_string(new_epoch) +
                        " does not advance current " + std::to_string(epoch_));
  }
  epoch_ = new_epoch;
  if (tracer_) {
    tracer_->event(last_now_, "epoch_bumped").u64("epoch", epoch_);
  }
}

void SchedulerCore::snapshot_exact(ByteWriter& w) const {
  auto write_stats = [&w](const ClientStats& st) {
    w.f64(st.benchmark_ops_per_sec);
    w.f64(st.ewma_ops_per_sec);
    w.i32(st.units_completed);
    w.i32(st.outstanding);
    w.f64(st.last_seen);
  };
  auto write_unit = [&w](const UnitState& us) {
    w.u64(us.unit.problem_id);
    w.u64(us.unit.unit_id);
    w.u32(us.unit.stage);
    w.f64(us.unit.cost_ops);
    w.u64(us.unit.epoch);
    w.bytes(us.unit.payload);
    w.u32(static_cast<std::uint32_t>(us.unit.blobs.size()));
    for (const WorkBlob& blob : us.unit.blobs) {
      w.u64(blob.digest);
      w.u64(blob.size);
    }
    w.i32(us.attempt);
    w.i32(us.hedges);
    w.i32(us.replicas_wanted);
    w.i32(us.quorum_needed);
    w.i32(us.tie_breakers);
    w.boolean(us.spot_check);
    w.i32(us.queued);
    w.u32(static_cast<std::uint32_t>(us.leases.size()));
    for (const Replica& l : us.leases) {
      w.u64(l.owner);
      w.f64(l.issued_at);
      w.f64(l.deadline);
      w.boolean(l.hedge);
    }
    w.u32(static_cast<std::uint32_t>(us.votes.size()));
    for (const auto& [name, digest] : us.votes) {
      w.str(name);
      w.u32(digest);
    }
    w.u32(static_cast<std::uint32_t>(us.payload_by_digest.size()));
    for (const auto& [digest, payload] : us.payload_by_digest) {
      w.u32(digest);
      w.bytes(payload);
    }
  };

  w.u32(kExactSnapshotMagic);
  w.u32(kExactSnapshotVersion);
  w.u64(epoch_);
  w.u64(next_problem_id_);
  w.u64(next_client_id_);
  w.u64(rr_cursor_);
  w.f64(last_now_);
  w.u64(evicted_units_completed_);

  const SchedulerStats& s = stats_;
  w.u64(s.units_issued);
  w.u64(s.units_reissued);
  w.u64(s.units_hedged);
  w.u64(s.results_accepted);
  w.u64(s.duplicate_results_dropped);
  w.u64(s.stale_results_dropped);
  w.u64(s.work_requests_unserved);
  w.u64(s.units_quarantined);
  w.u64(s.units_replicated);
  w.u64(s.replicas_issued);
  w.u64(s.spot_checks);
  w.u64(s.votes_recorded);
  w.u64(s.vote_quorums);
  w.u64(s.vote_mismatches);
  w.u64(s.results_rejected_mismatch);
  w.u64(s.results_rejected_digest);
  w.u64(s.results_rejected_blacklisted);
  w.u64(s.donors_blacklisted);
  w.u64(s.clients_evicted);
  w.u64(s.results_rejected_stale_epoch);

  Rng::State rng = integrity_rng_.state();
  for (std::uint64_t word : rng.s) w.u64(word);
  w.f64(rng.spare);
  w.boolean(rng.has_spare);

  w.u32(static_cast<std::uint32_t>(blob_store_.size()));
  for (const auto& [digest, entry] : blob_store_) {
    w.u64(digest);
    w.i32(entry.refs);
    w.boolean(entry.pinned);
    w.bytes(*entry.bytes);
  }

  w.u32(static_cast<std::uint32_t>(clients_.size()));
  for (const auto& [id, cs] : clients_) {
    w.u64(id);
    w.str(cs.name);
    w.boolean(cs.active);
    write_stats(cs.stats);
  }

  w.u32(static_cast<std::uint32_t>(reputation_.size()));
  for (const auto& [name, rep] : reputation_) {
    w.str(name);
    w.f64(rep.score);
    w.u64(rep.vote_wins);
    w.u64(rep.vote_losses);
    w.boolean(rep.blacklisted);
  }

  w.u32(static_cast<std::uint32_t>(problems_.size()));
  for (const auto& [pid, ps] : problems_) {
    w.u64(pid);
    ByteWriter dm_state;
    ps.dm->snapshot(dm_state);
    w.bytes(dm_state.data());
    w.u64(ps.next_unit_id);
    w.boolean(ps.barrier_flagged);
    w.u64(ps.data_digest);
    w.u64(ps.data_bytes);
    w.u32(static_cast<std::uint32_t>(ps.in_flight.size()));
    for (const auto& [uid, us] : ps.in_flight) write_unit(us);
    w.u32(static_cast<std::uint32_t>(ps.quarantined.size()));
    for (const auto& [uid, us] : ps.quarantined) write_unit(us);
    w.u32(static_cast<std::uint32_t>(ps.issue_queue.size()));
    for (const QueueEntry& e : ps.issue_queue) {
      w.u64(e.uid);
      w.boolean(e.reissue);
    }
  }
}

void SchedulerCore::restore_exact(ByteReader& r) {
  // The decoder overwrites stats, blobs, clients and reputation before it
  // can find a wrong problem count or a DataManager that rejects its
  // state. Keep the live image and put it back on any throw. Restores are
  // rare (WAL recovery, standby sync), so the extra image is cheap.
  ByteWriter live;
  snapshot_exact(live);
  try {
    read_exact(r);
  } catch (...) {
    ByteReader undo(live.data());
    read_exact(undo);
    throw;
  }
}

void SchedulerCore::read_exact(ByteReader& r) {
  if (r.u32() != kExactSnapshotMagic) {
    throw ProtocolError("restore_exact: bad snapshot magic");
  }
  if (std::uint32_t v = r.u32(); v != kExactSnapshotVersion) {
    throw ProtocolError("restore_exact: unsupported snapshot version " +
                        std::to_string(v));
  }
  auto read_stats = [&r]() {
    ClientStats st;
    st.benchmark_ops_per_sec = r.f64();
    st.ewma_ops_per_sec = r.f64();
    st.units_completed = r.i32();
    st.outstanding = r.i32();
    st.last_seen = r.f64();
    return st;
  };
  auto read_unit = [&r]() {
    UnitState us;
    us.unit.problem_id = r.u64();
    us.unit.unit_id = r.u64();
    us.unit.stage = r.u32();
    us.unit.cost_ops = r.f64();
    us.unit.epoch = r.u64();
    us.unit.payload = r.bytes();
    std::uint32_t blobs = r.u32();
    us.unit.blobs.reserve(blobs);
    for (std::uint32_t b = 0; b < blobs; ++b) {
      WorkBlob blob;
      blob.digest = r.u64();
      blob.size = r.u64();
      us.unit.blobs.push_back(std::move(blob));
    }
    us.attempt = r.i32();
    us.hedges = r.i32();
    us.replicas_wanted = r.i32();
    us.quorum_needed = r.i32();
    us.tie_breakers = r.i32();
    us.spot_check = r.boolean();
    us.queued = r.i32();
    std::uint32_t leases = r.u32();
    us.leases.reserve(leases);
    for (std::uint32_t l = 0; l < leases; ++l) {
      Replica rep;
      rep.owner = r.u64();
      rep.issued_at = r.f64();
      rep.deadline = r.f64();
      rep.hedge = r.boolean();
      us.leases.push_back(rep);
    }
    std::uint32_t votes = r.u32();
    for (std::uint32_t v = 0; v < votes; ++v) {
      std::string name = r.str();
      std::uint32_t digest = r.u32();
      us.votes.emplace(std::move(name), digest);
    }
    std::uint32_t payloads = r.u32();
    for (std::uint32_t p = 0; p < payloads; ++p) {
      std::uint32_t digest = r.u32();
      us.payload_by_digest.emplace(digest, r.bytes());
    }
    return us;
  };

  epoch_ = r.u64();
  next_problem_id_ = r.u64();
  next_client_id_ = r.u64();
  rr_cursor_ = r.u64();
  last_now_ = r.f64();
  evicted_units_completed_ = r.u64();

  SchedulerStats s;
  s.units_issued = r.u64();
  s.units_reissued = r.u64();
  s.units_hedged = r.u64();
  s.results_accepted = r.u64();
  s.duplicate_results_dropped = r.u64();
  s.stale_results_dropped = r.u64();
  s.work_requests_unserved = r.u64();
  s.units_quarantined = r.u64();
  s.units_replicated = r.u64();
  s.replicas_issued = r.u64();
  s.spot_checks = r.u64();
  s.votes_recorded = r.u64();
  s.vote_quorums = r.u64();
  s.vote_mismatches = r.u64();
  s.results_rejected_mismatch = r.u64();
  s.results_rejected_digest = r.u64();
  s.results_rejected_blacklisted = r.u64();
  s.donors_blacklisted = r.u64();
  s.clients_evicted = r.u64();
  s.results_rejected_stale_epoch = r.u64();
  stats_ = s;

  Rng::State rng;
  for (auto& word : rng.s) word = r.u64();
  rng.spare = r.f64();
  rng.has_spare = r.boolean();
  integrity_rng_.set_state(rng);

  blob_store_.clear();
  std::uint32_t blob_count = r.u32();
  for (std::uint32_t i = 0; i < blob_count; ++i) {
    std::uint64_t digest = r.u64();
    BlobEntry entry;
    entry.refs = r.i32();
    entry.pinned = r.boolean();
    entry.bytes = std::make_shared<const std::vector<std::byte>>(r.bytes());
    blob_store_.emplace(digest, std::move(entry));
  }

  clients_.clear();
  std::uint32_t client_count = r.u32();
  for (std::uint32_t i = 0; i < client_count; ++i) {
    ClientState cs;
    ClientId id = r.u64();
    cs.self_id = id;
    cs.name = r.str();
    cs.active = r.boolean();
    cs.stats = read_stats();
    clients_.emplace(id, std::move(cs));
  }

  reputation_.clear();
  std::uint32_t rep_count = r.u32();
  for (std::uint32_t i = 0; i < rep_count; ++i) {
    std::string name = r.str();
    DonorReputation rep;
    rep.score = r.f64();
    rep.vote_wins = r.u64();
    rep.vote_losses = r.u64();
    rep.blacklisted = r.boolean();
    reputation_.emplace(std::move(name), rep);
  }

  std::uint32_t problem_count = r.u32();
  if (problem_count != problems_.size()) {
    throw ProtocolError("restore_exact: snapshot has " +
                        std::to_string(problem_count) + " problems, core has " +
                        std::to_string(problems_.size()));
  }
  for (std::uint32_t i = 0; i < problem_count; ++i) {
    ProblemId pid = r.u64();
    auto it = problems_.find(pid);
    if (it == problems_.end()) {
      throw ProtocolError("restore_exact: unknown problem id " +
                          std::to_string(pid));
    }
    ProblemState& ps = it->second;
    auto dm_state = r.bytes();
    ByteReader dm_reader{std::span<const std::byte>(dm_state)};
    ps.dm->restore(dm_reader);
    dm_reader.expect_end();
    ps.next_unit_id = r.u64();
    ps.barrier_flagged = r.boolean();
    ps.data_digest = r.u64();
    ps.data_bytes = r.u64();
    ps.in_flight.clear();
    std::uint32_t units = r.u32();
    for (std::uint32_t u = 0; u < units; ++u) {
      UnitState us = read_unit();
      UnitId uid = us.unit.unit_id;
      ps.in_flight.emplace(uid, std::move(us));
    }
    ps.quarantined.clear();
    std::uint32_t q = r.u32();
    for (std::uint32_t u = 0; u < q; ++u) {
      UnitState us = read_unit();
      UnitId uid = us.unit.unit_id;
      ps.quarantined.emplace(uid, std::move(us));
    }
    ps.issue_queue.clear();
    std::uint32_t queue = r.u32();
    for (std::uint32_t e = 0; e < queue; ++e) {
      QueueEntry entry;
      entry.uid = r.u64();
      entry.reissue = r.boolean();
      ps.issue_queue.push_back(entry);
    }
  }
}

std::size_t SchedulerCore::in_flight_units() const {
  std::size_t n = 0;
  for (const auto& [pid, ps] : problems_) {
    n += ps.in_flight.size();
  }
  return n;
}

std::size_t SchedulerCore::pending_units() const {
  std::size_t n = 0;
  for (const auto& [pid, ps] : problems_) {
    n += ps.issue_queue.size();
  }
  return n;
}

}  // namespace hdcs::dist
