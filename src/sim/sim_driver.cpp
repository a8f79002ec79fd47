#include "sim/sim_driver.hpp"

#include <algorithm>

#include "net/blob_cache.hpp"
#include "net/bulk.hpp"
#include "net/compress.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace hdcs::sim {

namespace {
constexpr double kControlBytes = 32;  // request/ack payloads are tiny

// Fixed per-blob framing of the v4 bulk format (raw size + CRC + flags +
// wire size + header CRC), mirrored from net::send_blob_v4 for virtual
// byte accounting.
constexpr double kBlobV4HeaderBytes = 8 + 4 + 1 + 8 + 4;
}  // namespace

double SimOutcome::mean_utilization() const {
  if (machines.empty() || makespan_s <= 0) return 0;
  double busy = 0;
  for (const auto& m : machines) busy += m.busy_s;
  return busy / (static_cast<double>(machines.size()) * makespan_s);
}

SimDriver::SimDriver(SimConfig config, std::vector<MachineSpec> fleet)
    : config_(std::move(config)),
      core_(config_.scheduler, dist::make_policy(config_.policy_spec)),
      rng_(config_.seed) {
  core_.set_tracer(config_.tracer);
  machines_.reserve(fleet.size());
  for (auto& spec : fleet) {
    Machine m;
    m.spec = std::move(spec);
    m.rng = rng_.fork();
    machines_.push_back(std::move(m));
  }
  if (config_.cache_results && !cache_) {
    cache_ = std::make_shared<ResultCache>();
  }
}

SimDriver::~SimDriver() = default;

dist::ProblemId SimDriver::add_problem(std::shared_ptr<dist::DataManager> dm) {
  if (ran_) throw Error("SimDriver: add_problem after run()");
  dist::ProblemId id = core_.submit_problem(dm);
  ProblemCtx ctx;
  ctx.dm = std::move(dm);
  problems_.emplace(id, std::move(ctx));
  return id;
}

double SimDriver::wall_time_for_compute(Machine& m, double compute_s) {
  const auto& spec = m.spec;
  if (spec.owner_busy_mean <= 0 || spec.owner_free_mean <= 0) {
    // Per-unit jitter model: a smeared effective availability.
    return compute_s / availability_draw(m);
  }
  // Owner on/off model: alternate FREE/BUSY periods until enough free
  // time has accumulated. Start state is drawn from the stationary
  // distribution of the alternating renewal process.
  double wall = 0;
  double still_needed = compute_s;
  double p_free = spec.owner_free_mean /
                  (spec.owner_free_mean + spec.owner_busy_mean);
  bool free_now = m.rng.next_double() < p_free;
  for (;;) {
    if (free_now) {
      double period = m.rng.exponential(spec.owner_free_mean);
      if (period >= still_needed) return wall + still_needed;
      wall += period;
      still_needed -= period;
    } else {
      wall += m.rng.exponential(spec.owner_busy_mean);
    }
    free_now = !free_now;
  }
}

double SimDriver::availability_draw(Machine& m) {
  double a = m.spec.availability_mean +
             m.spec.availability_jitter * m.rng.uniform(-1.0, 1.0);
  return std::clamp(a, 0.05, 1.0);
}

double SimDriver::transfer(double ready_at, double payload_bytes) {
  double start = std::max(ready_at, link_busy_until_);
  double done = start + (payload_bytes + config_.network.frame_overhead_bytes) /
                            config_.network.bandwidth_bps;
  link_busy_until_ = done;
  bytes_ += payload_bytes + config_.network.frame_overhead_bytes;
  messages_ += 1;
  return done;
}

double SimDriver::server_handle(double arrival, double payload_bytes) {
  double start = std::max(arrival, server_busy_until_);
  double done = start + config_.network.server_overhead_s +
                payload_bytes * config_.network.server_per_byte_s;
  server_busy_until_ = done;
  return done;
}

std::vector<std::byte> SimDriver::execute_unit(const dist::WorkUnit& unit) {
  ProblemCtx& ctx = problems_.at(unit.problem_id);
  std::string key;
  if (cache_) {
    // Key on (problem data hash, blob digests, unit payload) — stable
    // across SimDriver instances so fleet-size sweeps share one cache. The
    // digests matter: blob-bearing units may have identical (even empty)
    // payloads and differ only in the content they reference.
    if (!ctx.data_hashed) {
      auto data = ctx.dm->problem_data();
      ctx.data_hash = net::blob_digest(data);
      ctx.data_hashed = true;
    }
    key.reserve(16 + 21 * unit.blobs.size() + unit.payload.size());
    key.append(std::to_string(ctx.data_hash));
    for (const auto& blob : unit.blobs) {
      key.push_back('/');
      key.append(std::to_string(blob.digest));
    }
    key.push_back(':');
    key.append(reinterpret_cast<const char*>(unit.payload.data()),
               unit.payload.size());
    auto cached = cache_->find(key);
    if (cached != cache_->end()) {
      cache_hits_ += 1;
      return cached->second;
    }
    cache_misses_ += 1;
  }
  if (!ctx.algorithm) {
    ctx.algorithm = config_.registry->create(ctx.dm->algorithm_name());
    auto data = ctx.dm->problem_data();
    ctx.algorithm->initialize(data);
  }
  auto result = ctx.algorithm->process(unit);
  if (cache_) (*cache_)[key] = result;
  return result;
}

double SimDriver::blob_wire_bytes(std::uint64_t digest,
                                  std::span<const std::byte> bytes) {
  auto it = blob_wire_bytes_.find(digest);
  if (it != blob_wire_bytes_.end()) return it->second;
  auto compressed = net::lz_compress(bytes);
  double wire = kBlobV4HeaderBytes + static_cast<double>(
                    compressed ? compressed->size() : bytes.size());
  blob_wire_bytes_.emplace(digest, wire);
  return wire;
}

double SimDriver::deliver_blob(Machine& m, double ready, std::uint64_t digest,
                               std::span<const std::byte> bytes) {
  auto& bm = net::bulk_plane_metrics();
  if (m.have_blobs.count(digest)) {
    blob_cache_hits_ += 1;
    bm.blobs_cache_hit.inc();
    if (config_.tracer) {
      config_.tracer->event(queue_.now(), "blob_cache_hit")
          .u64("client", m.client_id)
          .u64("digest", digest)
          .u64("size", bytes.size());
    }
    return ready;
  }
  double wire = blob_wire_bytes(digest, bytes);
  double done = transfer(ready, wire) + config_.network.latency_s;
  m.have_blobs.insert(digest);
  blobs_sent_ += 1;
  blob_bytes_raw_ += static_cast<double>(bytes.size());
  blob_bytes_wire_ += wire;
  bm.blobs_sent.inc();
  bm.bytes_raw.inc(bytes.size());
  bm.bytes_wire.inc(static_cast<std::uint64_t>(wire));
  if (config_.tracer) {
    config_.tracer->event(queue_.now(), "blob_sent")
        .u64("client", m.client_id)
        .u64("digest", digest)
        .u64("raw", bytes.size())
        .u64("wire", static_cast<std::uint64_t>(wire))
        .boolean("compressed",
                 wire - kBlobV4HeaderBytes < static_cast<double>(bytes.size()));
  }
  return done;
}

void SimDriver::machine_join(std::size_t idx) {
  Machine& m = machines_[idx];
  m.alive = true;
  m.ever_joined = true;
  // A rejoin models a donor restart with a memory-only cache: every blob
  // (problem data included) must be re-negotiated.
  m.have_blobs.clear();
  m.have_data.clear();
  int gen = m.generation;

  // Hello: control message to the server, reply comes back, then the
  // machine starts its request loop.
  double handled = server_handle(transfer(queue_.now(), kControlBytes) +
                                     config_.network.latency_s,
                                 kControlBytes);
  queue_.schedule(handled, [this, idx, gen, handled] {
    Machine& mm = machines_[idx];
    if (!mm.alive || mm.generation != gen) return;
    double benchmark = config_.reference_ops_per_sec * mm.spec.speed *
                       mm.spec.availability_mean;
    mm.client_id = core_.client_joined(mm.spec.name, benchmark, queue_.now());
    double reply_at = transfer(handled, kControlBytes) + config_.network.latency_s;
    queue_.schedule(reply_at, [this, idx, gen] { machine_request_work(idx, gen); });
  });
}

void SimDriver::machine_leave(std::size_t idx) {
  Machine& m = machines_[idx];
  if (!m.alive) return;
  m.generation += 1;  // invalidate in-flight events
  m.alive = false;
  if (!m.spec.crash_on_leave) {
    core_.client_left(m.client_id, queue_.now());
  }
  if (m.spec.rejoin_time >= 0 && m.spec.rejoin_time > queue_.now()) {
    queue_.schedule(m.spec.rejoin_time, [this, idx] { machine_join(idx); });
  } else {
    m.departed_for_good = true;
  }
}

void SimDriver::machine_request_work(std::size_t idx, int gen) {
  Machine& m = machines_[idx];
  if (!m.alive || m.generation != gen) return;

  double handled = server_handle(transfer(queue_.now(), kControlBytes) +
                                     config_.network.latency_s,
                                 kControlBytes);
  queue_.schedule(handled, [this, idx, gen] {
    Machine& mm = machines_[idx];
    if (!mm.alive || mm.generation != gen) return;
    const double lease_start = queue_.now();  // == the lease's issued_at
    auto unit = core_.request_work(mm.client_id, queue_.now());
    if (!unit) {
      if (core_.all_complete()) return;  // donor goes quiet; run is over
      double reply_at =
          transfer(queue_.now(), kControlBytes) + config_.network.latency_s;
      queue_.schedule(reply_at + config_.no_work_retry_s,
                      [this, idx, gen] { machine_request_work(idx, gen); });
      return;
    }

    // Bulk data rides the content-addressed blob plane: the problem data
    // (first contact only — its digest lands in the machine's cache) and
    // every blob the unit references, each charged at compressed wire size
    // and skipped entirely on a cache hit.
    double ready = queue_.now();
    if (std::find(mm.have_data.begin(), mm.have_data.end(),
                  unit->problem_id) == mm.have_data.end()) {
      std::uint64_t pdata_digest = core_.problem_data_digest(unit->problem_id);
      if (auto pdata = core_.blob_bytes(pdata_digest)) {
        ready = deliver_blob(mm, ready, pdata_digest, *pdata);
      }
      mm.have_data.push_back(unit->problem_id);
    }
    for (auto& blob : unit->blobs) {
      auto bytes = core_.blob_bytes(blob.digest);
      if (!bytes) {
        // Unreachable by construction (an issued unit pins its blobs), but
        // a hard error beats silently computing on missing input.
        throw Error("sim: issued unit references an unknown blob");
      }
      ready = deliver_blob(mm, ready, blob.digest, *bytes);
      blob.bytes = *bytes;  // materialize for execute_unit / the Algorithm
    }

    // Ship the unit frame itself, then compute.
    double unit_arrival =
        transfer(ready, static_cast<double>(unit->payload.size())) +
        config_.network.latency_s;
    double compute_s =
        unit->cost_ops / (config_.reference_ops_per_sec * mm.spec.speed);
    double duration = wall_time_for_compute(mm, compute_s);
    double finish = unit_arrival + duration;

    // Mirror of the v5 donor span profile, in virtual time. Phases tile
    // the lease exactly: blob_fetch + queue_wait + compute == finish -
    // lease_start, so the scheduler-derived submit residual equals the
    // result's return trip with no clamp — components sum to elapsed_s
    // *exactly*, which tests pin. (decompress/encode are wall-clock
    // artifacts the virtual machine model has no cost for.)
    obs::UnitProfile prof;
    prof.blob_fetch_s = ready - lease_start;
    prof.queue_wait_s = unit_arrival - ready;
    prof.compute_s = duration;

    queue_.schedule(finish, [this, idx, gen, u = *unit, duration, prof] {
      Machine& m2 = machines_[idx];
      if (!m2.alive || m2.generation != gen) return;  // crashed mid-compute
      m2.busy_s += duration;
      m2.units += 1;

      dist::ResultUnit result;
      result.problem_id = u.problem_id;
      result.unit_id = u.unit_id;
      result.stage = u.stage;
      result.epoch = u.epoch;  // echo the lease's term, as a donor does
      auto& saturation_counter =
          obs::Registry::global().counter("align.batch_saturations");
      const std::uint64_t saturations_before = saturation_counter.value();
      result.payload = execute_unit(u);
      result.profile = prof;
      result.profile->saturations =
          saturation_counter.value() - saturations_before;
      if (m2.spec.corrupt_rate > 0 && !result.payload.empty() &&
          m2.rng.next_double() < m2.spec.corrupt_rate) {
        // Lying donor: flip a byte of the *submitted copy* (never the
        // shared result cache) and sign the lie with a matching digest so
        // only replication voting can reject it.
        auto at = static_cast<std::size_t>(
            m2.rng.next_below(result.payload.size()));
        result.payload[at] ^= std::byte{0x5a};
      }
      result.payload_crc = net::crc32(result.payload);
      machine_submit(idx, gen, std::move(result));
    });
  });
}

void SimDriver::machine_submit(std::size_t idx, int gen,
                               dist::ResultUnit result) {
  Machine& m = machines_[idx];
  if (!m.alive || m.generation != gen) return;  // a crashed donor loses its buffer
  double res_handled = server_handle(
      transfer(queue_.now(), static_cast<double>(result.payload.size())) +
          config_.network.latency_s,
      static_cast<double>(result.payload.size()));
  queue_.schedule(res_handled, [this, idx, gen, r = std::move(result),
                                res_handled]() mutable {
    Machine& m3 = machines_[idx];
    core_.submit_result(m3.client_id, r, queue_.now());
    // Record completion times as problems finish.
    for (auto& [pid, pctx] : problems_) {
      if (!pctx.complete_recorded && pctx.dm->is_complete()) {
        pctx.complete_recorded = true;
        completion_time_[pid] = queue_.now();
        last_completion_ = queue_.now();
      }
    }
    if (!m3.alive || m3.generation != gen) return;
    double ack_at =
        transfer(res_handled, kControlBytes) + config_.network.latency_s;
    queue_.schedule(ack_at, [this, idx, gen] { machine_request_work(idx, gen); });
  });
}

void SimDriver::schedule_tick() {
  queue_.schedule(queue_.now() + config_.tick_interval_s, [this] {
    if (queue_.now() > config_.max_sim_time) {
      throw Error("simulation exceeded max_sim_time — deadlocked workload?");
    }
    core_.tick(queue_.now());
    if (core_.all_complete()) return;
    bool any_donor_left = false;
    for (const auto& m : machines_) {
      if (m.alive || !m.ever_joined ||
          (m.spec.rejoin_time >= 0 && !m.departed_for_good &&
           m.spec.rejoin_time > queue_.now())) {
        any_donor_left = true;
        break;
      }
    }
    if (!any_donor_left) {
      throw Error("all donors departed with problems incomplete");
    }
    schedule_tick();
  });
}

SimOutcome SimDriver::run() {
  if (ran_) throw Error("SimDriver: run() called twice");
  ran_ = true;
  if (problems_.empty()) throw Error("SimDriver: no problems added");
  if (machines_.empty()) throw Error("SimDriver: empty fleet");

  for (std::size_t i = 0; i < machines_.size(); ++i) {
    queue_.schedule(machines_[i].spec.join_time, [this, i] { machine_join(i); });
    if (machines_[i].spec.leave_time >= 0) {
      queue_.schedule(machines_[i].spec.leave_time,
                      [this, i] { machine_leave(i); });
    }
  }
  schedule_tick();

  queue_.run_until([this] { return core_.all_complete(); });

  if (!core_.all_complete()) {
    throw Error("simulation ended with incomplete problems (all donors gone?)");
  }

  // Donors that were still attached when the last problem completed say an
  // orderly goodbye, so the trace ends the same way a real server run does
  // (client_left is idempotent, so machines that already left are safe).
  for (auto& m : machines_) {
    if (m.alive) {
      core_.client_left(m.client_id, queue_.now());
      m.alive = false;
      m.generation += 1;
    }
  }

  SimOutcome out;
  out.makespan_s = last_completion_;
  out.scheduler = core_.stats();
  out.messages = messages_;
  out.bytes_transferred = bytes_;
  out.events_executed = queue_.executed();
  out.cache_hits = cache_hits_;
  out.cache_misses = cache_misses_;
  out.blobs_sent = blobs_sent_;
  out.blob_cache_hits = blob_cache_hits_;
  out.blob_bytes_raw = blob_bytes_raw_;
  out.blob_bytes_wire = blob_bytes_wire_;
  out.completion_time_s = completion_time_;
  for (const auto& m : machines_) {
    MachineOutcome mo;
    mo.name = m.spec.name;
    mo.busy_s = m.busy_s;
    mo.units = m.units;
    mo.departed = m.departed_for_good;
    out.machines.push_back(std::move(mo));
  }
  for (auto& [pid, ctx] : problems_) {
    out.final_results[pid] = ctx.dm->final_result();
  }
  return out;
}

}  // namespace hdcs::sim
