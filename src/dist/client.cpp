#include "dist/client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>

#include "net/bulk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace hdcs::dist {

namespace {
/// FNV-1a of the donor name: a deterministic per-donor jitter seed, so a
/// herd of reconnecting donors spreads out without shared state.
std::uint64_t name_seed(const std::string& name) {
  return net::blob_digest(std::as_bytes(std::span(name)));
}
}  // namespace

Client::Client(ClientConfig config)
    : config_(std::move(config)),
      endpoints_(config_.servers.empty()
                     ? std::vector<ServerEndpoint>{{config_.server_host,
                                                    config_.server_port}}
                     : config_.servers),
      backoff_(config_.backoff_initial_s, config_.backoff_max_s),
      blob_cache_(net::BlobCacheConfig{config_.blob_cache_bytes,
                                       config_.blob_cache_dir,
                                       config_.blob_cache_disk_bytes}),
      epoch_(std::chrono::steady_clock::now()),
      backoff_rng_(name_seed(config_.name)) {
  // 0=scalar 1=sse2 2=avx2 3=avx512 (util/simd.hpp): the kernel tier this
  // donor's compute threads will dispatch.
  obs::Registry::global().gauge("simd.tier")
      .set(static_cast<double>(static_cast<int>(simd_tier())));
}

double Client::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double Client::measure_benchmark() {
  // A short fixed numeric loop; the returned "ops/sec" is the same abstract
  // currency DataManagers use for cost_ops, calibrated loosely (one "op" ~
  // one inner-loop iteration of a dynamic-programming cell update). It
  // measures the machine, so it runs once per process: every later run()
  // and every run_pool() worker reads the same score.
  static const double ops_per_sec = [] {
    Stopwatch sw;
    volatile double acc = 0;
    constexpr std::uint64_t kIters = 2'000'000;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      acc = acc + std::fma(1e-9, static_cast<double>(i & 0xff), 1e-12);
    }
    double secs = sw.seconds();
    if (secs <= 0) secs = 1e-6;
    return static_cast<double>(kIters) / secs;
  }();
  return ops_per_sec;
}

std::vector<ClientRunStats> Client::run_pool(const ClientConfig& base,
                                             int count) {
  if (count < 1) throw InputError("run_pool: count must be >= 1");
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(count));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([&base, &stats, &errors, i] {
      ClientConfig cfg = base;
      cfg.name = base.name + "-cpu" + std::to_string(i);
      try {
        stats[static_cast<std::size_t>(i)] = Client(cfg).run();
      } catch (const Error& e) {
        LOG_WARN("donor pool worker " << cfg.name << " failed: " << e.what());
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // One surviving worker means the pool did its job; none means the
  // donor failed, and its caller must hear so.
  if (std::all_of(errors.begin(), errors.end(),
                  [](const std::exception_ptr& e) { return e != nullptr; })) {
    std::rethrow_exception(errors.front());
  }
  return stats;
}

Algorithm* Client::prepare(WorkAssignmentPayload& assignment) {
  std::vector<WorkBlob>& blobs = assignment.unit.blobs;
  ContextKey key{assignment.algorithm_name, assignment.problem_data.digest};
  if (auto it = contexts_.find(key); it != contexts_.end()) {
    return ensure_blobs(blobs) ? it->second.get() : nullptr;
  }

  // First unit of this problem: its data joins the unit's NEED list, so a
  // new problem costs no extra round trip, and a donor that saw this data
  // before a restart (disk cache) skips the download entirely.
  blobs.push_back(assignment.problem_data);
  const bool present = ensure_blobs(blobs);
  WorkBlob data = std::move(blobs.back());
  blobs.pop_back();
  if (!present) return nullptr;
  if (data.bytes.size() != data.size) {
    throw ProtocolError("problem data size mismatch");
  }
  auto algorithm = config_.registry->create(key.first);
  algorithm->initialize(data.bytes);
  if (config_.exec_threads > 1) {
    algorithm->set_parallelism(config_.exec_threads);
  }
  LOG_INFO("problem " << assignment.unit.problem_id << ": fetched "
                      << data.bytes.size() << " bytes, algorithm "
                      << key.first);
  return contexts_.emplace(std::move(key), std::move(algorithm))
      .first->second.get();
}

void Client::note_retry_later(const RetryLaterPayload& nack) {
  retry_laters_ += 1;
  obs::Registry::global().counter("client.retry_laters").inc();
  LOG_DEBUG("client '" << config_.name << "' told to retry later ("
                       << nack.reason << ", " << nack.retry_after_s << "s)");
}

net::Message Client::fetch_blobs_round(const FetchBlobsPayload& need) {
  for (;;) {
    const std::uint64_t corr = next_correlation_++;
    send(encode_fetch_blobs(need, corr));
    net::Message reply = await_reply(corr);
    if (reply.type != net::MessageType::kRetryLater) return reply;
    auto nack = decode_retry_later(reply);
    note_retry_later(nack);
    if (!backoff_wait(nack.retry_after_s)) {
      throw IoError("stopped while waiting to retry a blob fetch");
    }
  }
}

bool Client::ensure_blobs(std::vector<WorkBlob>& blobs) {
  if (blobs.empty()) return true;
  auto& bulk = net::bulk_plane_metrics();
  std::vector<std::vector<std::byte>> resolved(blobs.size());
  std::vector<std::size_t> missing;  // indices into blobs
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (auto hit = blob_cache_.get(blobs[i].digest)) {
      bulk.blobs_cache_hit.inc();
      if (config_.tracer) {
        config_.tracer->event(now(), "blob_cache_hit")
            .u64("client", my_id_)
            .u64("digest", blobs[i].digest)
            .u64("size", hit->size());
      }
      resolved[i] = std::move(*hit);
    } else {
      missing.push_back(i);
    }
  }
  bool all_present = true;
  if (!missing.empty()) {
    FetchBlobsPayload need;
    for (std::size_t i : missing) need.digests.push_back(blobs[i].digest);
    auto reply = decode_blob_data(fetch_blobs_round(need));
    if (reply.blobs.size() != missing.size()) {
      throw ProtocolError("BlobData reply count does not match the request");
    }
    // Drain every present body — even after discovering an absent blob —
    // so the stream stays framed; the side effect is that the bytes land
    // in the cache for the next unit that wants them.
    for (std::size_t k = 0; k < missing.size(); ++k) {
      std::uint64_t digest = blobs[missing[k]].digest;
      if (reply.blobs[k].digest != digest) {
        throw ProtocolError("BlobData reply does not match the requested digest");
      }
      if (!reply.blobs[k].present) {
        all_present = false;
        continue;
      }
      auto bytes = net::recv_blob_v4(stream_, net::kMaxBlobBytes,
                                     &profile_.decompress_s);
      if (net::blob_digest(bytes) != digest) {
        throw ProtocolError("fetched blob does not hash to its digest");
      }
      blob_cache_.put(digest, bytes);
      resolved[missing[k]] = std::move(bytes);
    }
  }
  if (!all_present) return false;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    blobs[i].bytes = std::move(resolved[i]);
  }
  return true;
}

bool Client::backoff_wait(double delay) {
  double slept = 0;
  while (slept < delay) {
    if (stop_.load() || crash_.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slept += 0.02;
  }
  return !stop_.load() && !crash_.load();
}

net::Message Client::await_reply(std::uint64_t correlation) {
  std::optional<net::Message> reply;
  if (early_ack_ && early_ack_->correlation == correlation) {
    reply = std::move(early_ack_);
    early_ack_.reset();
  }
  while (!reply) {
    net::Message m = net::read_message(stream_);
    if (m.correlation == correlation) {
      reply = std::move(m);
    } else if (ack_corr_ != 0 && m.correlation == ack_corr_ && !early_ack_) {
      early_ack_ = std::move(m);  // the ack came first; keep it
    } else {
      throw ProtocolError("reply for correlation " +
                          std::to_string(m.correlation) + " while awaiting " +
                          std::to_string(correlation));
    }
  }
  if (reply->type == net::MessageType::kError) {
    throw ProtocolError("server refused the request: " + reply->reader().str());
  }
  return std::move(*reply);
}

void Client::submit(const ResultUnit& result) {
  ack_corr_ = next_correlation_++;
  send(encode_submit_result(result, ack_corr_));
}

bool Client::take_ack(std::optional<ResultUnit>& pending, bool& resubmitting,
                      ClientRunStats& stats) {
  net::Message reply = await_reply(ack_corr_);
  ack_corr_ = 0;
  if (reply.type == net::MessageType::kRetryLater) {
    // A fail-stop server NACKs submissions so we keep our buffered copy
    // for its replacement; `pending` survives and is resent.
    auto nack = decode_retry_later(reply);
    note_retry_later(nack);
    backoff_wait(nack.retry_after_s);
    return false;
  }
  auto result_ack = decode_result_ack(reply);
  backoff_.session_healthy();
  if (!result_ack.accepted) {
    LOG_DEBUG("result for unit " << pending->unit_id << " was a duplicate");
  }
  if (resubmitting) {
    stats.results_resubmitted += 1;
    resubmitting = false;
  }
  pending.reset();
  stats.units_processed += 1;
  return true;
}

void Client::send(const net::Message& m) {
  std::lock_guard lock(stream_mutex_);
  net::write_message(stream_, m);
  last_write_ = std::chrono::steady_clock::now();
}

void Client::install(net::TcpStream stream) {
  std::lock_guard lock(stream_mutex_);
  stream_ = std::move(stream);  // closes the previous connection
  last_write_ = std::chrono::steady_clock::now();
}

void Client::keepalive_loop() {
  net::Message beat;
  beat.type = net::MessageType::kHeartbeat;
  std::unique_lock lock(stream_mutex_);
  while (!keepalive_done_) {
    // A new session wakes this thread with its own interval (0 = none).
    const double interval_s = heartbeat_interval_;
    const auto changed = [&] {
      return keepalive_done_ || heartbeat_interval_ != interval_s;
    };
    if (interval_s <= 0) {
      keepalive_cv_.wait(lock, changed);
      continue;
    }
    // Every write pushes the silent interval's end back; wake at it.
    const auto interval =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(interval_s));
    if (keepalive_cv_.wait_until(lock, last_write_ + interval, changed)) {
      continue;
    }
    if (std::chrono::steady_clock::now() < last_write_ + interval) continue;
    if (stream_.valid()) {
      try {
        net::write_message(stream_, beat);
      } catch (const Error&) {
        // The work loop meets the dead session on its own next read or
        // write, and reconnects; a keepalive has nothing to add.
      }
    }
    last_write_ = std::chrono::steady_clock::now();
  }
}

bool Client::backoff_step() {
  // The escalation lives in backoff_ and survives sessions: only a healthy
  // session (an acked result) resets it.
  const double jitter =
      1.0 + kBackoffJitter * backoff_rng_.uniform(-1.0, 1.0);
  return backoff_wait(backoff_.next_delay() * jitter);
}

bool Client::connect_session() {
  HelloPayload hello;
  hello.client_name = config_.name;
  hello.benchmark_ops_per_sec =
      measure_benchmark() / std::max(config_.throttle, 1.0);
  int failures = 0;
  for (;;) {
    if (stop_.load() || crash_.load()) return false;
    const ServerEndpoint ep = endpoint();
    try {
      install(net::TcpStream::connect(ep.host, ep.port));
      const std::uint64_t corr = next_correlation_++;
      send(encode_hello(hello, corr));
      net::Message reply = await_reply(corr);
      if (reply.type == net::MessageType::kRetryLater) {
        // Shed at the door (max_clients / fail-stop): count it like a
        // failed connect, so the backoff + endpoint rotation below apply.
        auto nack = decode_retry_later(reply);
        note_retry_later(nack);
        throw IoError("server shedding load: " + nack.reason);
      }
      auto ack = decode_hello_ack(reply);
      my_id_ = ack.client_id;
      LOG_INFO("client '" << config_.name << "' registered as id "
                          << ack.client_id);
      {
        std::lock_guard lock(stream_mutex_);
        heartbeat_interval_ = ack.heartbeat_interval_s;
      }
      keepalive_cv_.notify_all();  // the keepalive follows this session
      if (config_.send_heartbeats && ack.heartbeat_interval_s > 0 &&
          !keepalive_.joinable()) {
        keepalive_ = std::thread([this] { keepalive_loop(); });
      }
      return true;
    } catch (const Error& e) {
      // A failed connect, a corrupt HelloAck, or an unpromoted standby
      // rejecting Hello with an error frame: the same backoff, and the
      // rotation below moves on to the next endpoint in the list.
      if (!dynamic_cast<const IoError*>(&e) &&
          !dynamic_cast<const ProtocolError*>(&e)) {
        throw;
      }
      failures += 1;
      if (config_.max_connect_attempts > 0 &&
          failures >= config_.max_connect_attempts) {
        throw;
      }
      LOG_DEBUG("client '" << config_.name << "' session with " << ep.host
                           << ":" << ep.port << " failed (" << e.what()
                           << "); rotating");
    }
    rotate_endpoint();
    if (!backoff_step()) return false;
  }
}

ClientRunStats Client::run() {
  ClientRunStats stats;
  obs::Registry::global().gauge("client.exec_threads")
      .set(static_cast<double>(std::max<std::size_t>(config_.exec_threads, 1)));

  // However run() ends, the keepalive thread is joined before the work
  // connection closes.
  struct SessionCloser {
    Client& self;
    ~SessionCloser() {
      {
        std::lock_guard lock(self.stream_mutex_);
        self.keepalive_done_ = true;
      }
      self.keepalive_cv_.notify_all();
      if (self.keepalive_.joinable()) self.keepalive_.join();
      self.install(net::TcpStream{});
    }
  } closer{*this};

  if (!connect_session()) {
    stats.retry_laters = retry_laters_;
    return stats;
  }

  // The work loop. `pending` is the one unacknowledged result, sent
  // (ack_corr_ != 0) or waiting to be resent. If the session dies before
  // its ack, the reconnected session resubmits it instead of recomputing
  // the unit (the server dedups by unit id, so a double delivery is just a
  // dropped duplicate). Its ack may be held for the server's group commit,
  // so the next RequestWork goes out at once and `computed` holds the next
  // unit's result until that ack is in. Leaving — no more work, or a stop
  // request — still collects the last ack before Goodbye.
  std::optional<ResultUnit> pending;
  std::optional<ResultUnit> computed;
  std::uint64_t units_computed = 0;
  bool resubmitting = false;
  bool no_more_work = false;
  int consecutive_idle = 0;
  bool session_ok = true;
  while (!crash_.load()) {
    const bool leaving = no_more_work || stop_.load();
    if (leaving && !pending) break;
    try {
      if (pending && ack_corr_ == 0) submit(*pending);
      if (leaving) {
        const bool acked = take_ack(pending, resubmitting, stats);
        if (!acked && stop_.load()) break;
        continue;
      }
      if (!computed) {
        Stopwatch queue_sw;  // RequestWork sent -> assignment decoded
        const std::uint64_t corr = next_correlation_++;
        send(encode_request_work(corr));
        net::Message reply = await_reply(corr);

        if (reply.type == net::MessageType::kNoWorkAvailable) {
          auto no_work = decode_no_work(reply);
          stats.idle_polls += 1;
          // Every problem is finished: no unit of any of them comes again,
          // so let go of what was built from their data.
          if (no_work.all_problems_complete) contexts_.clear();
          if (config_.exit_when_idle &&
              (no_work.all_problems_complete ||
               ++consecutive_idle >= config_.max_idle_polls)) {
            no_more_work = true;
          }
          continue;  // sent when work can exist: ask again at once
        }
        if (reply.type == net::MessageType::kShutdown) {
          no_more_work = true;
          continue;
        }
        if (reply.type == net::MessageType::kRetryLater) {
          // Overloaded (or degraded fail-stop) server shedding work
          // requests: honour the hint, keep the session.
          auto nack = decode_retry_later(reply);
          note_retry_later(nack);
          backoff_wait(nack.retry_after_s);
          continue;
        }

        WorkAssignmentPayload assignment = decode_work_assignment(reply);
        const WorkUnit& unit = assignment.unit;
        profile_ = obs::UnitProfile{};
        profile_.queue_wait_s = queue_sw.seconds();
        profile_.threads = static_cast<std::uint32_t>(
            std::max<std::size_t>(config_.exec_threads, 1));
        consecutive_idle = 0;
        // blob_fetch covers problem-data + unit-blob resolution; the LZ
        // inflation inside recv_blob_v4 accumulates separately into
        // decompress_s, so subtract it to keep the two spans disjoint.
        double fetch_total = 0;
        Algorithm* algorithm = nullptr;
        {
          obs::SpanTimer fetch(fetch_total);
          algorithm = prepare(assignment);
        }
        profile_.blob_fetch_s =
            std::max(0.0, fetch_total - profile_.decompress_s);
        if (algorithm == nullptr) {
          // A referenced blob is gone server-side: a replica finished the
          // unit while our NEED list was in flight. Drop it and ask for
          // fresh work.
          LOG_DEBUG("unit " << unit.unit_id
                            << " references a released blob; dropping");
          continue;
        }

        auto& saturation_counter =
            obs::Registry::global().counter("align.batch_saturations");
        const std::uint64_t saturations_before = saturation_counter.value();
        Stopwatch sw;
        ResultUnit result;
        result.problem_id = unit.problem_id;
        result.unit_id = unit.unit_id;
        result.stage = unit.stage;
        // Echo the lease's term: a result computed for a deposed
        // primary carries its old epoch, and the promoted server fences it.
        result.epoch = unit.epoch;
        result.payload = algorithm->process(unit);
        profile_.compute_s = sw.seconds();
        profile_.saturations = saturation_counter.value() - saturations_before;
        {
          obs::SpanTimer encode_span(profile_.encode_s);
          if (config_.corrupt_rate > 0 && !result.payload.empty()) {
            // Deterministic per-unit draw: the same donor lies about the
            // same units on every run, so chaos tests are reproducible.
            Rng draw(config_.corrupt_seed ^ name_seed(config_.name) ^
                     (unit.unit_id * 0x9e3779b97f4a7c15ull));
            if (draw.next_double() < config_.corrupt_rate) {
              std::size_t at = static_cast<std::size_t>(
                  draw.next_below(result.payload.size()));
              result.payload[at] ^= std::byte{0x5a};
              LOG_DEBUG("corrupting result for unit " << unit.unit_id);
            }
          }
          // Digest over the bytes actually submitted — a lying donor signs
          // its lie, so the wire check passes and voting has to catch it.
          result.payload_crc = net::crc32(result.payload);
        }
        double compute_s = sw.seconds();
        stats.compute_seconds += compute_s;
        if (config_.throttle > 1.0) {
          // Emulate a slower donor machine by padding compute time. The
          // padding belongs to the compute span — it models a machine for
          // which process() really would have taken that long.
          obs::SpanTimer pad(profile_.compute_s);
          std::this_thread::sleep_for(std::chrono::duration<double>(
              compute_s * (config_.throttle - 1.0)));
        }
        if (config_.crash_after_units >= 0 &&
            units_computed + 1 >=
                static_cast<std::uint64_t>(config_.crash_after_units)) {
          crash_.store(true);
        }
        if (crash_.load()) {
          stats.retry_laters = retry_laters_;
          return stats;  // vanish without submitting
        }
        units_computed += 1;
        result.profile = profile_;
        computed = std::move(result);
      }

      // The previous result's ack comes before this one's SubmitResult.
      if (pending && !take_ack(pending, resubmitting, stats)) {
        continue;  // not acked: resend it first
      }
      pending = std::move(computed);
      computed.reset();
      submit(*pending);
    } catch (const Error& e) {
      // The one session-recovery path. A transport failure (IoError), a
      // corrupt frame or an Error reply (ProtocolError: CRC mismatch, torn
      // header, a reply nobody asked for, a request the server refused):
      // either way this session is over — drop it, wait one backoff step
      // and start a clean one, which resubmits `pending`. Any other Error
      // is not the session's and ends the donor.
      if (dynamic_cast<const ProtocolError*>(&e) == nullptr &&
          dynamic_cast<const IoError*>(&e) == nullptr) {
        throw;
      }
      if (stop_.load() || crash_.load()) break;
      LOG_WARN("client '" << config_.name << "' lost its session ("
                          << e.what() << "); reconnecting");
      install(net::TcpStream{});
      ack_corr_ = 0;
      early_ack_.reset();
      if (pending) resubmitting = true;
      if (!backoff_step() || !connect_session()) {
        session_ok = false;
        break;
      }
      stats.reconnects += 1;
      obs::Registry::global().counter("client.reconnects").inc();
    }
  }

  if (!crash_.load() && session_ok && stream_.valid()) {
    try {
      std::lock_guard lock(stream_mutex_);
      keepalive_done_ = true;  // nothing follows the Goodbye
      net::write_message(stream_, encode_goodbye(next_correlation_++));
      stream_.shutdown_write();
    } catch (const Error&) {
      // Server may already be gone; departure is best-effort.
    }
  }
  stats.retry_laters = retry_laters_;
  return stats;
}

}  // namespace hdcs::dist
