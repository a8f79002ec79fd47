#include "probes.hpp"

#include <filesystem>
#include <map>

#include "dist/client.hpp"
#include "dist/registry.hpp"
#include "dist/scheduler_core.hpp"
#include "dist/wal.hpp"
#include "net/blob_cache.hpp"
#include "net/bulk.hpp"
#include "net/compress.hpp"
#include "phylo/distance.hpp"
#include "phylo/likelihood.hpp"
#include "tracing.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

constexpr double kProbeMinS = 0.05;  // each rate probe times at least this
constexpr int kWalProbeRecords = 200;

/// Calls `pass` (which processes `bytes` bytes) until kProbeMinS elapsed;
/// returns MB/s.
template <typename Fn>
double rate_mb_s(std::size_t bytes, Fn&& pass) {
  if (bytes == 0) return 0;
  hdcs::Stopwatch sw;
  std::size_t done = 0;
  do {
    pass();
    done += bytes;
  } while (sw.seconds() < kProbeMinS);
  return static_cast<double>(done) / sw.seconds() / 1e6;
}

}  // namespace

SchedulerReplay replay_scheduler(const Workload& workload, const Job& job,
                                 int donors) {
  hdcs::dist::SchedulerConfig config;
  config.bounds.min_ops = workload.min_ops;
  hdcs::dist::SchedulerCore core(config,
                                 hdcs::dist::make_policy(workload.policy_spec));
  // The wrapper times the DataManager callbacks the core makes, so they
  // can be taken out of the core's own time.
  SpanRecorder rec;
  AppTally tally;
  std::map<hdcs::dist::ProblemId, std::shared_ptr<hdcs::dist::DataManager>>
      inner;
  for (auto& dm : job.make()) {
    auto pid = core.submit_problem(
        std::make_shared<TracedDataManager>(dm, 0, rec, tally));
    inner[pid] = dm;
  }
  double now = 0;
  const double bench = hdcs::dist::Client::measure_benchmark();
  std::vector<hdcs::dist::ClientId> clients;
  for (int i = 0; i < donors; ++i) {
    clients.push_back(
        core.client_joined("replay-" + std::to_string(i), bench, now));
  }

  std::map<hdcs::dist::ProblemId, std::unique_ptr<hdcs::dist::Algorithm>> algos;
  SchedulerReplay out;
  std::size_t turn = 0;
  while (!core.all_complete()) {
    auto client = clients[turn++ % clients.size()];
    hdcs::Stopwatch sw;
    auto unit = core.request_work(client, now);
    out.request_work_s += sw.seconds();
    // Units are computed and submitted one at a time, so a stage barrier
    // can never leave the replay without work.
    if (!unit) throw hdcs::Error("scheduler replay: no unit for an incomplete job");
    core.materialize_unit_blobs(*unit);
    auto& algo = algos[unit->problem_id];
    if (!algo) {
      const auto& dm = *inner.at(unit->problem_id);
      algo = hdcs::dist::AlgorithmRegistry::global().create(dm.algorithm_name());
      algo->initialize(dm.problem_data());
    }
    hdcs::Stopwatch compute;
    hdcs::dist::ResultUnit result;
    result.problem_id = unit->problem_id;
    result.unit_id = unit->unit_id;
    result.stage = unit->stage;
    result.epoch = unit->epoch;
    result.payload = algo->process(*unit);
    now += compute.seconds();
    sw.reset();
    core.submit_result(client, result, now);
    out.submit_result_s += sw.seconds();
  }
  for (const auto& [name, t] : summarize(rec.finish())) {
    if (name == "app.next_unit") out.request_work_s -= t.total_s;
    if (name == "app.accept_result" || name == "app.snapshot") {
      out.submit_result_s -= t.total_s;
    }
  }
  return out;
}

WalProbe probe_wal(const std::string& dir, std::size_t payload_bytes) {
  std::filesystem::remove_all(dir);
  WalProbe out;
  {
    hdcs::dist::WalConfig config;
    config.dir = dir;
    hdcs::dist::WalLog log(config);
    hdcs::Rng rng(7);
    for (int i = 0; i < kWalProbeRecords; ++i) {
      hdcs::dist::WalRecord rec;
      rec.op = hdcs::dist::WalOp::kSubmitResult;
      rec.now = i;
      rec.arg = 1;
      rec.result.problem_id = 1;
      rec.result.unit_id = static_cast<hdcs::dist::UnitId>(i) + 1;
      rec.result.payload.resize(payload_bytes);
      for (auto& b : rec.result.payload) {
        b = static_cast<std::byte>(rng.next_u64());
      }
      hdcs::Stopwatch sw;
      log.append(rec);
      out.append_s += sw.seconds();
      sw.reset();
      log.sync();
      out.sync_s += sw.seconds();
    }
  }
  std::filesystem::remove_all(dir);
  out.append_s /= kWalProbeRecords;
  out.sync_s /= kWalProbeRecords;
  return out;
}

NetProbe probe_net(const std::vector<std::vector<std::byte>>& samples) {
  std::size_t bytes = 0;
  for (const auto& s : samples) bytes += s.size();
  // The callees live in other translation units, so no result needs to be
  // kept alive against the optimiser.
  NetProbe out;
  out.crc32_mb_s = rate_mb_s(bytes, [&] {
    for (const auto& s : samples) hdcs::net::crc32(s);
  });
  out.digest_mb_s = rate_mb_s(bytes, [&] {
    for (const auto& s : samples) hdcs::net::blob_digest(s);
  });
  std::vector<std::pair<std::vector<std::byte>, std::size_t>> compressed;
  std::size_t compressible = 0;
  out.lz_compress_mb_s = rate_mb_s(bytes, [&] {
    compressed.clear();
    for (const auto& s : samples) {
      if (auto c = hdcs::net::lz_compress(s)) {
        compressed.emplace_back(std::move(*c), s.size());
      }
    }
  });
  for (const auto& c : compressed) compressible += c.second;
  out.lz_decompress_mb_s = rate_mb_s(compressible, [&] {
    for (const auto& [c, raw] : compressed) {
      hdcs::net::lz_decompress(c, raw);
    }
  });
  out.encode_blob_mb_s = rate_mb_s(bytes, [&] {
    for (const auto& s : samples) hdcs::net::encode_blob_v4(s);
  });
  return out;
}

double probe_loglik(const std::vector<PhyloInput>& inputs) {
  if (inputs.empty()) return 0;
  struct Case {
    hdcs::phylo::LikelihoodEngine engine;
    hdcs::phylo::Tree tree;
  };
  std::vector<Case> cases;
  for (const auto& in : inputs) {
    auto spec = hdcs::phylo::ModelSpec::parse(
        in.model_spec, hdcs::Config::parse(in.model_params));
    cases.push_back({hdcs::phylo::LikelihoodEngine(
                         hdcs::phylo::compress(in.alignment), spec.model,
                         spec.rates),
                     hdcs::phylo::nj_tree(in.alignment)});
  }
  hdcs::Stopwatch sw;
  std::size_t evals = 0;
  do {
    for (auto& c : cases) {
      c.engine.log_likelihood(c.tree);
      ++evals;
    }
  } while (sw.seconds() < kProbeMinS);
  return static_cast<double>(evals) / sw.seconds();
}

}  // namespace perfbench
