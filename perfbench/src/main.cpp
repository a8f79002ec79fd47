// End-to-end job benchmark for hdcs (see ../BENCHMARK.md).
//
// One process runs the real dist::Server on loopback with its WAL on disk,
// attaches a persistent fleet of dist::Client donors, and runs one
// workload's jobs in a closed loop: the next job is submitted the moment
// the previous one completes. Every timed job is checked byte-for-byte
// against a serial reference. The last stdout line is one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   hdcs_e2e --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//            [--trace-out FILE] [--tiny] [--tamper-reference]

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "dboot/dboot.hpp"
#include "dist/local_runner.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "fleet.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "tracing.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// nproc - 1 on the 4-core reference host: one core stays with the server
// and the benchmark itself. Fixed, so every host runs the same fleet.
constexpr int kDonors = 3;
constexpr int kWarmupJobs = 1;      // per-donor rate EWMAs calibrate here
// setup_s is the median of kSetups fleet start-ups, half before the
// references and half after the timed loop, each half interleaved with the
// serial samples, so that no one stretch of host contention decides it.
constexpr int kSetups = 24;
// Wall time of one run outside the timed loop and the serial samples: the
// start-ups, input generation, the warm-up job and the build check.
constexpr double kOverheadS = 7;
// serial_s is the median of two halves of serial runs, one before the
// references and one after the timed loop, each of at least
// kSerialSamples / 2 jobs and kSerialMinS / 2 seconds.
constexpr std::size_t kSerialSamples = 4;
constexpr double kSerialMinS = 4;
constexpr int kMinJobs = 10;
constexpr double kJobTimeoutS = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  bool tiny = false;
  bool tamper = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw hdcs::InputError(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = std::stoi(value()) != 0;
    else if (flag == "--work-dir") a.work_dir = value();
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--tiny") a.tiny = true;
    else if (flag == "--tamper-reference") a.tamper = true;
    else throw hdcs::InputError("unknown argument " + flag);
  }
  if (a.workload.empty()) throw hdcs::InputError("--workload is required");
  if (a.work_dir.empty()) throw hdcs::InputError("--work-dir is required");
  if (a.seconds <= 0) throw hdcs::InputError("--seconds must be positive");
  return a;
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) {
    throw hdcs::IoError("statfs " + path + ": " + std::strerror(errno));
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw hdcs::IoError("no VmHWM in /proc/self/status");
}

/// Resets VmHWM to the current resident set, so that it covers only what
/// follows.
void reset_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  if (!(out << "5" << std::flush)) {
    throw hdcs::IoError("cannot reset VmHWM through /proc/self/clear_refs");
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The p-th percentile, interpolated linearly between the nearest samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (rank - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

using Bytes = std::vector<std::byte>;
using DataManagers = std::vector<std::shared_ptr<hdcs::dist::DataManager>>;

/// One completed (or timed-out) job of the closed loop.
struct JobRun {
  double makespan_s = 0;
  bool completed = false;
  std::vector<hdcs::dist::ProblemId> pids;
  std::vector<Bytes> results;
};

JobRun run_job(hdcs::dist::Server& server, const DataManagers& dms) {
  hdcs::dprml::EvalCache::global().clear();
  JobRun run;
  hdcs::Stopwatch sw;
  for (const auto& dm : dms) run.pids.push_back(server.submit_problem(dm));
  run.completed = true;
  for (auto pid : run.pids) {
    double left = std::max(0.0, kJobTimeoutS - sw.seconds());
    run.completed = server.wait_for_problem(pid, left) && run.completed;
  }
  run.makespan_s = sw.seconds();
  if (run.completed) {
    for (auto pid : run.pids) run.results.push_back(server.final_result(pid));
  }
  return run;
}

// ---- registry bracketing (traced run) ----

const char* const kCounters[] = {
    "align.cells_total", "align.batch_saturations", "wal.records",
    "wal.syncs",         "wal.bytes",               "wal.compactions",
    "net.frames_sent",   "net.bytes_sent",          "bulk.blobs_sent",
    "bulk.blobs_cache_hit", "bulk.bytes_raw",       "bulk.bytes_wire"};
const char* const kHandlers[] = {"Hello",           "RequestWork",
                                 "SubmitResult",    "Heartbeat",
                                 "FetchProblemData", "FetchBlobs"};
const char* const kDonorPhases[] = {"queue_wait", "blob_fetch", "decompress",
                                    "compute",    "encode",     "submit"};

struct HistDelta {
  double count = 0;
  double sum = 0;
  [[nodiscard]] double mean() const { return count > 0 ? sum / count : 0; }
};

struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistDelta> hists;
  // Set per server, so read while the traced fleet is still the last one.
  double wal_base_bytes = 0;
  double write_queue_hwm = 0;
  hdcs::dist::SchedulerStats stats;
};

std::vector<std::string> histogram_names() {
  std::vector<std::string> names = {"net.loop.lag_s"};
  for (const char* h : kHandlers) names.push_back(std::string("server.handle_s.") + h);
  for (const char* p : kDonorPhases) names.push_back(std::string("unit.") + p + "_s");
  return names;
}

RegistrySnapshot take_snapshot(hdcs::dist::Server& server) {
  auto& reg = hdcs::obs::Registry::global();
  RegistrySnapshot s;
  for (const char* c : kCounters) s.counters[c] = reg.counter(c).value();
  for (const auto& h : histogram_names()) {
    // Means come from sum/count: latency_bounds() starts at 100 us, so
    // interpolated quantiles of sub-millisecond handlers say nothing.
    auto snap = reg.histogram(h).snapshot();
    s.hists[h] = {static_cast<double>(snap.count), snap.sum};
  }
  s.wal_base_bytes = reg.gauge("wal.base_bytes").value();
  s.write_queue_hwm = reg.gauge("net.loop.write_queue_hwm").value();
  s.stats = server.stats();
  return s;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Args& a) {
  const Workload& w = find_workload(a.workload);
  std::filesystem::create_directories(a.work_dir);
  const std::string fs = filesystem_type(a.work_dir);
  const hdcs::dist::ServerConfig defaults;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("env: workload=%s seed=%llu simd=%s nproc=%u donors=%d "
              "no_work_retry_s=%g build=%s wal_fs=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              hdcs::to_string(hdcs::simd_tier()), nproc, kDonors,
              defaults.no_work_retry_s, HDCS_E2E_BUILD_TYPE, fs.c_str());
  if (fs == "tmpfs" || fs == "ramfs") {
    // fsync is free there: dboot_tiny would measure a different program.
    std::fprintf(stderr, "refusing to run: WAL directory %s is on %s\n",
                 a.work_dir.c_str(), fs.c_str());
    return 3;
  }
  hdcs::dsearch::register_algorithm();
  hdcs::dprml::register_algorithm();
  hdcs::dboot::register_algorithm();

  // The job count fits the whole run into --seconds on the reference host:
  // the fixed overhead and the serial samples, then per timed job its
  // makespan plus its share of the references, which run nproc at a time
  // and slow each other. It depends on nothing measured, so a seed always
  // runs the same jobs and the per-job counts repeat exactly. A traced run
  // splits the jobs between its untraced and its traced loop.
  const double serial_half_s =
      std::max(kSerialMinS, static_cast<double>(kSerialSamples) * w.nominal_serial_s) / 2;
  const double per_job_s = w.nominal_job_s + w.nominal_serial_s / 3;
  int n = a.tiny ? 3
                 : std::max(kMinJobs, static_cast<int>((a.seconds - kOverheadS -
                                                        2 * serial_half_s) /
                                                       per_job_s));
  if (a.trace && !a.tiny) n = std::max(kMinJobs / 2, n / 2);
  // Job 0 is the warm-up; 1..n are timed; n+1..2n are the traced run's.
  const std::size_t total = kWarmupJobs + static_cast<std::size_t>(n) * (a.trace ? 2 : 1);
  const std::size_t timed = total - kWarmupJobs;

  // Inputs, the fleet and the references all come before the timed loop,
  // so the gap between timed jobs holds no benchmark work.
  hdcs::Stopwatch prep;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < total; ++i) jobs.push_back(w.make_job(a.seed, i, a.tiny));
  SpanRecorder rec;
  AppTally tally;
  std::unique_ptr<hdcs::dist::AlgorithmRegistry> registry;
  if (a.trace) registry = make_traced_registry(rec);

  // setup_s: server construction to every donor joined and idle (WAL open,
  // start(), Hello, benchmark probe), each fleet with a fresh WAL.
  hdcs::dist::ServerConfig scfg;
  scfg.policy_spec = w.policy_spec;
  scfg.scheduler.bounds.min_ops = w.min_ops;
  std::vector<double> setups;
  auto new_fleet = [&] {
    scfg.wal_dir = a.work_dir + "/wal-" + std::to_string(setups.size());
    std::filesystem::remove_all(scfg.wal_dir);
    hdcs::Stopwatch sw;
    auto fleet = std::make_unique<Fleet>(scfg, kDonors, registry.get());
    setups.push_back(sw.seconds());
    return fleet;
  };

  // Every reference is a single-thread run_locally. The first jobs'
  // references run alone and time the paper's T(1). The rest run nproc at
  // a time, one problem per thread; co-running threads slow each other by
  // 10-15 %, too much to time them. On a shared virtual host single-thread
  // speed drifts for seconds at a time, so the second half of the serial
  // samples re-runs later jobs after the timed loop.
  std::vector<std::vector<Bytes>> refs(total);
  std::vector<double> serial;
  auto time_serial = [&](const Job& job) {
    auto made = job.make();
    hdcs::dprml::EvalCache::global().clear();
    std::vector<Bytes> out;
    hdcs::Stopwatch sw;
    for (const auto& dm : made) out.push_back(hdcs::dist::run_locally(*dm, w.serial_unit_ops));
    serial.push_back(sw.seconds());
    return out;
  };
  std::unique_ptr<Fleet> fleet;
  // Each half alternates fleet start-ups with serial samples until it has
  // enough of both. Before the references, the last fleet stays up and runs
  // the jobs. A fleet's teardown waits out its donors' no-work sleep, so it
  // runs alongside the next serial sample, which it barely loads.
  auto interleave = [&](std::size_t setups_goal, const std::function<bool()>& more_serial,
                        const std::function<void()>& sample) {
    while (setups.size() < setups_goal || more_serial()) {
      std::future<void> retired;
      if (fleet && setups.size() < setups_goal) {
        retired = std::async(std::launch::async,
                             [old = std::move(fleet)]() mutable { old.reset(); });
      }
      if (more_serial()) sample();
      if (retired.valid()) retired.get();
      if (setups.size() < setups_goal) fleet = new_fleet();
    }
  };
  auto enough = [](std::size_t count, double seconds) {
    return count >= kSerialSamples / 2 && seconds >= kSerialMinS / 2;
  };
  std::size_t next = kWarmupJobs;  // the first half's runs are also references
  double first_half_s = 0;
  interleave(
      kSetups / 2, [&] { return next < total && !enough(next - kWarmupJobs, first_half_s); },
      [&] {
        refs[next] = time_serial(jobs[next]);
        first_half_s += serial.back();
        ++next;
      });
  hdcs::dist::Server& server = fleet->server();
  {
    std::vector<DataManagers> made;
    for (std::size_t j = next; j < total; ++j) {
      made.push_back(jobs[j].make());
      refs[j].resize(made.back().size());
    }
    hdcs::ThreadPool pool(nproc);
    std::vector<std::future<void>> done;
    for (std::size_t j = next; j < total; ++j) {
      for (std::size_t p = 0; p < refs[j].size(); ++p) {
        done.push_back(pool.submit_with_result(
            [&refs, &w, j, p, dm = made[j - next][p]] {
              refs[j][p] = hdcs::dist::run_locally(*dm, w.serial_unit_ops);
            }));
      }
    }
    for (auto& f : done) f.get();
  }
  hdcs::dprml::EvalCache::global().clear();
  if (a.tamper) {
    Bytes& r = refs[kWarmupJobs].front();
    if (r.empty()) r.push_back(std::byte{0});
    r.back() ^= std::byte{0x01};
  }
  std::vector<DataManagers> dms(total);
  for (std::size_t i = 0; i < total; ++i) dms[i] = jobs[i].make();
  // From here on the DataManagers hold the only copy of the inputs. Jobs
  // needed again later are generated anew from the seed.
  jobs.clear();
  malloc_trim(0);
  std::printf("prepared %zu jobs and their serial references in %.2f s\n",
              total, prep.seconds());

  // rss_peak_mib covers the warm-up and the timed loop: the fleet, the jobs
  // in flight and the DataManagers of the jobs still to run.
  reset_hwm();
  for (int i = 0; i < kWarmupJobs; ++i) run_job(server, dms[static_cast<std::size_t>(i)]);

  // ---- timed, untraced closed loop ----
  std::vector<JobRun> runs(total);
  std::vector<double> makespans;
  const auto stats0 = server.stats();
  const double cpu0 = cpu_seconds();
  for (int i = 0; i < n; ++i) {
    std::size_t j = kWarmupJobs + static_cast<std::size_t>(i);
    runs[j] = run_job(server, dms[j]);
    makespans.push_back(runs[j].makespan_s);
  }
  const double cpu_per_job = (cpu_seconds() - cpu0) / n;
  const auto stats1 = server.stats();
  const double rss_peak = vm_hwm_mib();

  // ---- traced closed loop ----
  std::vector<double> traced_makespans;
  std::vector<double> job_t0(total, 0);
  RegistrySnapshot before, after;
  if (a.trace) {
    for (int i = 0; i < n; ++i) {
      std::size_t j = kWarmupJobs + static_cast<std::size_t>(n + i);
      auto jid = static_cast<std::int64_t>(j);
      for (auto& dm : dms[j]) {
        dm = std::make_shared<TracedDataManager>(dm, jid, rec, tally);
      }
    }
    before = take_snapshot(server);
    for (int i = 0; i < n; ++i) {
      std::size_t j = kWarmupJobs + static_cast<std::size_t>(n + i);
      auto jid = static_cast<std::int64_t>(j);
      job_t0[j] = rec.now();
      runs[j] = run_job(server, dms[j]);
      Span s{"job", job_t0[j], job_t0[j] + runs[j].makespan_s};
      s.job = jid;
      rec.record(s);
      for (auto pid : runs[j].pids) rec.map_problem(pid, jid);
      traced_makespans.push_back(runs[j].makespan_s);
    }
    after = take_snapshot(server);
  }
  const bool donor_failed = fleet->donor_failed();
  {
    // The second half re-runs jobs from `next` on, wrapping round, so a
    // workload of short jobs still gets as long a half as the first.
    std::size_t resampled = 0;
    double second_half_s = 0;
    interleave(
        kSetups,
        [&] { return !enough(resampled, second_half_s) && resampled < 8 * timed; },
        [&] {
          const std::size_t j = kWarmupJobs + (next - kWarmupJobs + resampled) % timed;
          time_serial(w.make_job(a.seed, j, a.tiny));
          second_half_s += serial.back();
          ++resampled;
        });
    fleet.reset();
  }

  // ---- correctness gate ----
  std::size_t attempted = 0, failed = 0, mismatched = 0;
  for (std::size_t j = kWarmupJobs; j < total; ++j) {
    attempted += 1;
    if (!runs[j].completed) {
      failed += 1;
    } else if (runs[j].results != refs[j]) {
      failed += 1;
      mismatched += 1;
      std::printf("MISMATCH: job %zu differs from its serial reference\n", j);
    }
  }
  const double error_rate = static_cast<double>(failed) / attempted;
  const bool correct = failed == 0 && !donor_failed;

  const double tail = percentile(makespans, 90);
  const auto above = std::count_if(makespans.begin(), makespans.end(),
                                   [&](double m) { return m > tail; });
  const double units_per_job =
      static_cast<double>(stats1.units_issued - stats0.units_issued) / n;
  std::printf("jobs: %d timed (closed loop, %d donors), %d warm-up excluded, "
              "%zu failed (%zu mismatched)\n",
              n, kDonors, kWarmupJobs, failed, mismatched);
  std::printf("makespan_tail_s is p90 over %d jobs, %td of them above it\n", n, above);
  auto range = [](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::printf("samples: %s %zu, min %.4g median %.4g max %.4g\n", name, v.size(),
                v.front(), median(v), v.back());
  };
  range("setup_s", setups);
  range("serial_s", serial);
  std::printf("diagnostics: speedup %.3f (serial_s / makespan_s), %.1f units "
              "per job, %.1f units/s\n",
              median(serial) / median(makespans), units_per_job,
              units_per_job / median(makespans));

  const std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s"},
      {"makespan_s", median(makespans), "s"},
      {"makespan_tail_s", tail, "s"},
      {"serial_s", median(serial), "s"},
      {"cpu_per_job_s", cpu_per_job, "s"},
      {"rss_peak_mib", rss_peak, "MiB"},
  };
  print_table("end-to-end:", e2e);
  std::printf("  %-36s %16.6g %s\n", "error_rate", error_rate, "ratio");

  if (!a.trace) {
    std::filesystem::remove_all(a.work_dir);
    std::printf("%s\n", json_line(correct, attempted, failed, e2e).c_str());
    return correct ? 0 : 1;
  }

  // ---- per-layer table (traced run, per job) ----
  const double jn = n;
  const auto spans = rec.finish();
  const auto totals = summarize(spans);
  auto span_s = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  double eval_s = 0, refine_s = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != "app.process" || s.kind < 0) continue;
    auto kind = static_cast<hdcs::dprml::UnitKind>(s.kind);
    bool refine = kind == hdcs::dprml::UnitKind::kInit ||
                  kind == hdcs::dprml::UnitKind::kRefine;
    (refine ? refine_s : eval_s) += s.end - s.start;
  }
  auto dc = [&](const char* c) {
    return static_cast<double>(after.counters[c] - before.counters[c]);
  };
  auto dh = [&](const std::string& h) {
    return HistDelta{after.hists[h].count - before.hists[h].count,
                     after.hists[h].sum - before.hists[h].sum};
  };
  const auto& s0 = before.stats;
  const auto& s1 = after.stats;
  std::vector<double> job_start;
  {
    std::lock_guard lock(tally.mu);
    for (const auto& [job, t] : tally.first_unit) job_start.push_back(t - job_t0[job]);
  }
  const double process_s = span_s("app.process");
  const double cells = dc("align.cells_total");
  const double units = static_cast<double>(tally.units.load());

  std::vector<Metric> layer;
  layer.push_back({"bio.cells", cells / jn, "count"});
  layer.push_back({"bio.gcups", cells > 0 ? cells / process_s / 1e9 : 0, "GCUPS"});
  layer.push_back({"bio.saturation_reruns", dc("align.batch_saturations") / jn, "count"});
  layer.push_back({"phylo.eval_s", eval_s / jn, "s"});
  layer.push_back({"phylo.refine_s", refine_s / jn, "s"});
  const Job probe_job = w.make_job(a.seed, kWarmupJobs + static_cast<std::size_t>(n), a.tiny);
  layer.push_back({"phylo.loglik_per_s", probe_loglik(probe_job.alignments), "1/s"});
  layer.push_back({"app.units", units / jn, "count"});
  layer.push_back({"app.next_unit_s", span_s("app.next_unit") / jn, "s"});
  layer.push_back({"app.accept_result_s", span_s("app.accept_result") / jn, "s"});
  layer.push_back({"app.initialize_s", span_s("app.initialize") / jn, "s"});
  layer.push_back({"app.process_s", process_s / jn, "s"});
  layer.push_back({"app.unit_bytes", tally.unit_bytes.load() / jn, "B"});
  layer.push_back({"app.result_bytes", tally.result_bytes.load() / jn, "B"});
  layer.push_back({"app.job_start_s", median(job_start), "s"});
  double handled = 0;
  for (const char* h : kHandlers) {
    auto d = dh(std::string("server.handle_s.") + h);
    handled += d.sum;
    std::string name = h;
    if (name == "RequestWork" || name == "SubmitResult" || name == "FetchBlobs") {
      layer.push_back({"server.handle_s." + name + ".count", d.count / jn, "count"});
      layer.push_back({"server.handle_s." + name + ".mean", d.mean(), "s"});
    }
  }
  layer.push_back({"server.self_s",
                   (handled - span_s("app.next_unit") - span_s("app.accept_result")) / jn,
                   "s"});
  const auto replay = replay_scheduler(w, probe_job, kDonors);
  layer.push_back({"scheduler.request_work_s", replay.request_work_s, "s"});
  layer.push_back({"scheduler.submit_result_s", replay.submit_result_s, "s"});
  const double issued = static_cast<double>(s1.units_issued - s0.units_issued);
  const double unserved =
      static_cast<double>(s1.work_requests_unserved - s0.work_requests_unserved);
  layer.push_back({"scheduler.units_issued", issued / jn, "count"});
  layer.push_back({"scheduler.units_reissued",
                   static_cast<double>(s1.units_reissued - s0.units_reissued) / jn, "count"});
  layer.push_back({"scheduler.unserved_requests", unserved / jn, "count"});
  layer.push_back({"scheduler.useful_ratio",
                   issued > 0 ? static_cast<double>(s1.results_accepted - s0.results_accepted) / issued
                              : 0,
                   "ratio"});
  layer.push_back({"wal.records", dc("wal.records") / jn, "count"});
  layer.push_back({"wal.syncs", dc("wal.syncs") / jn, "count"});
  layer.push_back({"wal.bytes", dc("wal.bytes") / jn, "B"});
  layer.push_back({"wal.compactions", dc("wal.compactions") / jn, "count"});
  layer.push_back({"wal.base_bytes", after.wal_base_bytes, "B"});
  const auto wal = probe_wal(a.work_dir + "/wal-probe",
                             units > 0 ? static_cast<std::size_t>(tally.result_bytes.load() / units) : 0);
  layer.push_back({"wal.append_s", wal.append_s, "s"});
  layer.push_back({"wal.sync_s", wal.sync_s, "s"});
  for (const char* p : kDonorPhases) {
    layer.push_back({std::string("donor.") + p + "_s",
                     dh(std::string("unit.") + p + "_s").sum / jn, "s"});
  }
  double traced_total = 0;
  for (double m : traced_makespans) traced_total += m;
  layer.push_back({"donor.idle_s", unserved * defaults.no_work_retry_s / jn, "s"});
  layer.push_back({"donor.busy_share",
                   dh("unit.compute_s").sum / (kDonors * traced_total), "ratio"});
  layer.push_back({"net.frames", dc("net.frames_sent") / jn, "count"});
  layer.push_back({"net.bytes", dc("net.bytes_sent") / jn, "B"});
  const double hits = dc("bulk.blobs_cache_hit"), sent = dc("bulk.blobs_sent");
  layer.push_back({"bulk.blobs_sent", sent / jn, "count"});
  layer.push_back({"bulk.blobs_cache_hit", hits / jn, "count"});
  layer.push_back({"bulk.bytes_raw", dc("bulk.bytes_raw") / jn, "B"});
  layer.push_back({"bulk.bytes_wire", dc("bulk.bytes_wire") / jn, "B"});
  layer.push_back({"bulk.cache_hit_ratio", hits + sent > 0 ? hits / (hits + sent) : 0, "ratio"});
  layer.push_back({"net.loop.lag_s.mean", dh("net.loop.lag_s").mean(), "s"});
  layer.push_back({"net.loop.write_queue_hwm", after.write_queue_hwm, "B"});
  std::vector<std::vector<std::byte>> samples;
  {
    std::lock_guard lock(tally.mu);
    samples = tally.samples;
  }
  const auto net = probe_net(samples);
  layer.push_back({"net.crc32_mb_s", net.crc32_mb_s, "MB/s"});
  layer.push_back({"net.digest_mb_s", net.digest_mb_s, "MB/s"});
  layer.push_back({"net.lz_compress_mb_s", net.lz_compress_mb_s, "MB/s"});
  layer.push_back({"net.lz_decompress_mb_s", net.lz_decompress_mb_s, "MB/s"});
  layer.push_back({"net.encode_blob_mb_s", net.encode_blob_mb_s, "MB/s"});
  layer.push_back({"obs.trace_overhead",
                   median(traced_makespans) / median(makespans) - 1, "ratio"});
  layer.push_back({"error_rate", error_rate, "ratio"});

  std::printf("spans (all traced jobs): name count total_s self_s\n");
  for (const auto& [name, t] : totals) {
    std::printf("  %-20s %8zu %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                t.self_s);
  }
  if (!a.trace_out.empty()) {
    write_spans(a.trace_out, spans);
    std::printf("spans written to %s\n", a.trace_out.c_str());
  }
  print_table("per-layer (traced run, per job):", layer);
  std::filesystem::remove_all(a.work_dir);
  std::printf("%s\n", json_line(correct, attempted, failed, layer).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdcs_e2e: %s\n", e.what());
    return 2;
  }
}
