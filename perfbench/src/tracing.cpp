#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "dprml/dprml.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

// Enough bytes for the data-plane probes to time steady-state rates.
constexpr std::size_t kSampleCap = 16u << 20;

constexpr const char* kTracedPrefix = "traced.";

class TracedAlgorithm final : public hdcs::dist::Algorithm {
 public:
  TracedAlgorithm(std::unique_ptr<hdcs::dist::Algorithm> inner,
                  SpanRecorder& recorder, bool dprml)
      : inner_(std::move(inner)), rec_(recorder), dprml_(dprml) {}

  void initialize(std::span<const std::byte> problem_data) override {
    double t0 = rec_.now();
    inner_->initialize(problem_data);
    init_span_ = rec_.record({"app.initialize", t0, rec_.now()});
    has_init_span_ = true;
  }

  std::vector<std::byte> process(const hdcs::dist::WorkUnit& unit) override {
    if (has_init_span_) {
      rec_.set_problem(init_span_, unit.problem_id);
      has_init_span_ = false;
    }
    double t0 = rec_.now();
    auto out = inner_->process(unit);
    Span s{"app.process", t0, rec_.now()};
    s.problem = unit.problem_id;
    if (dprml_ && !unit.payload.empty()) {
      s.kind = static_cast<int>(unit.payload.front());
    }
    rec_.record(s);
    return out;
  }

  void set_parallelism(std::size_t threads) override {
    inner_->set_parallelism(threads);
  }

 private:
  std::unique_ptr<hdcs::dist::Algorithm> inner_;
  SpanRecorder& rec_;
  bool dprml_;
  std::size_t init_span_ = 0;
  bool has_init_span_ = false;
};

std::size_t unit_bytes(const hdcs::dist::WorkUnit& unit) {
  std::size_t n = unit.payload.size();
  for (const auto& b : unit.blobs) n += b.bytes.size();
  return n;
}

}  // namespace

std::size_t SpanRecorder::record(const Span& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanRecorder::set_problem(std::size_t index, std::uint64_t problem) {
  std::lock_guard lock(mu_);
  spans_.at(index).problem = problem;
}

void SpanRecorder::map_problem(std::uint64_t problem, std::int64_t job) {
  std::lock_guard lock(mu_);
  problem_job_[problem] = job;
}

std::vector<Span> SpanRecorder::finish() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out = spans_;
  std::map<std::int64_t, std::int64_t> job_span;
  for (std::size_t i = 0; i < out.size(); ++i) {
    auto& s = out[i];
    if (s.job < 0 && s.problem != 0) {
      auto it = problem_job_.find(s.problem);
      if (it != problem_job_.end()) s.job = it->second;
    }
    if (std::string_view(s.name) == "job") {
      job_span[s.job] = static_cast<std::int64_t>(i);
    }
  }
  for (auto& s : out) {
    if (std::string_view(s.name) == "job") continue;
    auto it = job_span.find(s.job);
    if (it != job_span.end()) s.parent = it->second;
  }
  return out;
}

void AppTally::sample(const std::vector<std::byte>& bytes) {
  if (bytes.empty()) return;
  std::lock_guard lock(mu);
  if (sample_bytes >= kSampleCap) return;
  sample_bytes += bytes.size();
  samples.push_back(bytes);
}

std::string TracedDataManager::algorithm_name() const {
  return kTracedPrefix + inner_->algorithm_name();
}

std::optional<hdcs::dist::WorkUnit> TracedDataManager::next_unit(
    const hdcs::dist::SizeHint& hint) {
  double t0 = rec_.now();
  auto unit = inner_->next_unit(hint);
  double t1 = rec_.now();
  Span s{"app.next_unit", t0, t1};
  s.job = job_;
  rec_.record(s);
  if (unit) {
    tally_.units.fetch_add(1);
    tally_.unit_bytes.fetch_add(unit_bytes(*unit));
    tally_.sample(unit->payload);
    for (const auto& b : unit->blobs) tally_.sample(b.bytes);
    std::lock_guard lock(tally_.mu);
    tally_.first_unit.emplace(job_, t1);  // keeps the earliest
  }
  return unit;
}

void TracedDataManager::accept_result(const hdcs::dist::ResultUnit& result) {
  double t0 = rec_.now();
  inner_->accept_result(result);
  Span s{"app.accept_result", t0, rec_.now()};
  s.job = job_;
  rec_.record(s);
  tally_.result_bytes.fetch_add(result.payload.size());
}

void TracedDataManager::snapshot(hdcs::ByteWriter& w) const {
  double t0 = rec_.now();
  inner_->snapshot(w);
  Span s{"app.snapshot", t0, rec_.now()};
  s.job = job_;
  rec_.record(s);
}

void TracedDataManager::restore(hdcs::ByteReader& r) {
  double t0 = rec_.now();
  inner_->restore(r);
  Span s{"app.restore", t0, rec_.now()};
  s.job = job_;
  rec_.record(s);
}

std::unique_ptr<hdcs::dist::AlgorithmRegistry> make_traced_registry(
    SpanRecorder& recorder) {
  auto registry = std::make_unique<hdcs::dist::AlgorithmRegistry>();
  const auto* global = &hdcs::dist::AlgorithmRegistry::global();
  SpanRecorder* rec = &recorder;
  for (const auto& name : global->names()) {
    registry->register_algorithm(name,
                                 [name, global] { return global->create(name); });
    bool dprml = name == hdcs::dprml::kAlgorithmName;
    registry->register_algorithm(kTracedPrefix + name, [name, global, rec, dprml] {
      return std::make_unique<TracedAlgorithm>(global->create(name), *rec, dprml);
    });
  }
  return registry;
}

std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span: donors run
    // in parallel, so children of one job overlap.
    std::vector<std::pair<double, double>> cover;
    for (std::size_t c : children[i]) {
      double a = std::max(s.start, spans[c].start);
      double b = std::min(s.end, spans[c].end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start;
    for (auto [a, b] : cover) {
      a = std::max(a, reach);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    auto& t = out[s.name];
    t.count += 1;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw hdcs::IoError("cannot write span file " + path);
  char line[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"job\":%lld,\"problem\":%llu,\"kind\":%d}\n",
                  i, s.name, s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<long long>(s.job),
                  static_cast<unsigned long long>(s.problem), s.kind);
    out << line;
  }
  if (!out.flush()) throw hdcs::IoError("cannot write span file " + path);
}

}  // namespace perfbench
