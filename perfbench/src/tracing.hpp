#pragma once
// The traced run's instruments, all outside the program under test: an
// in-memory span recorder, plus forwarding wrappers around the two public
// application interfaces. The DataManager wrapper times the server-side
// callbacks (next_unit, accept_result, snapshot/restore); the Algorithm
// wrapper times the donor-side ones (initialize, process). Nothing here
// adds tracing inside src/.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"

namespace perfbench {

struct Span {
  const char* name = "";       // string literal
  double start = 0;            // seconds since the recorder was created
  double end = 0;
  std::int64_t job = -1;       // benchmark job index; -1 until resolved
  std::uint64_t problem = 0;   // scheduler problem id; 0 = not known here
  std::int64_t parent = -1;    // index of the enclosing span; -1 = root
  int kind = -1;               // DPRml process spans: the payload's UnitKind
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  /// Append a finished span; returns its index.
  std::size_t record(const Span& span);
  /// Attribute an already-recorded span to a problem (donor-side
  /// initialize() learns its problem only at the first process()).
  void set_problem(std::size_t index, std::uint64_t problem);
  /// Problem ids are assigned by the server; the benchmark maps them back
  /// to its job index once submit_problem returns.
  void map_problem(std::uint64_t problem, std::int64_t job);

  /// Every span with its job resolved and its parent set to the "job" span
  /// of that job.
  [[nodiscard]] std::vector<Span> finish() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_ and problem_job_
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::int64_t> problem_job_;
};

/// Counts the wrappers keep beside their spans.
struct AppTally {
  std::atomic<std::uint64_t> units{0};
  std::atomic<std::uint64_t> unit_bytes{0};    // payload + blob bytes issued
  std::atomic<std::uint64_t> result_bytes{0};  // result payload bytes merged

  std::mutex mu;  // guards the members below
  std::map<std::int64_t, double> first_unit;   // job -> first unit issued
  /// Blob and payload bytes seen by next_unit, kept (up to a cap) as the
  /// input of the data-plane probes.
  std::vector<std::vector<std::byte>> samples;
  std::size_t sample_bytes = 0;

  void sample(const std::vector<std::byte>& bytes);
};

/// Forwards every DataManager virtual, including snapshot/restore so WAL
/// compaction keeps working, and advertises "traced.<name>" so donors
/// build the matching TracedAlgorithm.
class TracedDataManager final : public hdcs::dist::DataManager {
 public:
  TracedDataManager(std::shared_ptr<hdcs::dist::DataManager> inner,
                    std::int64_t job, SpanRecorder& recorder, AppTally& tally)
      : inner_(std::move(inner)), job_(job), rec_(recorder), tally_(tally) {}

  [[nodiscard]] std::string algorithm_name() const override;
  [[nodiscard]] std::vector<std::byte> problem_data() const override {
    return inner_->problem_data();
  }
  std::optional<hdcs::dist::WorkUnit> next_unit(
      const hdcs::dist::SizeHint& hint) override;
  void accept_result(const hdcs::dist::ResultUnit& result) override;
  [[nodiscard]] bool is_complete() const override {
    return inner_->is_complete();
  }
  [[nodiscard]] std::vector<std::byte> final_result() const override {
    return inner_->final_result();
  }
  [[nodiscard]] double remaining_ops_estimate() const override {
    return inner_->remaining_ops_estimate();
  }
  [[nodiscard]] bool supports_snapshot() const override {
    return inner_->supports_snapshot();
  }
  void snapshot(hdcs::ByteWriter& w) const override;
  void restore(hdcs::ByteReader& r) override;

 private:
  std::shared_ptr<hdcs::dist::DataManager> inner_;
  std::int64_t job_;
  SpanRecorder& rec_;
  AppTally& tally_;
};

/// A registry holding every globally registered algorithm under its own
/// name (untraced jobs) and wrapped under "traced.<name>" (traced jobs).
std::unique_ptr<hdcs::dist::AlgorithmRegistry> make_traced_registry(
    SpanRecorder& recorder);

/// Per span name: how many, total seconds, and self seconds (duration minus
/// the part of it covered by child spans).
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans);

/// One JSON object per line.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
