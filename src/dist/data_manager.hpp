#pragma once
// The server-side half of a Problem.
//
// "The DataManager class (in the server) specifies how the problem is to be
// partitioned into units of work and the intermediate results put together,
// facilitating the computation of more generalisable problems, rather than
// being limited to trivially parallelisable problems" (paper §2.1).
//
// The scheduler *pulls* units from the DataManager one at a time, passing a
// SizeHint with the cost the requesting client can absorb in one target
// interval — this is how DSEARCH's dynamically-sized database chunks are
// realised. Staged computations (DPRml) return nullopt from next_unit()
// while a stage barrier is outstanding; the scheduler then tries other
// concurrently running problems, which is exactly why the paper runs six
// DPRml instances simultaneously (Fig. 2).

#include <optional>
#include <string>
#include <vector>

#include "dist/work.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace hdcs::dist {

/// Scheduler's request for "about this much work" (abstract ops).
struct SizeHint {
  double target_ops = 1e6;
};

class DataManager {
 public:
  virtual ~DataManager() = default;

  /// Name of the client-side Algorithm (looked up in the AlgorithmRegistry)
  /// that processes this problem's units.
  [[nodiscard]] virtual std::string algorithm_name() const = 0;

  /// Bulk input data shipped once to each participating client
  /// (e.g. the FASTA database, the multiple sequence alignment).
  [[nodiscard]] virtual std::vector<std::byte> problem_data() const = 0;

  /// Produce the next unit, sized close to hint.target_ops where the
  /// problem permits. Must fill `stage`, `cost_ops` and `payload`;
  /// `problem_id`/`unit_id` are assigned by the scheduler.
  ///
  /// Returns nullopt when no unit can be produced *right now*. If
  /// is_complete() is also false, the problem is waiting on outstanding
  /// results (stage barrier) and the scheduler will come back after more
  /// results arrive.
  virtual std::optional<WorkUnit> next_unit(const SizeHint& hint) = 0;

  /// Merge one result. Called exactly once per completed unit, in
  /// completion order (not issue order).
  virtual void accept_result(const ResultUnit& result) = 0;

  /// True once every unit has been generated and every result merged.
  [[nodiscard]] virtual bool is_complete() const = 0;

  /// The merged final answer; only valid once is_complete().
  [[nodiscard]] virtual std::vector<std::byte> final_result() const = 0;

  /// Rough total remaining ops (generated + not yet generated). Used by
  /// size policies like guided self-scheduling; return 0 if unknown.
  [[nodiscard]] virtual double remaining_ops_estimate() const { return 0; }

  // ---- optional persistence (WAL base snapshot, standby sync) ----
  //
  // A long-lived server keeps problem progress on disk (the WAL's base
  // snapshot, SchedulerCore::snapshot_exact) so a restart does not lose
  // days of donated cycles. A DataManager that opts in serializes its
  // *mutable* state only; the immutable inputs are supplied again at
  // reconstruction time. In-flight units are preserved by the scheduler
  // itself (it keeps their payloads) and re-delivered after the restart,
  // so implementations must persist whatever book-keeping counts those
  // units as outstanding.

  [[nodiscard]] virtual bool supports_snapshot() const { return false; }
  virtual void snapshot(ByteWriter& /*w*/) const {
    throw Error("DataManager does not support snapshots");
  }
  virtual void restore(ByteReader& /*r*/) {
    throw Error("DataManager does not support snapshots");
  }
};

}  // namespace hdcs::dist
