#pragma once
// Per-unit distributed span profiles.
//
// A donor times each phase of a work unit's life — queue wait, blob fetch,
// decompression, compute, result encoding — and ships the durations back to
// the server piggybacked on the result (the SubmitResult trailer). Durations
// only: donor and server clocks are never compared, so no cross-machine
// clock sync is needed. The scheduler merges the donor's spans with its own
// lease timeline (issue -> submit on the server clock) into one
// `unit_profile` trace event; whatever part of the lease the donor did not
// account for is attributed to the submit leg (result transfer + server
// handling). See docs/OBSERVABILITY.md for the event schema.

#include <cstdint>

#include "util/stopwatch.hpp"

namespace hdcs::obs {

/// Donor-side phase durations for one work unit. All spans are seconds on
/// the donor's monotonic clock. A default-constructed profile (all zeros)
/// means "not measured".
struct UnitProfile {
  double queue_wait_s = 0;  // RequestWork sent -> assignment decoded
  double blob_fetch_s = 0;  // problem data + blob resolution (network + cache)
  double decompress_s = 0;  // LZ decompression inside blob receives
  double compute_s = 0;     // Algorithm::process (incl. throttle padding)
  double encode_s = 0;      // result digest + payload finalization
  std::uint32_t threads = 1;       // exec threads inside the unit
  std::uint64_t saturations = 0;   // int16 lanes re-run through int64

  /// Sum of the measured donor-side spans.
  [[nodiscard]] double total_s() const {
    return queue_wait_s + blob_fetch_s + decompress_s + compute_s + encode_s;
  }
};

/// Accumulating scope timer: adds elapsed wall seconds to a target double
/// when stopped (or destroyed). One phase is often split across several
/// code regions — e.g. compute across process() and a throttled donor's
/// padding — so the timer *adds* rather than assigns, and one target can be
/// fed by many timers.
class SpanTimer {
 public:
  explicit SpanTimer(double& target) : target_(&target) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { stop(); }

  /// Add the elapsed span to the target now; further calls are no-ops.
  void stop() {
    if (target_ == nullptr) return;
    *target_ += watch_.seconds();
    target_ = nullptr;
  }

  /// Abandon the span without recording it.
  void cancel() { target_ = nullptr; }

 private:
  double* target_;
  Stopwatch watch_;
};

}  // namespace hdcs::obs
