#pragma once
// Work and result units — the currency of the distributed system.
//
// A DataManager partitions a Problem into WorkUnits; an Algorithm turns a
// WorkUnit into a ResultUnit; the DataManager merges ResultUnits back into
// the final answer (paper §2.1). Payloads are opaque application bytes.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/blob_cache.hpp"
#include "obs/span_profile.hpp"

namespace hdcs::dist {

using ProblemId = std::uint64_t;
using UnitId = std::uint64_t;
using ClientId = std::uint64_t;

/// An immutable bulk input addressed by content digest. A
/// DataManager attaches blobs to units it emits, with bytes populated; the
/// scheduler interns the bytes into its content-addressed store and ships
/// units carrying only {digest, size} references — donors resolve them
/// through their local BlobCache, fetching misses with FetchBlobs.
struct WorkBlob {
  std::uint64_t digest = 0;  // net::blob_digest over the content
  std::uint64_t size = 0;    // raw (uncompressed) byte count
  /// Content. Empty in a reference-only unit (on the wire, or stored in
  /// the scheduler once interned).
  std::vector<std::byte> bytes;
};

/// Wrap bytes as a blob with its digest/size filled in.
inline WorkBlob make_work_blob(std::vector<std::byte> bytes) {
  WorkBlob blob;
  blob.digest = net::blob_digest(bytes);
  blob.size = bytes.size();
  blob.bytes = std::move(bytes);
  return blob;
}

struct WorkUnit {
  ProblemId problem_id = 0;  // assigned by the scheduler
  UnitId unit_id = 0;        // assigned by the scheduler, unique per problem run
  std::uint32_t stage = 0;   // stage index for staged computations (DPRml)
  /// Estimated abstract cost ("ops") of this unit. Filled by the
  /// DataManager; used for granularity adaptation and by the simulator's
  /// machine cost model. Must be > 0.
  double cost_ops = 0;
  std::vector<std::byte> payload;
  /// Content-addressed bulk inputs shared across units (database chunks,
  /// stage trees). Algorithms see them with bytes materialized.
  std::vector<WorkBlob> blobs;
  /// Server term that issued this lease. WAL recovery and standby
  /// promotion bump the epoch, so results computed against a dead or
  /// deposed incarnation's leases are fenced and rejected, even where the
  /// new term reuses their unit ids. Every unit SchedulerCore issues
  /// carries its term (>= 1).
  std::uint64_t epoch = 0;
};

struct ResultUnit {
  ProblemId problem_id = 0;
  UnitId unit_id = 0;
  std::uint32_t stage = 0;
  std::vector<std::byte> payload;
  /// CRC-32 digest of `payload`, computed by the donor that produced it
  /// and re-verified server-side. 0 = not supplied; the scheduler then
  /// computes the digest itself for replication voting.
  std::uint32_t payload_crc = 0;
  /// Donor-measured phase durations (the SubmitResult span-profile
  /// trailer). The scheduler merges it with its lease timeline into the
  /// `unit_profile` trace event when present.
  std::optional<obs::UnitProfile> profile;
  /// Epoch echoed back from the WorkUnit this result answers. The
  /// scheduler rejects any result whose epoch is not its current term —
  /// fencing a deposed primary's late submissions; an unstamped 0 is
  /// rejected too.
  std::uint64_t epoch = 0;
};

}  // namespace hdcs::dist
