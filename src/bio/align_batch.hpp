#pragma once
// High-throughput batch alignment kernels — DSEARCH's hot path.
//
// The scalar kernels in bio/align.hpp score one (query, subject) pair at a
// time, call ScoringScheme::score() per DP cell and allocate fresh rows per
// pair. This layer restructures that work for throughput (docs/KERNELS.md):
//
//   1. Sequences are encoded once into the scheme's packed alphabet and the
//      query becomes a *score profile*: the encoded query plus one small
//      code-major row of substitution scores per query residue code, so the
//      inner loop never calls score() and never gathers per lane.
//   2. SW, NW and semi-global all run in lane-parallel int16 kernels:
//      kBatchLanes (32) database sequences advance in lockstep, one DP
//      column per step, packed in length-sorted order so the lanes of a
//      batch finish together. Each cell's 32-lane substitution vector is
//      one vpermw on AVX-512 and one load from a per-column table on the
//      other tiers. The kernels live behind the runtime SIMD dispatch
//      (util/simd.hpp): AVX-512 and AVX2 intrinsics tiers, a portable
//      fixed-width lane tier, and a scalar tier that skips the lanes.
//   3. int16 saturation is detected per lane — SW by its clamped running
//      best reaching kSat16, NW/semi-global by any live H cell touching
//      the kFloor16/kSat16 rails — and flagged lanes are re-run through
//      the exact int64 kernels, so every tier's results are bit-identical
//      to bio/align.hpp (see align_lanes.hpp and docs/KERNELS.md).
//   4. All per-pair allocation is hoisted into AlignScratch, one per thread.
//
// batch_align_scores() is the only entry point DSEARCH needs; everything
// else is exposed for tests and benchmarks.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bio/align.hpp"
#include "bio/scoring.hpp"

namespace hdcs::bio {

/// Lanes of the int16 alignment kernels in every tier: 32 int16 values fill
/// one AVX-512 register (two AVX2 registers, four SSE2 registers). Fixed so
/// the lane loops have a compile-time trip count.
inline constexpr std::size_t kBatchLanes = 32;

/// Subject symbols: every ScoringScheme index plus one trailing padding
/// symbol. Finished lanes are fed kPadSymbol, which scores kFloor16 against
/// every query residue — a padded column can never raise a local score.
inline constexpr std::size_t kProfileSymbols = ScoringScheme::kAlphabetSize + 1;
inline constexpr std::uint8_t kPadSymbol =
    static_cast<std::uint8_t>(ScoringScheme::kAlphabetSize);

/// Width of one substitution row: the subject symbols padded to the 32
/// entries a single vpermw can index.
inline constexpr std::size_t kSymbolSlots = 32;
static_assert(kProfileSymbols <= kSymbolSlots);

/// int16 domain: H is clamped into [0, kSat16]. Scores grow by bounded
/// per-cell steps, so if a lane's running best stays below kSat16 no clamp
/// ever fired and the int16 result is exact; otherwise the lane saturated
/// and is recomputed in int64.
inline constexpr std::int16_t kSat16 = 32000;

/// "Half minus-infinity" for int16 state: loses every max() against a real
/// cell, yet one more gap subtraction cannot underflow the type.
inline constexpr std::int16_t kFloor16 = -16000;

/// Encode residues as ScoringScheme packed indices.
void encode_residues(std::string_view seq, std::vector<std::uint8_t>& out);

/// Per-query score profile, built once per (query, scheme) and reused across
/// the whole database:
///   - the encoded query, one ScoringScheme index ("code") per position;
///   - rows16: per query code, its int16 score against every subject symbol
///     (kPadSymbol and the unused slots hold kFloor16) — what the lane
///     kernels turn into one 32-lane substitution vector per cell;
///   - a symbol-major int32 table for the exact int64 kernels, so a subject
///     residue selects one contiguous column of query scores.
class QueryProfile {
 public:
  QueryProfile(std::string_view query, const ScoringScheme& scheme);

  [[nodiscard]] std::size_t length() const { return n_; }
  [[nodiscard]] const std::string& query() const { return query_; }
  /// False when matrix entries or gap costs are too large for the int16
  /// lane kernel's no-overflow guarantees; batch falls back to int64.
  [[nodiscard]] bool lane_safe() const { return lane_safe_; }

  /// The encoded query: length() codes, each < ScoringScheme::kAlphabetSize.
  [[nodiscard]] const std::uint8_t* codes() const { return codes_.data(); }
  /// The distinct codes of the query, ascending — the only rows read.
  [[nodiscard]] std::span<const std::uint8_t> present_codes() const {
    return present_;
  }
  /// kSymbolSlots scores of query code `code` against each subject symbol.
  [[nodiscard]] const std::int16_t* row16(std::uint8_t code) const {
    return rows16_[code].data();
  }
  [[nodiscard]] const std::int32_t* column32(std::uint8_t symbol) const {
    return profile32_.data() + static_cast<std::size_t>(symbol) * n_;
  }

 private:
  std::string query_;
  std::size_t n_ = 0;
  bool lane_safe_ = true;
  std::vector<std::uint8_t> codes_;
  std::vector<std::uint8_t> present_;
  alignas(64) std::array<std::array<std::int16_t, kSymbolSlots>,
                         ScoringScheme::kAlphabetSize> rows16_{};
  std::vector<std::int32_t> profile32_;  // [symbol][query position]
};

/// Work/saturation accounting for one batch call. The caller (DSEARCH)
/// forwards these into the obs registry as align.cells_total and
/// align.batch_saturations; bio itself stays observability-free.
struct BatchMetrics {
  std::uint64_t cells = 0;        // semantic DP cells (query_len x subject_len)
  std::uint64_t saturations = 0;  // int16 lanes re-run through int64 (any mode)
};

/// Reusable per-thread DP state. Buffers grow to the largest problem seen
/// and are never shrunk; one AlignScratch per thread, never shared.
struct AlignScratch {
  std::vector<std::int16_t> h16, e16;     // int16 lane state, n*kBatchLanes
  std::vector<std::uint8_t> enc;          // encoded subjects, concatenated
  std::vector<std::size_t> enc_offset;    // per-subject offsets into enc
  std::vector<std::size_t> order;         // length-sorted packing order
  // int64 rows for the profile kernels (two H rows ping-ponged + one F row).
  std::vector<std::int64_t> row_h, row_h2, row_f;
};

/// Score every subject in `db` against the profile's query. Results are
/// bit-identical to calling the corresponding bio/align.hpp scalar kernel
/// (via align_score) per pair, in the same order as `db`.
/// `band` is the requested band for AlignMode::kBanded (widened exactly as
/// align_score widens it); ignored otherwise.
std::vector<std::int64_t> batch_align_scores(
    AlignMode mode, const QueryProfile& profile,
    std::span<const std::string_view> db, const ScoringScheme& scheme,
    std::size_t band, AlignScratch& scratch, BatchMetrics* metrics = nullptr);

// ---- exposed for tests/benchmarks ----

/// Transposed (subject-major) profile kernels; exact int64 arithmetic.
std::int64_t nw_score_profile(const QueryProfile& profile,
                              std::span<const std::uint8_t> subject,
                              const ScoringScheme& scheme, AlignScratch& scratch);
std::int64_t semiglobal_score_profile(const QueryProfile& profile,
                                      std::span<const std::uint8_t> subject,
                                      const ScoringScheme& scheme,
                                      AlignScratch& scratch);

}  // namespace hdcs::bio
