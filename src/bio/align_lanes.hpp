#pragma once
// Lane-parallel int16 alignment kernels behind the runtime SIMD dispatch
// (util/simd.hpp). One kernel table per tier, all kBatchLanes (32) wide:
//
//   portable_kernels()  fixed-width-lane C++ compiled at the baseline
//                       target ISA (auto-vectorized; the "sse2" tier)
//   avx2_kernels()      hand-written AVX2 intrinsics from the -mavx2
//                       translation unit, each DP row as two 256-bit
//                       halves; forwards to portable when the binary was
//                       built without AVX2 support
//   avx512_kernels()    AVX-512F/BW intrinsics from the -mavx512bw
//                       translation unit, one 512-bit register per DP row
//                       and one vpermw per substitution vector; forwards
//                       to portable when built without AVX-512 support
//
// Every table implements the same contract (docs/KERNELS.md):
//
//   sw  Smith–Waterman. best[l] is the lane's running maximum clamped to
//       [0, kSat16]; best[l] >= kSat16 means the lane saturated and must
//       be re-run exactly. Otherwise best[l] is the exact score.
//   nw  Needleman–Wunsch (global). out[l] = H(n, len[l]); bit l of
//       *railed set when the lane's clamped state touched kFloor16 or
//       kSat16 inside the lane's live region — the int16 value may then
//       be wrong and the caller re-runs the lane in int64.
//   sg  Semi-global (query global, subject ends free): out[l] =
//       max over t <= len[l] of H(n, t); same rail contract as nw.
//
// Callers must guarantee, per lane: len >= 1, profile.lane_safe(), and
// oe + max(query_len, len) * ext < -kFloor16 so every boundary cell is
// representable without clamping (batch_align_scores prechecks this and
// routes ineligible lanes straight to the exact kernels). scratch.h16 and
// scratch.e16 must hold at least query_len * kBatchLanes values; the
// kernels initialise them.
//
// Substitution scores: a cell of query code c in DP column t needs the
// 32-lane vector score(c, symbol of lane l at t). The AVX-512 kernels
// permute profile.row16(c) by the column's symbols (vpermw); the other
// tiers build that vector once per column for every code present in the
// query (column_scores) and load it per cell.
//
// The helpers below are compiled at the baseline ISA (in
// align_lanes_portable.cpp) and called once per column by every tier.

#include "bio/align_batch.hpp"

namespace hdcs::bio::lanes {

/// Up to kBatchLanes encoded subjects advancing in lockstep. Unused lanes
/// have len == 0, are fed kPadSymbol columns and never touch seq[].
struct LaneBatch {
  const std::uint8_t* seq[kBatchLanes] = {};
  std::size_t len[kBatchLanes] = {};
  std::size_t max_len = 0;
};

/// What every lane consumes at one DP column t.
struct LaneColumn {
  alignas(32) std::uint8_t sym[kBatchLanes];  // kPadSymbol once a lane ended
  std::uint32_t live = 0;  // bit l: t < len[l]
  std::uint32_t ends = 0;  // bit l: t + 1 == len[l]
};
void lane_column(const LaneBatch& batch, std::size_t t, LaneColumn& col);

/// vec[c][l] = score(c, col.sym[l]) for every c in p.present_codes();
/// rows of absent codes are left untouched.
using ColumnScores = std::int16_t[ScoringScheme::kAlphabetSize][kBatchLanes];
void column_scores(const QueryProfile& p, const LaneColumn& col,
                   ColumnScores& vec);

using SwFn = void (*)(const QueryProfile&, const LaneBatch&, std::int16_t oe,
                      std::int16_t ext, AlignScratch&,
                      std::int16_t best[kBatchLanes]);
using GlobalFn = void (*)(const QueryProfile&, const LaneBatch&,
                          std::int16_t oe, std::int16_t ext, AlignScratch&,
                          std::int16_t out[kBatchLanes], std::uint32_t* railed);

struct Kernels {
  SwFn sw;
  GlobalFn nw;
  GlobalFn sg;
};

const Kernels& portable_kernels();
const Kernels& avx2_kernels();
const Kernels& avx512_kernels();

}  // namespace hdcs::bio::lanes
