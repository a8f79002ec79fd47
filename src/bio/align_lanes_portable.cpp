// Portable fixed-width-lane kernels — the "sse2" dispatch tier. Plain C++
// over kBatchLanes-wide arrays with compile-time trip counts; the compiler
// auto-vectorizes the lane loops at whatever the baseline target ISA is
// (SSE2 on x86-64). The AVX2 and AVX-512 tiers (align_lanes_avx2.cpp,
// align_lanes_avx512.cpp) implement the identical contract with explicit
// intrinsics. This file also holds the per-column helpers every tier calls.
//
// Correctness of the int16 rails (see align_lanes.hpp and docs/KERNELS.md):
// H is clamped into [kFloor16, kSat16] every cell. Given lane_safe()
// (|sub| <= 500, 0 <= oe, ext <= 4000) no intermediate leaves int16:
//   H - oe        >= kFloor16 - 4000           = -20000
//   E, F          >= kFloor16 - 4000 (max with H - oe pulls them back)
//   E - ext       >= kFloor16 - 8000           = -24000
//   Hdiag + sub   >= kFloor16 + kFloor16       = -32000  (pad column)
//   Hdiag + sub   <= kSat16 + 500              =  32500
// A clamped E or F can only corrupt H by dragging it onto the floor rail,
// and the kernels track min/max of every live H cell, so any lane whose
// state touched a rail is flagged and re-run exactly by the caller.

#include <algorithm>

#include "bio/align_lanes.hpp"

namespace hdcs::bio::lanes {

void lane_column(const LaneBatch& batch, std::size_t t, LaneColumn& col) {
  col.live = 0;
  col.ends = 0;
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    const bool live = t < batch.len[l];
    col.sym[l] = live ? batch.seq[l][t] : kPadSymbol;
    col.live |= static_cast<std::uint32_t>(live) << l;
    col.ends |= static_cast<std::uint32_t>(batch.len[l] == t + 1) << l;
  }
}

void column_scores(const QueryProfile& p, const LaneColumn& col,
                   ColumnScores& vec) {
  for (std::uint8_t code : p.present_codes()) {
    const std::int16_t* const row = p.row16(code);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      vec[code][l] = row[col.sym[l]];
    }
  }
}

namespace {

/// Lane-parallel Smith–Waterman, int16. Writes each lane's running maximum
/// into best[]; a lane with best >= kSat16 saturated and must be re-run in
/// int64. Non-saturated lanes are exact: H >= 0 always, so the floor rail
/// is unreachable and the only clamp is the kSat16 ceiling, which the
/// running maximum witnesses.
void sw_lanes16_portable(const QueryProfile& p, const LaneBatch& batch,
                         std::int16_t oe16, std::int16_t ext16,
                         AlignScratch& sc, std::int16_t best[kBatchLanes]) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t-1) -> H(i+1, t)
  std::int16_t* const e = sc.e16.data();
  std::fill_n(h, n * kBatchLanes, std::int16_t{0});
  std::fill_n(e, n * kBatchLanes, kFloor16);

  alignas(64) ColumnScores vec;
  alignas(64) std::int16_t f[kBatchLanes];
  alignas(64) std::int16_t hdiag[kBatchLanes];
  alignas(64) std::int16_t hup[kBatchLanes];
  alignas(64) std::int16_t bst[kBatchLanes] = {};
  LaneColumn col;

  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    column_scores(p, col, vec);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      f[l] = kFloor16;  // F(0, t) = -inf
      hdiag[l] = 0;     // H(0, t-1) = 0
      hup[l] = 0;       // H(0, t) = 0
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::int16_t* const sub = vec[code[i]];
      std::int16_t* const hrow = h + i * kBatchLanes;
      std::int16_t* const erow = e + i * kBatchLanes;
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        auto fl = static_cast<std::int16_t>(std::max<std::int16_t>(
            static_cast<std::int16_t>(hup[l] - oe16),
            static_cast<std::int16_t>(f[l] - ext16)));
        std::int16_t old_h = hrow[l];  // H(i+1, t-1)
        auto el = static_cast<std::int16_t>(std::max<std::int16_t>(
            static_cast<std::int16_t>(old_h - oe16),
            static_cast<std::int16_t>(erow[l] - ext16)));
        auto hn = static_cast<std::int16_t>(hdiag[l] + sub[l]);
        hn = std::max(hn, el);
        hn = std::max(hn, fl);
        hn = std::max<std::int16_t>(hn, 0);
        hn = std::min(hn, kSat16);
        hdiag[l] = old_h;
        hup[l] = hn;
        hrow[l] = hn;
        erow[l] = el;
        f[l] = fl;
        bst[l] = std::max(bst[l], hn);
      }
    }
  }
  for (std::size_t l = 0; l < kBatchLanes; ++l) best[l] = bst[l];
}

/// Shared NW / semi-global lane kernel. Orientation matches the exact
/// profile kernels: column t holds H(query position i, subject position
/// t+1); F gaps consume the query (serial in i, per column), E gaps consume
/// the subject (carried across columns per i).
///
/// kSemi == false (NW): H(0, t) = -(oe + (t-1)ext), answer H(n, len).
/// kSemi == true  (SG): H(0, t) = 0,  answer max over t <= len of H(n, t).
/// Both share the penalized init column H(i, 0) = -(oe + (i-1)ext).
template <bool kSemi>
void global_lanes16(const QueryProfile& p, const LaneBatch& batch,
                    std::int16_t oe16, std::int16_t ext16, AlignScratch& sc,
                    std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t) -> H(i+1, t+1)
  std::int16_t* const e = sc.e16.data();

  // Caller prechecked oe + max(n, len)*ext < -kFloor16, so every boundary
  // value below is exact in int16.
  auto boundary = [&](std::size_t k) {  // H(k, 0) and NW's H(0, k), k >= 1
    return static_cast<std::int16_t>(
        -(oe16 + static_cast<std::int32_t>(k - 1) * ext16));
  };
  for (std::size_t i = 0; i < n; ++i) {
    std::fill_n(h + i * kBatchLanes, kBatchLanes, boundary(i + 1));
    std::fill_n(e + i * kBatchLanes, kBatchLanes, kFloor16);  // E(i, 0)
  }

  alignas(64) ColumnScores vec;
  alignas(64) std::int16_t f[kBatchLanes];
  alignas(64) std::int16_t hdiag[kBatchLanes];
  alignas(64) std::int16_t hup[kBatchLanes];
  alignas(64) std::int16_t amask[kBatchLanes];
  alignas(64) std::int16_t minacc[kBatchLanes] = {};
  alignas(64) std::int16_t maxacc[kBatchLanes] = {};
  alignas(64) std::int16_t best[kBatchLanes];
  LaneColumn col;

  // Semi-global answers include the t = 0 term H(n, 0) (subject fully
  // skipped); NW answers are captured when a lane reaches its length.
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    best[l] = kSemi ? boundary(n) : 0;
  }

  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    column_scores(p, col, vec);
    // Boundary row 0: H(0, t) feeds the diagonal, H(0, t+1) the first F.
    const std::int16_t top_prev = kSemi || t == 0 ? 0 : boundary(t);
    const std::int16_t top = kSemi ? 0 : boundary(t + 1);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      amask[l] = (col.live >> l) & 1u ? static_cast<std::int16_t>(-1) : 0;
      f[l] = kFloor16;  // F(0, t+1) = -inf
      hdiag[l] = top_prev;
      hup[l] = top;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::int16_t* const sub = vec[code[i]];
      std::int16_t* const hrow = h + i * kBatchLanes;
      std::int16_t* const erow = e + i * kBatchLanes;
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        auto fl = static_cast<std::int16_t>(std::max<std::int16_t>(
            static_cast<std::int16_t>(hup[l] - oe16),
            static_cast<std::int16_t>(f[l] - ext16)));
        std::int16_t old_h = hrow[l];  // H(i+1, t)
        auto el = static_cast<std::int16_t>(std::max<std::int16_t>(
            static_cast<std::int16_t>(old_h - oe16),
            static_cast<std::int16_t>(erow[l] - ext16)));
        auto hn = static_cast<std::int16_t>(hdiag[l] + sub[l]);
        hn = std::max(hn, el);
        hn = std::max(hn, fl);
        hn = std::max(hn, kFloor16);
        hn = std::min(hn, kSat16);
        hdiag[l] = old_h;
        hup[l] = hn;
        hrow[l] = hn;
        erow[l] = el;
        f[l] = fl;
        // Rail witness, live lanes only (pad columns clamp by design).
        auto hm = static_cast<std::int16_t>(hn & amask[l]);
        minacc[l] = std::min(minacc[l], hm);
        maxacc[l] = std::max(maxacc[l], hm);
      }
    }
    // hup now holds H(n, t+1).
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      if constexpr (kSemi) {
        if (amask[l]) best[l] = std::max(best[l], hup[l]);
      } else {
        if ((col.ends >> l) & 1u) best[l] = hup[l];
      }
    }
  }

  std::uint32_t r = 0;
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    if (minacc[l] <= kFloor16 || maxacc[l] >= kSat16) r |= 1u << l;
    out[l] = best[l];
  }
  *railed = r;
}

void nw_lanes16_portable(const QueryProfile& p, const LaneBatch& b,
                         std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                         std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16<false>(p, b, oe, ext, sc, out, railed);
}

void sg_lanes16_portable(const QueryProfile& p, const LaneBatch& b,
                         std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                         std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16<true>(p, b, oe, ext, sc, out, railed);
}

}  // namespace

const Kernels& portable_kernels() {
  static const Kernels k{&sw_lanes16_portable, &nw_lanes16_portable,
                         &sg_lanes16_portable};
  return k;
}

}  // namespace hdcs::bio::lanes
