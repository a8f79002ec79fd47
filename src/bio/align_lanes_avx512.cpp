// AVX-512 tier of the lane kernels: the same contract as
// align_lanes_portable.cpp with _mm512 intrinsics. The kBatchLanes (32)
// int16 lanes are exactly one 512-bit register, so a DP row is one
// register, and each cell's substitution vector is a single vpermw: the
// column's 32 subject symbols index the query code's 32-entry row of
// profile.row16(), no per-column table and no gather. Dead lanes are
// handled with __mmask32 predicates instead of blend masks.
//
// This translation unit is compiled with -mavx512f -mavx512bw (see
// src/bio/CMakeLists.txt) and nothing else: no -mfma, no -march=native.
// The runtime dispatch (util/simd.hpp) selects this table only when cpuid
// reports both avx512f and avx512bw. Like the AVX2 unit it calls no std::
// template that could be emitted out of line, so no AVX-512 copy of a
// shared function can reach baseline-ISA callers. Toolchains that cannot
// target AVX-512 compile the forwarding stub at the bottom instead.

#include "bio/align_lanes.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace hdcs::bio::lanes {

namespace {

static_assert(kBatchLanes == 32 && kSymbolSlots == 32,
              "one zmm holds a row of lanes and a vpermw table");

inline __m512i load(const std::int16_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::int16_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// The column's subject symbols widened to int16 vpermw indices.
inline __m512i symbols(const LaneColumn& col) {
  return _mm512_cvtepu8_epi16(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(col.sym)));
}

/// score(code, symbol of lane l) for all 32 lanes.
inline __m512i substitution(const QueryProfile& p, std::uint8_t code,
                            __m512i vsym) {
  return _mm512_permutexvar_epi16(vsym, load(p.row16(code)));
}

/// A DP row's state as it moves down a column.
struct State {
  __m512i f;      // F(i, t)
  __m512i hdiag;  // H(i-1, t-1)
  __m512i hup;    // H(i-1, t), then the cell just computed
};

struct Consts {
  __m512i oe, ext, lo, sat;
};

/// One DP cell for 32 lanes: reads H/E(i, t-1) from the row, writes
/// H/E(i, t) back and leaves H(i, t) in s.hup. Clamps H into [lo, sat].
inline void cell(State& s, __m512i vsub, std::int16_t* hrow,
                 std::int16_t* erow, const Consts& k) {
  s.f = _mm512_max_epi16(_mm512_sub_epi16(s.hup, k.oe),
                         _mm512_sub_epi16(s.f, k.ext));
  const __m512i vold = load(hrow);
  const __m512i ve = _mm512_max_epi16(_mm512_sub_epi16(vold, k.oe),
                                      _mm512_sub_epi16(load(erow), k.ext));
  // Everything but F first: F is the only input on the serial chain.
  __m512i vhn = _mm512_max_epi16(_mm512_add_epi16(s.hdiag, vsub), ve);
  vhn = _mm512_max_epi16(vhn, k.lo);
  vhn = _mm512_min_epi16(_mm512_max_epi16(vhn, s.f), k.sat);
  s.hdiag = vold;
  s.hup = vhn;
  store(hrow, vhn);
  store(erow, ve);
}

void sw_lanes16_avx512(const QueryProfile& p, const LaneBatch& batch,
                       std::int16_t oe16, std::int16_t ext16,
                       AlignScratch& sc, std::int16_t best[kBatchLanes]) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t-1) -> H(i+1, t)
  std::int16_t* const e = sc.e16.data();
  const Consts k{_mm512_set1_epi16(oe16), _mm512_set1_epi16(ext16),
                 _mm512_setzero_si512(), _mm512_set1_epi16(kSat16)};
  const __m512i vfloor = _mm512_set1_epi16(kFloor16);
  for (std::size_t i = 0; i < n; ++i) {
    store(h + i * kBatchLanes, k.lo);
    store(e + i * kBatchLanes, vfloor);
  }

  LaneColumn col;
  __m512i vbst = k.lo;
  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    const __m512i vsym = symbols(col);
    State s{vfloor, k.lo, k.lo};  // F(0, t) = -inf; H(0, t-1) = H(0, t) = 0
    for (std::size_t i = 0; i < n; ++i) {
      cell(s, substitution(p, code[i], vsym), h + i * kBatchLanes,
           e + i * kBatchLanes, k);
      vbst = _mm512_max_epi16(vbst, s.hup);
    }
  }
  store(best, vbst);
}

template <bool kSemi>
void global_lanes16_avx512(const QueryProfile& p, const LaneBatch& batch,
                           std::int16_t oe16, std::int16_t ext16,
                           AlignScratch& sc, std::int16_t out[kBatchLanes],
                           std::uint32_t* railed) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t) -> H(i+1, t+1)
  std::int16_t* const e = sc.e16.data();
  const __m512i vfloor = _mm512_set1_epi16(kFloor16);
  const __m512i vsat = _mm512_set1_epi16(kSat16);
  const Consts k{_mm512_set1_epi16(oe16), _mm512_set1_epi16(ext16), vfloor,
                 vsat};

  // H(k, 0) and NW's H(0, k) for k >= 1; exact in int16 by the precheck.
  auto boundary = [&](std::size_t kk) {
    return _mm512_set1_epi16(static_cast<std::int16_t>(
        -(oe16 + static_cast<std::int32_t>(kk - 1) * ext16)));
  };
  for (std::size_t i = 0; i < n; ++i) {
    store(h + i * kBatchLanes, boundary(i + 1));
    store(e + i * kBatchLanes, vfloor);  // E(i, 0) = -inf
  }

  const __m512i vzero = _mm512_setzero_si512();
  __m512i vmin = vzero, vmax = vzero;
  // SG starts from the t = 0 term H(n, 0); NW lanes with len 0 stay 0.
  __m512i vbest = kSemi ? boundary(n) : vzero;

  LaneColumn col;
  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    const __m512i vsym = symbols(col);
    const __mmask32 live = col.live;
    // Boundary row 0: H(0, t) feeds the diagonal, H(0, t+1) the first F.
    State s{vfloor, kSemi || t == 0 ? vzero : boundary(t),
            kSemi ? vzero : boundary(t + 1)};
    for (std::size_t i = 0; i < n; ++i) {
      cell(s, substitution(p, code[i], vsym), h + i * kBatchLanes,
           e + i * kBatchLanes, k);
      // Rail witness over live lanes only (pad columns clamp by design).
      vmin = _mm512_mask_min_epi16(vmin, live, vmin, s.hup);
      vmax = _mm512_mask_max_epi16(vmax, live, vmax, s.hup);
    }
    // s.hup now holds H(n, t+1).
    if constexpr (kSemi) {
      vbest = _mm512_mask_max_epi16(vbest, live, vbest, s.hup);
    } else {
      vbest = _mm512_mask_mov_epi16(vbest, col.ends, s.hup);
    }
  }
  store(out, vbest);
  *railed = _mm512_cmple_epi16_mask(vmin, vfloor) |
            _mm512_cmpge_epi16_mask(vmax, vsat);
}

void nw_lanes16_avx512(const QueryProfile& p, const LaneBatch& b,
                       std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                       std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16_avx512<false>(p, b, oe, ext, sc, out, railed);
}

void sg_lanes16_avx512(const QueryProfile& p, const LaneBatch& b,
                       std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                       std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16_avx512<true>(p, b, oe, ext, sc, out, railed);
}

}  // namespace

const Kernels& avx512_kernels() {
  static const Kernels k{&sw_lanes16_avx512, &nw_lanes16_avx512,
                         &sg_lanes16_avx512};
  return k;
}

}  // namespace hdcs::bio::lanes

#else  // !(defined(__AVX512F__) && defined(__AVX512BW__))

namespace hdcs::bio::lanes {

// Built without AVX-512 support (non-x86 target or older toolchain): the
// dispatch never selects this tier on such hosts, but keep the table well
// defined by forwarding to the portable kernels.
const Kernels& avx512_kernels() { return portable_kernels(); }

}  // namespace hdcs::bio::lanes

#endif
