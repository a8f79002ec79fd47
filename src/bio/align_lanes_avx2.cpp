// AVX2 tier of the lane kernels: the same contract as
// align_lanes_portable.cpp, written with explicit _mm256 intrinsics. The
// kBatchLanes (32) int16 lanes are two 256-bit registers, so every DP row
// runs as two independent halves whose dependency chains interleave.
//
// This translation unit is compiled with -mavx2 (see src/bio/CMakeLists.txt)
// and nothing else: no -mfma, so no multiply-add contraction, and the
// runtime dispatch (util/simd.hpp) only selects this table when cpuid
// reports AVX2, so the intrinsics never execute on older hardware. It calls
// no std:: template that could be emitted out of line: the linker may keep
// any one copy of such a function, and an -mavx2 copy must never be the one
// baseline-ISA callers get. When the toolchain cannot target AVX2 at all
// (non-x86 builds), the table forwards to the portable kernels; dispatch
// would not pick it there anyway.
//
// AVX2 has no 16-bit permute, so the substitution vectors come from
// column_scores(): built once per column for each code present in the
// query, then one load per half per cell — no per-lane gather.

#include "bio/align_lanes.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hdcs::bio::lanes {

namespace {

constexpr std::size_t kHalf = kBatchLanes / 2;

inline __m256i load(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(std::int16_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// All-ones in lane l of a 16-lane half where bit l of `bits` is set.
inline __m256i lane_mask(std::uint32_t bits) {
  const __m256i sel = _mm256_setr_epi16(
      0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080, 0x0100,
      0x0200, 0x0400, 0x0800, 0x1000, 0x2000, 0x4000,
      static_cast<std::int16_t>(0x8000));
  const __m256i b = _mm256_set1_epi16(static_cast<std::int16_t>(bits));
  return _mm256_cmpeq_epi16(_mm256_and_si256(b, sel), sel);
}

/// One 16-lane half of a DP row's state as it moves down a column.
struct Half {
  __m256i f;      // F(i, t)
  __m256i hdiag;  // H(i-1, t-1)
  __m256i hup;    // H(i-1, t), then the cell just computed
};

struct Consts {
  __m256i oe, ext, lo, sat;
};

/// One DP cell for 16 lanes: reads H/E(i, t-1) from the row, writes
/// H/E(i, t) back and leaves H(i, t) in s.hup. Clamps H into [lo, sat].
inline void cell(Half& s, __m256i vsub, std::int16_t* hrow,
                 std::int16_t* erow, const Consts& k) {
  s.f = _mm256_max_epi16(_mm256_sub_epi16(s.hup, k.oe),
                         _mm256_sub_epi16(s.f, k.ext));
  const __m256i vold = load(hrow);
  const __m256i ve = _mm256_max_epi16(_mm256_sub_epi16(vold, k.oe),
                                      _mm256_sub_epi16(load(erow), k.ext));
  // Everything but F first: F is the only input on the serial chain.
  __m256i vhn = _mm256_max_epi16(_mm256_add_epi16(s.hdiag, vsub), ve);
  vhn = _mm256_max_epi16(vhn, k.lo);
  vhn = _mm256_min_epi16(_mm256_max_epi16(vhn, s.f), k.sat);
  s.hdiag = vold;
  s.hup = vhn;
  store(hrow, vhn);
  store(erow, ve);
}

void sw_lanes16_avx2(const QueryProfile& p, const LaneBatch& batch,
                     std::int16_t oe16, std::int16_t ext16, AlignScratch& sc,
                     std::int16_t best[kBatchLanes]) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t-1) -> H(i+1, t)
  std::int16_t* const e = sc.e16.data();
  const Consts k{_mm256_set1_epi16(oe16), _mm256_set1_epi16(ext16),
                 _mm256_setzero_si256(), _mm256_set1_epi16(kSat16)};
  const __m256i vfloor = _mm256_set1_epi16(kFloor16);
  for (std::size_t i = 0; i < n * kBatchLanes; i += kHalf) {
    store(h + i, k.lo);
    store(e + i, vfloor);
  }

  alignas(64) ColumnScores vec;
  LaneColumn col;
  __m256i vbst0 = k.lo, vbst1 = k.lo;
  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    column_scores(p, col, vec);
    // F(0, t) = -inf; H(0, t-1) = H(0, t) = 0.
    Half s0{vfloor, k.lo, k.lo}, s1{vfloor, k.lo, k.lo};
    for (std::size_t i = 0; i < n; ++i) {
      const std::int16_t* const sub = vec[code[i]];
      std::int16_t* const hrow = h + i * kBatchLanes;
      std::int16_t* const erow = e + i * kBatchLanes;
      cell(s0, load(sub), hrow, erow, k);
      cell(s1, load(sub + kHalf), hrow + kHalf, erow + kHalf, k);
      vbst0 = _mm256_max_epi16(vbst0, s0.hup);
      vbst1 = _mm256_max_epi16(vbst1, s1.hup);
    }
  }
  store(best, vbst0);
  store(best + kHalf, vbst1);
}

template <bool kSemi>
void global_lanes16_avx2(const QueryProfile& p, const LaneBatch& batch,
                         std::int16_t oe16, std::int16_t ext16,
                         AlignScratch& sc, std::int16_t out[kBatchLanes],
                         std::uint32_t* railed) {
  const std::size_t n = p.length();
  const std::uint8_t* const code = p.codes();
  std::int16_t* const h = sc.h16.data();  // row i: H(i+1, t) -> H(i+1, t+1)
  std::int16_t* const e = sc.e16.data();
  const __m256i vfloor = _mm256_set1_epi16(kFloor16);
  const Consts k{_mm256_set1_epi16(oe16), _mm256_set1_epi16(ext16), vfloor,
                 _mm256_set1_epi16(kSat16)};

  // H(k, 0) and NW's H(0, k) for k >= 1; exact in int16 by the precheck.
  auto boundary = [&](std::size_t kk) {
    return _mm256_set1_epi16(static_cast<std::int16_t>(
        -(oe16 + static_cast<std::int32_t>(kk - 1) * ext16)));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const __m256i hv = boundary(i + 1);
    store(h + i * kBatchLanes, hv);
    store(h + i * kBatchLanes + kHalf, hv);
    store(e + i * kBatchLanes, vfloor);  // E(i, 0) = -inf
    store(e + i * kBatchLanes + kHalf, vfloor);
  }

  const __m256i vzero = _mm256_setzero_si256();
  __m256i vmin0 = vzero, vmin1 = vzero, vmax0 = vzero, vmax1 = vzero;
  // SG starts from the t = 0 term H(n, 0); NW lanes with len 0 stay 0.
  __m256i vbest0 = kSemi ? boundary(n) : vzero;
  __m256i vbest1 = vbest0;

  alignas(64) ColumnScores vec;
  LaneColumn col;
  for (std::size_t t = 0; t < batch.max_len; ++t) {
    lane_column(batch, t, col);
    column_scores(p, col, vec);
    const __m256i vlive0 = lane_mask(col.live);
    const __m256i vlive1 = lane_mask(col.live >> kHalf);
    // Boundary row 0: H(0, t) feeds the diagonal, H(0, t+1) the first F.
    const __m256i top_prev = kSemi || t == 0 ? vzero : boundary(t);
    const __m256i top = kSemi ? vzero : boundary(t + 1);
    Half s0{vfloor, top_prev, top}, s1{vfloor, top_prev, top};
    for (std::size_t i = 0; i < n; ++i) {
      const std::int16_t* const sub = vec[code[i]];
      std::int16_t* const hrow = h + i * kBatchLanes;
      std::int16_t* const erow = e + i * kBatchLanes;
      cell(s0, load(sub), hrow, erow, k);
      cell(s1, load(sub + kHalf), hrow + kHalf, erow + kHalf, k);
      // Rail witness over live lanes (dead lanes mask to 0, never a rail).
      const __m256i vhm0 = _mm256_and_si256(s0.hup, vlive0);
      const __m256i vhm1 = _mm256_and_si256(s1.hup, vlive1);
      vmin0 = _mm256_min_epi16(vmin0, vhm0);
      vmax0 = _mm256_max_epi16(vmax0, vhm0);
      vmin1 = _mm256_min_epi16(vmin1, vhm1);
      vmax1 = _mm256_max_epi16(vmax1, vhm1);
    }
    // s.hup now holds H(n, t+1).
    if constexpr (kSemi) {
      vbest0 = _mm256_max_epi16(vbest0,
                                _mm256_blendv_epi8(vfloor, s0.hup, vlive0));
      vbest1 = _mm256_max_epi16(vbest1,
                                _mm256_blendv_epi8(vfloor, s1.hup, vlive1));
    } else {
      vbest0 = _mm256_blendv_epi8(vbest0, s0.hup, lane_mask(col.ends));
      vbest1 = _mm256_blendv_epi8(vbest1, s1.hup, lane_mask(col.ends >> kHalf));
    }
  }
  store(out, vbest0);
  store(out + kHalf, vbest1);

  const __m256i vlo = _mm256_set1_epi16(kFloor16 + 1);
  const __m256i vhi = _mm256_set1_epi16(kSat16 - 1);
  const __m256i rail0 = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, vmin0),
                                        _mm256_cmpgt_epi16(vmax0, vhi));
  const __m256i rail1 = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, vmin1),
                                        _mm256_cmpgt_epi16(vmax1, vhi));
  // Narrow the 32 word masks to bytes in lane order, one bit per lane.
  const __m256i bytes = _mm256_permute4x64_epi64(
      _mm256_packs_epi16(rail0, rail1), 0xD8);
  *railed = static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
}

void nw_lanes16_avx2(const QueryProfile& p, const LaneBatch& b,
                     std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                     std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16_avx2<false>(p, b, oe, ext, sc, out, railed);
}

void sg_lanes16_avx2(const QueryProfile& p, const LaneBatch& b,
                     std::int16_t oe, std::int16_t ext, AlignScratch& sc,
                     std::int16_t out[kBatchLanes], std::uint32_t* railed) {
  global_lanes16_avx2<true>(p, b, oe, ext, sc, out, railed);
}

}  // namespace

const Kernels& avx2_kernels() {
  static const Kernels k{&sw_lanes16_avx2, &nw_lanes16_avx2, &sg_lanes16_avx2};
  return k;
}

}  // namespace hdcs::bio::lanes

#else  // !defined(__AVX2__)

namespace hdcs::bio::lanes {

// Built without AVX2 support (non-x86 target or ancient toolchain): the
// dispatch never selects this tier on such hosts, but keep the table well
// defined by forwarding to the portable kernels.
const Kernels& avx2_kernels() { return portable_kernels(); }

}  // namespace hdcs::bio::lanes

#endif
