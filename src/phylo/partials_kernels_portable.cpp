// Scalar and portable tiers of the partials-combine kernel. Both share the
// exact expression (and association) documented in partials_kernels.hpp;
// the only difference is that the scalar tier forbids auto-vectorization,
// so HDCS_SIMD=scalar really does mean "no vector units involved".

#include "phylo/partials_kernels.hpp"

// GCC honors per-function optimize attributes; other compilers just get
// the same (correct) code, possibly auto-vectorized.
#if defined(__GNUC__) && !defined(__clang__)
#define HDCS_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define HDCS_NO_AUTOVEC
#endif

namespace hdcs::phylo {

namespace {

HDCS_NO_AUTOVEC
void combine_scalar(const double* pm, const double* child, double* node,
                    std::size_t count, bool assign) {
  for (std::size_t k = 0; k < count; ++k) {
    const double* c = child + k * 4;
    double* nd = node + k * 4;
    for (int i = 0; i < 4; ++i) {
      double sum = pm[i * 4 + 0] * c[0] + pm[i * 4 + 1] * c[1] +
                   pm[i * 4 + 2] * c[2] + pm[i * 4 + 3] * c[3];
      if (assign) {
        nd[i] = sum;
      } else {
        nd[i] *= sum;
      }
    }
  }
}

template <bool kAssign>
void combine_body(const double* pm, const double* child, double* node,
                  std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const double* c = child + k * 4;
    double* nd = node + k * 4;
    for (int i = 0; i < 4; ++i) {
      double sum = pm[i * 4 + 0] * c[0] + pm[i * 4 + 1] * c[1] +
                   pm[i * 4 + 2] * c[2] + pm[i * 4 + 3] * c[3];
      if constexpr (kAssign) {
        nd[i] = sum;
      } else {
        nd[i] *= sum;
      }
    }
  }
}

void combine_portable(const double* pm, const double* child, double* node,
                      std::size_t count, bool assign) {
  if (assign) {
    combine_body<true>(pm, child, node, count);
  } else {
    combine_body<false>(pm, child, node, count);
  }
}

}  // namespace

PartialsCombineFn partials_combine_scalar() { return &combine_scalar; }
PartialsCombineFn partials_combine_portable() { return &combine_portable; }

PartialsCombineFn partials_combine_for(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return partials_combine_scalar();
    case SimdTier::kSse2: return partials_combine_portable();
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:  // no 8-wide combine yet
      return partials_combine_avx2();
  }
  return partials_combine_portable();
}

}  // namespace hdcs::phylo
