#include "common/distance_kernels.h"

#include <cmath>

namespace cvcp {

namespace {

// ---------------------------------------------------------------------------
// Fixed-lane portable reference (the pinning oracle)
// ---------------------------------------------------------------------------
// Every SIMD implementation must be bitwise-identical to these loops; the
// whole translation unit is compiled with -ffp-contract=off so the
// compiler cannot fuse the mul+add pairs into FMAs behind our back.

/// The canonical lane-reduction tree shared by every implementation:
/// m_j = lane_j + lane_{j+4}, then (m0 + m2) + (m1 + m3).
inline double ReduceLanes(const double lanes[kFixedLaneWidth]) {
  const double m0 = lanes[0] + lanes[4];
  const double m1 = lanes[1] + lanes[5];
  const double m2 = lanes[2] + lanes[6];
  const double m3 = lanes[3] + lanes[7];
  return (m0 + m2) + (m1 + m3);
}

double FixedSquaredEuclidean(const double* a, const double* b, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      const double d = a[i + k] - b[i + k];
      lanes[k] += d * d;
    }
  }
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += d * d;
  }
  return ReduceLanes(lanes);
}

void FixedSquaredEuclideanX4(const double* a, const double* b, size_t stride,
                             size_t n, double out[4]) {
  for (size_t k = 0; k < 4; ++k) {
    out[k] = FixedSquaredEuclidean(a, b + k * stride, n);
  }
}

double FixedManhattan(const double* a, const double* b, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      lanes[k] += std::fabs(a[i + k] - b[i + k]);
    }
  }
  for (size_t i = base; i < n; ++i) {
    lanes[i - base] += std::fabs(a[i] - b[i]);
  }
  return ReduceLanes(lanes);
}

double FixedCosine(const double* a, const double* b, size_t n) {
  double dot[kFixedLaneWidth] = {};
  double na[kFixedLaneWidth] = {};
  double nb[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      dot[k] += a[i + k] * b[i + k];
      na[k] += a[i + k] * a[i + k];
      nb[k] += b[i + k] * b[i + k];
    }
  }
  for (size_t i = base; i < n; ++i) {
    dot[i - base] += a[i] * b[i];
    na[i - base] += a[i] * a[i];
    nb[i - base] += b[i] * b[i];
  }
  const double sum_dot = ReduceLanes(dot);
  const double sum_na = ReduceLanes(na);
  const double sum_nb = ReduceLanes(nb);
  if (sum_na == 0.0 || sum_nb == 0.0) return 1.0;
  return 1.0 - sum_dot / (std::sqrt(sum_na) * std::sqrt(sum_nb));
}

double FixedWeightedSquaredEuclidean(const double* a, const double* b,
                                     const double* w, size_t n) {
  double lanes[kFixedLaneWidth] = {};
  const size_t base = n - n % kFixedLaneWidth;
  for (size_t i = 0; i < base; i += kFixedLaneWidth) {
    for (size_t k = 0; k < kFixedLaneWidth; ++k) {
      const double d = a[i + k] - b[i + k];
      lanes[k] += w[i + k] * (d * d);
    }
  }
  for (size_t i = base; i < n; ++i) {
    const double d = a[i] - b[i];
    lanes[i - base] += w[i] * (d * d);
  }
  return ReduceLanes(lanes);
}

const DistanceKernels kPortableFixedLane = {
    FixedSquaredEuclidean,
    FixedManhattan,
    FixedCosine,
    FixedWeightedSquaredEuclidean,
    FixedSquaredEuclideanX4,
};

}  // namespace

// Arch-specific fixed-lane tables, defined in their own translation
// units (compiled with the matching -m flags) and only when CMake
// enables them for the target architecture.
namespace internal {
#if defined(CVCP_HAVE_AVX2)
const DistanceKernels& Avx2FixedLaneKernels();
#endif
#if defined(CVCP_HAVE_NEON)
const DistanceKernels& NeonFixedLaneKernels();
#endif
}  // namespace internal

namespace {

/// One-time dispatch: the widest fixed-lane implementation this CPU
/// supports. All candidates are bitwise-identical, so the choice is
/// invisible in results — it only moves wall time.
struct FixedLaneChoice {
  const DistanceKernels* kernels;
  const char* arch;
};

FixedLaneChoice ChooseFixedLane() {
#if defined(CVCP_HAVE_AVX2) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) {
    return {&internal::Avx2FixedLaneKernels(), "avx2"};
  }
#endif
#if defined(CVCP_HAVE_NEON)
  // NEON is architecturally mandatory on AArch64; no runtime probe.
  return {&internal::NeonFixedLaneKernels(), "neon"};
#endif
  return {&kPortableFixedLane, "portable"};
}

const FixedLaneChoice& FixedLane() {
  static const FixedLaneChoice choice = ChooseFixedLane();
  return choice;
}

}  // namespace

const DistanceKernels& GetDistanceKernels() { return *FixedLane().kernels; }

const DistanceKernels& FixedLaneKernelsPortable() { return kPortableFixedLane; }

const char* DistanceKernelArch() { return FixedLane().arch; }

}  // namespace cvcp
