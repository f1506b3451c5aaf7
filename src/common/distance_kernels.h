#ifndef CVCP_COMMON_DISTANCE_KERNELS_H_
#define CVCP_COMMON_DISTANCE_KERNELS_H_

/// \file
/// The low-level distance kernels behind common/distance.h: tables of
/// raw-pointer fixed-lane inner loops, plus the runtime dispatch that
/// picks the widest SIMD implementation the CPU supports.
///
/// ## The fixed-lane contract
///
/// Every fixed-lane implementation — the portable scalar reference, the
/// AVX2 one, the NEON one — commits to the identical floating-point
/// evaluation order, so their results are bitwise equal and every run is
/// deterministic across hardware:
///
///   * 8 virtual accumulator lanes; lane k sums the per-element terms at
///     indices ≡ k (mod 8), in increasing index order;
///   * the tail (n mod 8 trailing elements) is accumulated into lanes
///     0..(n mod 8 - 1) after the full blocks, in index order — exactly
///     where those indices' lanes would have put them;
///   * lanes reduce through one fixed tree:
///         m_j = lane_j + lane_{j+4}          (j = 0..3)
///         result = (m_0 + m_2) + (m_1 + m_3)
///     chosen because it is the natural AVX2 butterfly (256-bit add of
///     the two accumulator registers, then the 128-bit halves, then one
///     scalar add); the portable reference implements the same tree;
///   * no FMA anywhere (fusing mul+add changes the rounding of every
///     term) — the kernel translation units are compiled with
///     `-ffp-contract=off` so the compiler cannot introduce it either.
///
/// The kernels are pure functions of their inputs: thread count, tiling,
/// caching, and hardware never change a bit.

#include <cstddef>

namespace cvcp {

/// One set of distance inner loops. All pointers are non-null; vectors
/// are `n` contiguous doubles. `cosine` returns 1 - cosine similarity
/// with zero vectors at distance 1; `weighted_squared_euclidean` is the
/// diagonal-Mahalanobis form sum_m w[m]*(a[m]-b[m])^2.
struct DistanceKernels {
  double (*squared_euclidean)(const double* a, const double* b, size_t n);
  double (*manhattan)(const double* a, const double* b, size_t n);
  double (*cosine)(const double* a, const double* b, size_t n);
  double (*weighted_squared_euclidean)(const double* a, const double* b,
                                       const double* w, size_t n);
  /// Strided batch form: out[k] = squared_euclidean(a, b + k*stride, n)
  /// for k = 0..3. Each of the four pairs is evaluated with exactly the
  /// single-pair op sequence — the batch exists so the matrix build can
  /// run four independent accumulator chains at once (the single-pair
  /// kernel is latency-bound on its lane adds) and reuse the `a` loads.
  void (*squared_euclidean_x4)(const double* a, const double* b, size_t stride,
                               size_t n, double out[4]);
};

/// The dispatched fixed-lane table every distance computation uses:
/// AVX2/NEON when the CPU supports it, the portable reference otherwise
/// — bitwise-identical either way.
const DistanceKernels& GetDistanceKernels();

/// The portable scalar fixed-lane reference — the pinning oracle the
/// equivalence tests compare every SIMD implementation against.
const DistanceKernels& FixedLaneKernelsPortable();

/// Which fixed-lane implementation dispatch selected on this machine:
/// "avx2", "neon", or "portable".
const char* DistanceKernelArch();

/// The fixed-lane virtual accumulator width (tests sweep vector lengths
/// 0..2*width+3 to pin the tail handling).
inline constexpr size_t kFixedLaneWidth = 8;

}  // namespace cvcp

#endif  // CVCP_COMMON_DISTANCE_KERNELS_H_
