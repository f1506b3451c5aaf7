// Pinning tests for the distance-kernel layer (common/distance_kernels.h):
//
//  * the fixed-lane contract — the dispatched native table (AVX2/NEON
//    when the CPU has it) must be *bitwise* equal to the portable scalar
//    reference for every kernel, at every vector length around the lane
//    width (0..2*width+3 pins the tail handling);
//  * the strided x4 batch must be bitwise equal to four single-pair
//    calls, packed or padded stride;
//  * fixed-lane vs a left-to-right long double sum: equal within
//    rounding (the lanes reassociate), never relied on for bit equality;
//  * the tiled DistanceMatrix::Compute against the per-pair `Distance`:
//    bitwise in every condensed slot, for every metric, ragged
//    multi-tile sizes and any thread count.

#include "common/distance_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/distance.h"
#include "common/matrix.h"
#include "common/parallel.h"

namespace cvcp {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Deterministic, irregular values: no two entries equal, mixed signs and
// magnitudes so reassociation would actually change low bits.
std::vector<double> Irregular(size_t n, double seed) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) + seed;
    v[i] = std::sin(x * 12.9898) * 43758.5453 - std::floor(x * 0.37);
  }
  return v;
}

TEST(DistanceKernelsFixedLane, NativeBitwiseEqualsPortableAllLengths) {
  const DistanceKernels& native = GetDistanceKernels();
  const DistanceKernels& portable = FixedLaneKernelsPortable();
  for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
    const std::vector<double> a = Irregular(n, 0.3);
    const std::vector<double> b = Irregular(n, 1.7);
    const std::vector<double> w = Irregular(n, 2.9);
    EXPECT_EQ(Bits(native.squared_euclidean(a.data(), b.data(), n)),
              Bits(portable.squared_euclidean(a.data(), b.data(), n)))
        << "squared_euclidean n=" << n;
    EXPECT_EQ(Bits(native.manhattan(a.data(), b.data(), n)),
              Bits(portable.manhattan(a.data(), b.data(), n)))
        << "manhattan n=" << n;
    EXPECT_EQ(Bits(native.cosine(a.data(), b.data(), n)),
              Bits(portable.cosine(a.data(), b.data(), n)))
        << "cosine n=" << n;
    EXPECT_EQ(
        Bits(native.weighted_squared_euclidean(a.data(), b.data(), w.data(),
                                               n)),
        Bits(portable.weighted_squared_euclidean(a.data(), b.data(), w.data(),
                                                 n)))
        << "weighted n=" << n;
  }
}

TEST(DistanceKernelsFixedLane, BatchX4BitwiseEqualsFourSingleCalls) {
  for (const DistanceKernels* table :
       {&GetDistanceKernels(), &FixedLaneKernelsPortable()}) {
    ASSERT_NE(table->squared_euclidean_x4, nullptr);
    for (size_t n = 0; n <= 2 * kFixedLaneWidth + 3; ++n) {
      // Packed (stride == n) and padded (stride > n) column layouts.
      for (size_t stride : {n, n + 3}) {
        const std::vector<double> a = Irregular(n, 0.5);
        const std::vector<double> b = Irregular(4 * stride + n, 4.2);
        double batch[4];
        table->squared_euclidean_x4(a.data(), b.data(), stride, n, batch);
        for (size_t k = 0; k < 4; ++k) {
          EXPECT_EQ(Bits(batch[k]), Bits(table->squared_euclidean(
                                        a.data(), b.data() + k * stride, n)))
              << "n=" << n << " stride=" << stride << " k=" << k;
        }
      }
    }
  }
}

TEST(DistanceKernelsFixedLane, MatchesLongDoubleSumWithinRounding) {
  const DistanceKernels& fixed = GetDistanceKernels();
  for (size_t n : {size_t{1}, size_t{7}, size_t{19}, size_t{64}}) {
    const std::vector<double> a = Irregular(n, 0.3);
    const std::vector<double> b = Irregular(n, 1.7);
    std::vector<double> w = Irregular(n, 5.5);
    for (double& x : w) x = std::fabs(x);
    // Left-to-right in extended precision: the reference the fixed 8-lane
    // order must agree with up to double rounding.
    long double sq = 0, man = 0, wsq = 0, dot = 0, na = 0, nb = 0;
    for (size_t i = 0; i < n; ++i) {
      const long double d = static_cast<long double>(a[i]) - b[i];
      sq += d * d;
      man += std::fabs(d);
      wsq += w[i] * d * d;
      dot += static_cast<long double>(a[i]) * b[i];
      na += static_cast<long double>(a[i]) * a[i];
      nb += static_cast<long double>(b[i]) * b[i];
    }
    const double cos =
        static_cast<double>(1 - dot / (std::sqrt(na) * std::sqrt(nb)));
    EXPECT_NEAR(fixed.squared_euclidean(a.data(), b.data(), n),
                static_cast<double>(sq), 1e-12 * static_cast<double>(sq))
        << "n=" << n;
    EXPECT_NEAR(fixed.manhattan(a.data(), b.data(), n),
                static_cast<double>(man), 1e-12 * static_cast<double>(man))
        << "n=" << n;
    EXPECT_NEAR(fixed.cosine(a.data(), b.data(), n), cos, 1e-12) << "n=" << n;
    EXPECT_NEAR(
        fixed.weighted_squared_euclidean(a.data(), b.data(), w.data(), n),
        static_cast<double>(wsq), 1e-12 * static_cast<double>(wsq))
        << "n=" << n;
  }
}

TEST(DistanceKernelsDispatch, ArchIsKnownAndFixedLaneUsesNativeTable) {
  const std::string arch = DistanceKernelArch();
  EXPECT_TRUE(arch == "avx2" || arch == "neon" || arch == "portable") << arch;
  // Dispatch falls back to the portable reference only when no SIMD
  // implementation applies.
  EXPECT_EQ(&GetDistanceKernels() == &FixedLaneKernelsPortable(),
            arch == "portable");
  EXPECT_NE(GetDistanceKernels().squared_euclidean_x4, nullptr);
}

// ---------------------------------------------------------------------------
// Tiled matrix build vs the per-pair oracle
// ---------------------------------------------------------------------------

// Ragged multi-tile geometry: d=96 gives ~170-row panels, so n=401 spans
// three ragged panels (170, 170, 61) including diagonal and off-diagonal
// tiles with partial edges.
Matrix TilingFixture() {
  const size_t n = 401, d = 96;
  std::vector<double> flat = Irregular(n * d, 7.7);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m.At(i, j) = flat[i * d + j];
  }
  return m;
}

TEST(DistanceMatrixTiled, BitwiseEqualsPerPairDistanceAllMetricsAndThreads) {
  const Matrix points = TilingFixture();
  const size_t n = points.rows();
  for (Metric metric : {Metric::kEuclidean, Metric::kSquaredEuclidean,
                        Metric::kManhattan, Metric::kCosine}) {
    // Condensed order: (0,1), (0,2), ..., (1,2), ...
    std::vector<double> oracle;
    oracle.reserve(n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        oracle.push_back(Distance(points.Row(i), points.Row(j), metric));
      }
    }
    for (int threads : {1, 2, 8}) {
      ExecutionContext exec;
      exec.threads = threads;
      const DistanceMatrix tiled =
          DistanceMatrix::Compute(points, metric, exec);
      ASSERT_EQ(tiled.n(), n);
      ASSERT_EQ(tiled.condensed().size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(Bits(tiled.condensed()[i]), Bits(oracle[i]))
            << "metric=" << static_cast<int>(metric)
            << " threads=" << threads << " slot=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace cvcp
