#include "common/distance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace cvcp {
namespace {

const std::vector<double> kA = {0.0, 0.0, 0.0};
const std::vector<double> kB = {1.0, 2.0, 2.0};

TEST(DistanceTest, Euclidean) {
  EXPECT_DOUBLE_EQ(EuclideanDistance(kA, kB), 3.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(kA, kA), 0.0);
}

TEST(DistanceTest, SquaredEuclidean) {
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(kA, kB), 9.0);
}

TEST(DistanceTest, Manhattan) {
  EXPECT_DOUBLE_EQ(ManhattanDistance(kA, kB), 5.0);
}

TEST(DistanceTest, Cosine) {
  std::vector<double> x = {1.0, 0.0};
  std::vector<double> y = {0.0, 1.0};
  std::vector<double> z = {2.0, 0.0};
  EXPECT_DOUBLE_EQ(CosineDistance(x, y), 1.0);        // orthogonal
  EXPECT_NEAR(CosineDistance(x, z), 0.0, 1e-12);      // parallel
  std::vector<double> neg = {-1.0, 0.0};
  EXPECT_NEAR(CosineDistance(x, neg), 2.0, 1e-12);    // opposite
}

TEST(DistanceTest, CosineZeroVectorConvention) {
  std::vector<double> zero = {0.0, 0.0};
  std::vector<double> x = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(CosineDistance(zero, x), 1.0);
}

TEST(DistanceTest, WeightedSquaredEuclidean) {
  std::vector<double> w = {2.0, 0.5, 1.0};
  // 2*(1)^2 + 0.5*(2)^2 + 1*(2)^2 = 2 + 2 + 4 = 8.
  EXPECT_DOUBLE_EQ(WeightedSquaredEuclidean(kA, kB, w), 8.0);
  // All-ones weights reduce to squared Euclidean.
  std::vector<double> ones = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(WeightedSquaredEuclidean(kA, kB, ones),
                   SquaredEuclideanDistance(kA, kB));
}

TEST(DistanceTest, DispatchMatchesDirectCalls) {
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kEuclidean),
                   EuclideanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kSquaredEuclidean),
                   SquaredEuclideanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kManhattan),
                   ManhattanDistance(kA, kB));
  EXPECT_DOUBLE_EQ(Distance(kA, kB, Metric::kCosine), CosineDistance(kA, kB));
}

TEST(DistanceMatrixTest, MatchesDirectComputation) {
  Matrix points = Matrix::FromRows({{0, 0}, {3, 4}, {6, 8}, {-1, 0}});
  DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  EXPECT_EQ(dm.n(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(dm(i, j),
                       EuclideanDistance(points.Row(i), points.Row(j)))
          << i << "," << j;
    }
  }
}

TEST(DistanceMatrixTest, SymmetricAndZeroDiagonal) {
  Matrix points = Matrix::FromRows({{1, 2}, {5, 5}, {-3, 0}});
  DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kManhattan);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(dm(i, i), 0.0);
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(dm(i, j), dm(j, i));
  }
}

TEST(DistanceMatrixTest, CondensedIndexExhaustiveSmallN) {
  // The condensed layout enumerates pairs (i, j), i < j, row-major: the
  // index must count 0, 1, 2, ... in that order and be order-insensitive.
  // Parallel Compute writes through exactly this addressing, so pin it.
  for (size_t n = 2; n <= 9; ++n) {
    DistanceMatrix dm = DistanceMatrix::Compute(
        Matrix(n, 1), Metric::kEuclidean);  // layout depends only on n
    ASSERT_EQ(dm.n(), n);
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++expected) {
        EXPECT_EQ(dm.CondensedIndex(i, j), expected)
            << "n=" << n << " (" << i << "," << j << ")";
        EXPECT_EQ(dm.CondensedIndex(j, i), expected)
            << "n=" << n << " (" << j << "," << i << ")";
      }
    }
    // Exactly n*(n-1)/2 slots, so the last pair hits the final index.
    EXPECT_EQ(expected, n * (n - 1) / 2);
  }
}

TEST(DistanceMatrixTest, ParallelComputeBitIdenticalToSerial) {
  // Deterministic but irregular points so every entry is distinct.
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 37; ++i) {
    const double x = static_cast<double>(i);
    rows.push_back({x * 1.7 - 3.0, x * x * 0.013, 31.0 - x});
  }
  Matrix points = Matrix::FromRows(rows);
  DistanceMatrix serial =
      DistanceMatrix::Compute(points, Metric::kEuclidean,
                              ExecutionContext::Serial());
  for (int threads : {2, 3, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    DistanceMatrix parallel =
        DistanceMatrix::Compute(points, Metric::kEuclidean, exec);
    ASSERT_EQ(parallel.n(), serial.n());
    for (size_t i = 0; i < serial.n(); ++i) {
      for (size_t j = 0; j < serial.n(); ++j) {
        EXPECT_EQ(parallel(i, j), serial(i, j))
            << "(" << i << "," << j << "), threads " << threads;
      }
    }
  }
}

// NarrowToF32 is the only sanctioned double→float path (the f32 storage
// mode); these cases pin its saturation semantics at the exact IEEE
// round-to-nearest-even boundary. An unguarded static_cast here would be
// undefined behavior for the overflowing inputs (caught by the
// float-cast-overflow sanitizer leg on Clang).
TEST(NarrowToF32Test, SaturatesExactlyAtTheIeeeOverflowThreshold) {
  constexpr double kFloatMax =
      static_cast<double>(std::numeric_limits<float>::max());
  constexpr double kThreshold = 0x1.ffffffp+127;
  const float inf = std::numeric_limits<float>::infinity();

  EXPECT_EQ(NarrowToF32(kFloatMax), std::numeric_limits<float>::max());
  // Between FLT_MAX and the threshold: rounds down to FLT_MAX, exactly
  // as hardware conversion does.
  EXPECT_EQ(NarrowToF32(0x1.fffffeffp+127),
            std::numeric_limits<float>::max());
  // At and past the threshold: saturates to infinity.
  EXPECT_EQ(NarrowToF32(kThreshold), inf);
  EXPECT_EQ(NarrowToF32(1e39), inf);
  EXPECT_EQ(NarrowToF32(-kThreshold), -inf);
  EXPECT_EQ(NarrowToF32(-1e39), -inf);
  EXPECT_EQ(NarrowToF32(std::numeric_limits<double>::infinity()), inf);
  // In-range values narrow with ordinary correct rounding.
  EXPECT_EQ(NarrowToF32(0.1), 0.1f);
  EXPECT_EQ(NarrowToF32(0.0), 0.0f);
}

TEST(DistanceMatrixTest, F32StorageSaturatesOverflowingDistances) {
  // Squared-Euclidean distances between these rows overflow float range
  // (≈1.6e39 > FLT_MAX ≈ 3.4e38) while staying finite in double. The
  // f32 storage mode must narrow them to +inf deterministically — not
  // through an out-of-range cast.
  Matrix points = Matrix::FromRows({{2e19, 0.0}, {-2e19, 0.0}, {1e19, 0.0}});
  DistanceMatrix dm = DistanceMatrix::Compute(
      points, Metric::kSquaredEuclidean, {}, DistanceStorage::kF32);
  const double inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(dm(0, 1), inf);  // (4e19)^2 = 1.6e39 overflows
  EXPECT_EQ(dm(1, 2), inf);  // (3e19)^2 = 9e38 overflows
  // (1e19)^2 = 1e38 < FLT_MAX narrows with ordinary rounding.
  EXPECT_EQ(dm(0, 2), static_cast<double>(NarrowToF32(1e38)));
  EXPECT_LT(dm(0, 2), inf);
}

TEST(DistanceMatrixTest, TinyInputs) {
  Matrix one = Matrix::FromRows({{1, 1}});
  DistanceMatrix dm1 = DistanceMatrix::Compute(one, Metric::kEuclidean);
  EXPECT_EQ(dm1.n(), 1u);
  EXPECT_DOUBLE_EQ(dm1(0, 0), 0.0);

  DistanceMatrix dm0 = DistanceMatrix::Compute(Matrix(), Metric::kEuclidean);
  EXPECT_EQ(dm0.n(), 0u);
}

}  // namespace
}  // namespace cvcp
