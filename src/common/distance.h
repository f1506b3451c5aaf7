#ifndef CVCP_COMMON_DISTANCE_H_
#define CVCP_COMMON_DISTANCE_H_

/// \file
/// Distance metrics and a condensed pairwise distance matrix. Weighted
/// squared Euclidean (diagonal Mahalanobis) is the form MPCKMeans learns.
///
/// Every entry point runs the fixed-lane kernels (common/distance_kernels.h),
/// so results are bitwise-identical for any thread count, tiling, and
/// hardware.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/parallel.h"

namespace cvcp {

/// Supported point-to-point metrics.
enum class Metric {
  kEuclidean,
  kSquaredEuclidean,
  kManhattan,
  kCosine,  ///< 1 - cosine similarity; zero vectors are at distance 1.
};

/// Distance between two equal-length vectors under `metric`.
double Distance(std::span<const double> a, std::span<const double> b,
                Metric metric);

double EuclideanDistance(std::span<const double> a, std::span<const double> b);
double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b);
double ManhattanDistance(std::span<const double> a, std::span<const double> b);
double CosineDistance(std::span<const double> a, std::span<const double> b);

/// Diagonal-Mahalanobis squared distance: sum_m w[m] * (a[m]-b[m])^2.
/// Weights must be non-negative.
double WeightedSquaredEuclidean(std::span<const double> a,
                                std::span<const double> b,
                                std::span<const double> weights);

/// How a `DistanceMatrix` stores its condensed values. Distances are
/// always *computed* in double precision; `kF32` narrows each value to
/// float on store (half the memory and disk bytes, ~1e-7 relative
/// rounding on read-back). Artifacts of the two modes are keyed apart
/// and never satisfy each other.
enum class DistanceStorage {
  kF64 = 0,
  kF32 = 1,
};

/// Stable display name: "f64" / "f32".
const char* DistanceStorageName(DistanceStorage storage);

/// Parses "f64" / "f32" (also "double" / "float"). Returns false and
/// leaves `*out` untouched on an unrecognized name.
bool ParseDistanceStorage(const char* name, DistanceStorage* out);

/// Deterministic double→float narrowing for the f32 storage mode.
/// `static_cast<float>` of a finite double beyond float range is
/// undefined behavior ([conv.double]), so the overflow case is made
/// explicit: finite values at or past the IEEE round-to-nearest-even
/// overflow threshold (0x1.ffffffp+127, halfway between FLT_MAX and
/// 2^128) saturate to ±infinity, and everything below it narrows with
/// the ordinary correctly-rounded cast — bit-identical to what
/// hardware conversion produces for every input, but defined for all
/// of them. Every f32 narrowing site must go through this helper
/// (pinned by tests/distance_test.cc's overflow cases and the
/// float-cast-overflow sanitizer leg of the asan-ubsan CI job).
inline float NarrowToF32(double value) {
  constexpr double kOverflowThreshold = 0x1.ffffffp+127;
  if (value >= kOverflowThreshold) {
    return std::numeric_limits<float>::infinity();
  }
  if (value <= -kOverflowThreshold) {
    return -std::numeric_limits<float>::infinity();
  }
  return static_cast<float>(value);
}

/// Precomputed symmetric pairwise distances, condensed upper-triangular
/// storage: n*(n-1)/2 values. Diagonal is implicitly zero. Values are
/// always computed in double precision; the storage mode optionally
/// narrows them to float (DistanceStorage::kF32) for half the memory.
class DistanceMatrix {
 public:
  DistanceMatrix() : n_(0) {}

  /// Computes all pairwise distances between rows of `points` with a
  /// tiled (cache-blocked) sweep: row-panel × column-panel tiles sized
  /// to L2, the column panel repacked into a contiguous scratch buffer,
  /// one parallel task per tile. Each pair's value is a pure function of
  /// its two rows, and every entry lands in its own condensed slot, so
  /// the result is bit-identical for any thread count and any tile shape
  /// (pinned slot by slot against the per-pair `Distance`).
  static DistanceMatrix Compute(const Matrix& points, Metric metric,
                                const ExecutionContext& exec = {},
                                DistanceStorage storage =
                                    DistanceStorage::kF64);

  /// Rehydrates a matrix from condensed f64 storage (the artifact
  /// store's deserialization path). `data` must hold exactly n*(n-1)/2
  /// entries.
  static DistanceMatrix FromCondensed(size_t n, std::vector<double> data);

  /// Rehydrates a matrix from condensed f32 storage.
  static DistanceMatrix FromCondensed32(size_t n, std::vector<float> data);

  size_t n() const { return n_; }

  /// How the condensed values are stored (f64 unless Compute was asked
  /// for f32).
  DistanceStorage storage() const { return storage_; }

  /// The raw condensed upper-triangular f64 storage, in CondensedIndex
  /// order (the artifact store's serialization path). Only valid when
  /// `storage() == kF64`.
  const std::vector<double>& condensed() const {
    CVCP_CHECK(storage_ == DistanceStorage::kF64);
    return data_;
  }

  /// The raw condensed f32 storage. Only valid when `storage() == kF32`.
  const std::vector<float>& condensed32() const {
    CVCP_CHECK(storage_ == DistanceStorage::kF32);
    return data32_;
  }

  /// Bytes held by the condensed storage (the memory-tier cache charge).
  size_t MemoryBytes() const {
    return data_.size() * sizeof(double) + data32_.size() * sizeof(float);
  }

  /// Distance between objects i and j (order-insensitive). f32 storage
  /// widens back to double on read.
  double operator()(size_t i, size_t j) const {
    CVCP_DCHECK_LT(i, n_);
    CVCP_DCHECK_LT(j, n_);
    if (i == j) return 0.0;
    const size_t idx = CondensedIndex(i, j);
    return storage_ == DistanceStorage::kF32
               ? static_cast<double>(data32_[idx])
               : data_[idx];
  }

  /// Index of the (i, j) pair (i != j, order-insensitive) in the condensed
  /// row-major upper-triangular storage. Exposed so tests can pin the
  /// addressing scheme the parallel Compute writes into.
  size_t CondensedIndex(size_t i, size_t j) const {
    CVCP_DCHECK_LT(i, n_);
    CVCP_DCHECK_LT(j, n_);
    CVCP_DCHECK(i != j);  // the diagonal has no condensed slot
    if (i > j) std::swap(i, j);
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

 private:
  size_t n_;
  DistanceStorage storage_ = DistanceStorage::kF64;
  std::vector<double> data_;
  std::vector<float> data32_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_DISTANCE_H_
