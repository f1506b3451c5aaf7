#ifndef CVCP_CLUSTER_OPTICS_H_
#define CVCP_CLUSTER_OPTICS_H_

/// \file
/// OPTICS (Ankerst, Breunig, Kriegel & Sander, SIGMOD 1999): computes a
/// density-based cluster ordering with reachability distances. Run with
/// eps = infinity (the default here) the ordering covers the whole dataset
/// in one walk, which is what the OPTICSDend dendrogram construction
/// (dendrogram.h) consumes. O(n^2) scan — no spatial index; the paper's
/// datasets are all n <= 351.

#include <limits>
#include <vector>

#include "common/distance.h"
#include "common/matrix.h"
#include "common/status.h"

namespace cvcp {

/// OPTICS configuration.
struct OpticsConfig {
  /// MinPts: neighborhood size that makes a point a core point. This is the
  /// parameter CVCP selects for FOSC-OPTICSDend.
  int min_pts = 5;
  /// Generating radius; infinity processes everything in one component.
  double eps = std::numeric_limits<double>::infinity();
  Metric metric = Metric::kEuclidean;
};

/// The cluster ordering.
struct OpticsResult {
  /// Object ids in processing order.
  std::vector<size_t> order;
  /// Reachability distance of order[i] at its position; order[0] (and every
  /// point starting a new connected component) has +infinity.
  std::vector<double> reachability;
  /// Core distance per *object id* (not order position); +infinity when the
  /// point never had MinPts neighbors within eps.
  std::vector<double> core_distance;
};

/// Runs OPTICS over all rows of `points`. Errors with kInvalidArgument for
/// min_pts < 1 or min_pts > n.
Result<OpticsResult> RunOptics(const Matrix& points,
                               const OpticsConfig& config);

/// Same, but against a precomputed distance matrix (used when sweeping
/// MinPts over a fixed dataset — distances are computed once).
Result<OpticsResult> RunOptics(const DistanceMatrix& distances,
                               const OpticsConfig& config);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_OPTICS_H_
