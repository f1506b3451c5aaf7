#ifndef CVCP_CLUSTER_COPKMEANS_H_
#define CVCP_CLUSTER_COPKMEANS_H_

/// \file
/// COP-KMeans (Wagstaff, Cardie, Rogers & Schrödl, ICML 2001): k-means with
/// *hard* constraint satisfaction — a point may only join the nearest
/// cluster that violates none of its must-/cannot-links given the
/// assignments made so far; if no cluster is feasible the pass fails and the
/// run is restarted with a different order/seeding. Included as the
/// extension algorithm for the "CVCP with other methods" future-work
/// experiment (`cvcp_bench ablation_copkmeans`).

#include "cluster/clustering.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// COP-KMeans configuration.
struct CopKMeansConfig {
  int k = 2;
  int max_iters = 100;
  /// Restarts attempted before reporting infeasibility.
  int max_restarts = 10;
  double tol = 1e-6;
};

/// Output of a successful COP-KMeans run.
struct CopKMeansResult {
  Clustering clustering;
  Matrix centroids;
  double inertia;
  int iterations;
  int restarts_used;
};

/// Runs COP-KMeans. The must-link transitive closure is honored by
/// assigning whole must-components atomically. Errors with kInfeasible if
/// no constraint-respecting assignment is found within max_restarts, and
/// propagates kInconsistentConstraints for contradictory input.
Result<CopKMeansResult> RunCopKMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const CopKMeansConfig& config, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_COPKMEANS_H_
