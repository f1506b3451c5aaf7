#ifndef CVCP_CLUSTER_SILHOUETTE_H_
#define CVCP_CLUSTER_SILHOUETTE_H_

/// \file
/// Silhouette coefficient (Kaufman & Rousseeuw 1990) — the paper's baseline
/// for selecting k for MPCKMeans (§4.3): among candidate k values, pick the
/// clustering with the highest mean silhouette. Exact O(n^2) form plus the
/// centroid-based "simplified silhouette" as a cheaper variant.

#include "cluster/clustering.h"
#include "common/distance.h"
#include "common/matrix.h"

namespace cvcp {

/// Mean silhouette over all clustered objects. Conventions:
///  * noise objects are ignored;
///  * objects in singleton clusters get s(i) = 0 (Kaufman & Rousseeuw);
///  * returns NaN when fewer than 2 clusters have members (silhouette
///    undefined), which makes a k=1 candidate never win model selection.
double SilhouetteCoefficient(const Matrix& points, const Clustering& clustering,
                             Metric metric = Metric::kEuclidean);

/// Same, against a precomputed distance matrix.
double SilhouetteCoefficient(const DistanceMatrix& distances,
                             const Clustering& clustering);

/// Simplified silhouette: distances to cluster centroids instead of mean
/// pairwise distances. O(n k d).
double SimplifiedSilhouette(const Matrix& points, const Clustering& clustering);

}  // namespace cvcp

#endif  // CVCP_CLUSTER_SILHOUETTE_H_
