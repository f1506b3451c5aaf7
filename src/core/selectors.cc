#include "core/selectors.h"

#include <cmath>
#include <limits>

#include "cluster/silhouette.h"
#include "core/dataset_cache.h"

namespace cvcp {

Result<SilhouetteSelection> SelectBySilhouette(
    const Dataset& data, const Supervision& supervision,
    const SemiSupervisedClusterer& clusterer, std::span<const int> param_grid,
    Rng* rng, const ClusterContext& context) {
  if (param_grid.empty()) {
    return Status::InvalidArgument(
        "silhouette selection needs a non-empty parameter grid");
  }
  SilhouetteSelection sel;
  sel.silhouettes.reserve(param_grid.size());
  bool have_best = false;
  for (size_t gi = 0; gi < param_grid.size(); ++gi) {
    const int param = param_grid[gi];
    // Fork by grid *index*, not value: duplicate grid entries must get
    // independent streams, negative params must not wrap through the
    // uint64_t cast, and the harness's full-supervision sweep forks by
    // index — same rng, same position, same clustering in both.
    Rng run_rng = rng->Fork(gi);
    CVCP_ASSIGN_OR_RETURN(
        Clustering clustering,
        clusterer.Cluster(data, supervision, param, &run_rng, context));
    // Same doubles either way: the cached matrix holds exactly the
    // distances the on-the-fly scan computes, in the same positions.
    const double sil =
        context.cache != nullptr
            ? SilhouetteCoefficient(
                  *context.cache->Distances(Metric::kEuclidean, context.exec),
                  clustering)
            : SilhouetteCoefficient(data.points(), clustering);
    sel.silhouettes.push_back(sil);
    if (!std::isnan(sil) && (!have_best || sil > sel.best_silhouette)) {
      sel.best_silhouette = sil;
      sel.best_param = param;
      sel.best_clustering = std::move(clustering);
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::FailedPrecondition(
        "silhouette undefined for every grid value");
  }
  return sel;
}

double ExpectedQuality(std::span<const double> external_scores) {
  double sum = 0.0;
  size_t count = 0;
  for (double s : external_scores) {
    if (!std::isnan(s)) {
      sum += s;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count)
                   : std::numeric_limits<double>::quiet_NaN();
}

int OracleIndex(std::span<const double> external_scores) {
  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < external_scores.size(); ++i) {
    if (!std::isnan(external_scores[i]) && external_scores[i] > best_score) {
      best_score = external_scores[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace cvcp
