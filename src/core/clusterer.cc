#include "core/clusterer.h"

#include "cluster/dendrogram.h"
#include "cluster/optics.h"
#include "core/dataset_cache.h"

namespace cvcp {

void SemiSupervisedClusterer::PrewarmCache(const Dataset& data,
                                           std::span<const int> param_grid,
                                           DatasetCache* cache,
                                           const ExecutionContext& exec) const {
  (void)data;
  (void)param_grid;
  (void)cache;
  (void)exec;
}

void FoscOpticsDendClusterer::PrewarmCache(const Dataset& data,
                                           std::span<const int> param_grid,
                                           DatasetCache* cache,
                                           const ExecutionContext& exec) const {
  (void)data;  // the cache already fronts the dataset's points
  if (cache == nullptr) return;
  cache->Prewarm(metric_, param_grid, exec);
}

Result<FoscOpticsModel> FoscOpticsDendClusterer::BuildModel(
    const Dataset& data, int param) const {
  OpticsConfig optics_config;
  optics_config.min_pts = param;
  optics_config.metric = metric_;
  CVCP_ASSIGN_OR_RETURN(OpticsResult optics,
                        RunOptics(data.points(), optics_config));
  FoscOpticsModel model;
  model.optics = std::move(optics);
  model.dendrogram = Dendrogram::FromReachability(model.optics);
  return model;
}

Result<Clustering> FoscOpticsDendClusterer::ExtractWithSupervision(
    const FoscOpticsModel& model, const Supervision& supervision) const {
  CVCP_ASSIGN_OR_RETURN(
      FoscResult fosc,
      ExtractClusters(model.dendrogram, supervision.constraints(), fosc_));
  return fosc.clustering;
}

Result<Clustering> FoscOpticsDendClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& context) const {
  (void)rng;  // the pipeline is deterministic
  if (context.cache != nullptr) {
    // Memoized supervision-independent model: OPTICS runs once per
    // (metric, MinPts) for the dataset instead of once per fold×trial.
    CVCP_ASSIGN_OR_RETURN(
        std::shared_ptr<const FoscOpticsModel> model,
        context.cache->FoscModel(metric_, param, context.exec));
    return ExtractWithSupervision(*model, supervision);
  }
  CVCP_ASSIGN_OR_RETURN(FoscOpticsModel model, BuildModel(data, param));
  return ExtractWithSupervision(model, supervision);
}

Result<Clustering> MpckMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& context) const {
  (void)context;  // nothing here is cached per dataset
  MpckMeansConfig config = base_;
  config.k = param;
  CVCP_ASSIGN_OR_RETURN(
      MpckMeansResult result,
      RunMpckMeans(data.points(), supervision.constraints(), config, rng));
  return result.clustering;
}

Result<Clustering> CopKMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& context) const {
  (void)context;  // nothing here is cached per dataset
  CopKMeansConfig config = base_;
  config.k = param;
  Result<CopKMeansResult> result =
      RunCopKMeans(data.points(), supervision.constraints(), config, rng);
  if (result.ok()) return std::move(result).value().clustering;
  if (result.status().code() != StatusCode::kInfeasible) {
    return result.status();
  }
  // Hard constraints dead-ended: degrade to unconstrained k-means rather
  // than aborting the whole model-selection sweep.
  KMeansConfig km;
  km.k = param;
  CVCP_ASSIGN_OR_RETURN(KMeansResult fallback,
                        RunKMeans(data.points(), km, rng));
  return fallback.clustering;
}

Result<Clustering> KMeansClusterer::DoCluster(
    const Dataset& data, const Supervision& supervision, int param, Rng* rng,
    const ClusterContext& context) const {
  (void)supervision;
  (void)context;  // nothing here is cached per dataset
  KMeansConfig config = base_;
  config.k = param;
  CVCP_ASSIGN_OR_RETURN(KMeansResult result,
                        RunKMeans(data.points(), config, rng));
  return result.clustering;
}

}  // namespace cvcp
