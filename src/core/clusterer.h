#ifndef CVCP_CORE_CLUSTERER_H_
#define CVCP_CORE_CLUSTERER_H_

/// \file
/// The pluggable algorithm interface CVCP selects models for, plus the
/// adapters for the algorithms shipped with the library. A clusterer maps
/// (dataset, supervision, one integer parameter) to a flat clustering of
/// the *whole* dataset; CVCP sweeps the parameter.
///
/// Every run receives a `ClusterContext` carrying an optional per-dataset
/// `DatasetCache` (core/dataset_cache.h): algorithms whose early stages
/// are supervision-independent (FOSC-OPTICSDend's distances, OPTICS
/// ordering, and dendrogram) reuse those stages across the grid×fold×trial
/// sweep through the cache instead of recomputing them per cell. The cache
/// returns the same doubles the uncached path computes, so results are
/// byte-identical with or without it.

#include <memory>
#include <span>
#include <string>

#include "cluster/clustering.h"
#include "cluster/copkmeans.h"
#include "cluster/fosc.h"
#include "cluster/kmeans.h"
#include "cluster/mpckmeans.h"
#include "common/dataset.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/supervision.h"

namespace cvcp {

class DatasetCache;       // core/dataset_cache.h
struct FoscOpticsModel;   // core/dataset_cache.h

/// Per-run context threaded through `SemiSupervisedClusterer::Cluster`.
struct ClusterContext {
  /// Cache of supervision-independent per-dataset structures (distance
  /// matrix, OPTICS models). nullptr = compute everything from scratch;
  /// results are byte-identical either way.
  DatasetCache* cache = nullptr;
  /// Thread budget for one-off shared builds behind the cache (e.g. the
  /// first distance-matrix build). Serial by default.
  ExecutionContext exec = ExecutionContext::Serial();
};

/// A semi-supervised clustering algorithm with one integer hyperparameter.
class SemiSupervisedClusterer {
 public:
  virtual ~SemiSupervisedClusterer() = default;

  /// Display name ("FOSC-OPTICSDend", "MPCKMeans", ...).
  virtual std::string name() const = 0;

  /// What the swept parameter means ("MinPts", "k", ...).
  virtual std::string param_name() const = 0;

  /// Clusters all of `data` using the supervision. `context` optionally
  /// supplies the per-dataset compute cache; the default context runs
  /// cache-less and produces identical results.
  Result<Clustering> Cluster(const Dataset& data,
                             const Supervision& supervision, int param,
                             Rng* rng,
                             const ClusterContext& context = {}) const {
    return DoCluster(data, supervision, param, rng, context);
  }

  /// True for centroid-style algorithms whose output the Silhouette
  /// baseline is meaningful for (paper §4.3 uses Silhouette only for
  /// MPCKMeans).
  virtual bool IsCentroidBased() const { return false; }

  /// Pre-builds (or pre-loads, when a disk tier is configured) every
  /// supervision-independent artifact the grid sweep will need into
  /// `cache`, so the grid×fold×trial fan-out that follows only ever
  /// hits. Default: no-op — most algorithms have nothing cacheable.
  /// No-op on a null cache. Per-param build errors are memoized in the
  /// cache, not surfaced here; the sweep reports them per cell exactly as
  /// a cold cache would.
  virtual void PrewarmCache(const Dataset& data,
                            std::span<const int> param_grid,
                            DatasetCache* cache,
                            const ExecutionContext& exec) const;

 protected:
  /// Implementation hook for Cluster. Implementations may ignore
  /// `context`; ones that use the cache must return byte-identical results
  /// with and without it (the engine's determinism contract).
  virtual Result<Clustering> DoCluster(const Dataset& data,
                                       const Supervision& supervision,
                                       int param, Rng* rng,
                                       const ClusterContext& context) const = 0;
};

/// FOSC-OPTICSDend (param = MinPts): OPTICS ordering -> reachability
/// dendrogram -> FOSC extraction under the constraint objective. The
/// OPTICS + dendrogram stage is supervision-independent and split out as
/// `BuildModel` so the per-dataset cache can share it across all folds and
/// trials of a parameter value; `ExtractWithSupervision` is the only stage
/// that sees the constraints.
class FoscOpticsDendClusterer : public SemiSupervisedClusterer {
 public:
  explicit FoscOpticsDendClusterer(FoscConfig fosc = {},
                                   Metric metric = Metric::kEuclidean)
      : fosc_(fosc), metric_(metric) {}

  std::string name() const override { return "FOSC-OPTICSDend"; }
  std::string param_name() const override { return "MinPts"; }

  /// The supervision-independent stage: OPTICS at MinPts = `param` plus
  /// the OPTICSDend dendrogram. Uncached entry point; `DoCluster` goes
  /// through `DatasetCache::FoscModel` (which builds the identical model
  /// from the cached distance matrix) when a cache is available.
  Result<FoscOpticsModel> BuildModel(const Dataset& data, int param) const;

  /// The supervision-dependent stage: FOSC extraction of a flat clustering
  /// from the model's dendrogram under the constraint objective.
  Result<Clustering> ExtractWithSupervision(
      const FoscOpticsModel& model, const Supervision& supervision) const;

  Metric metric() const { return metric_; }

  /// Warms the cache's distance matrix and every grid model — the whole
  /// supervision-independent phase — before the fan-out.
  void PrewarmCache(const Dataset& data, std::span<const int> param_grid,
                    DatasetCache* cache,
                    const ExecutionContext& exec) const override;

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  FoscConfig fosc_;
  Metric metric_;
};

/// MPCKMeans (param = k).
class MpckMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit MpckMeansClusterer(MpckMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "MPCKMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  MpckMeansConfig base_;
};

/// COP-KMeans (param = k); hard constraints, used by the extension bench.
/// Infeasible runs fall back to unconstrained k-means so model selection
/// always receives a clustering (recorded via `fallbacks` counters by the
/// caller if needed).
class CopKMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit CopKMeansClusterer(CopKMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "COP-KMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  CopKMeansConfig base_;
};

/// Plain k-means (param = k), ignoring supervision — the unsupervised
/// control.
class KMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit KMeansClusterer(KMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "KMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  KMeansConfig base_;
};

}  // namespace cvcp

#endif  // CVCP_CORE_CLUSTERER_H_
