#ifndef CVCP_CORE_CROSS_VALIDATION_H_
#define CVCP_CORE_CROSS_VALIDATION_H_

/// \file
/// The paper's sound n-fold cross-validation driver (§3.1, Fig. 1): split
/// the supervision into independent train/test folds, cluster the whole
/// dataset with the training part, classify the test fold's constraints
/// with the resulting partition, and average the constraint F-measure over
/// folds. Folds are built once and reused across parameter values so CVCP
/// compares parameters on identical splits.
///
/// Execution model: every (param, fold) cell is an independent clustering
/// job with a pre-forked RNG, so the grid×fold sweep is materialized as a
/// job list and fanned out across the shared thread pool
/// (ScoreGridOnFolds). On the parallel path cells run longest-first by a
/// size-based estimate (EstimateCost) to shrink the tail, but scores are
/// always reduced in (grid-order, fold-order) sequence and the first
/// error in that order wins, which keeps results — including error
/// semantics — bit-identical to the serial loop no matter how cells are
/// scheduled.

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "constraints/folds.h"
#include "core/clusterer.h"
#include "core/supervision.h"

namespace cvcp {

/// Stream ids for the fold-construction and scoring RNG forks. RunCvcp and
/// CrossValidateParam both fork these streams off the caller's RNG, so the
/// convenience entry point and the full driver agree on randomness for
/// identical inputs.
inline constexpr uint64_t kFoldStreamId = 0xF01D5ULL;
inline constexpr uint64_t kScoreStreamId = 0x5C0BEULL;

/// Cheap a-priori cost proxy for one (param, fold) cell, used to run the
/// grid×fold cells longest-first on the parallel path:
/// (training supervision size + 1) × (|param| + 1). Both factors grow the
/// clustering work monotonically for every algorithm in the tree (more
/// constraints/labels to satisfy; larger k / MinPts neighborhood), which
/// is all longest-first ordering needs — relative, not absolute, accuracy.
double EstimateCost(int param, size_t train_size);

/// Cross-validation configuration.
struct CvConfig {
  int n_folds = 10;
  /// Scenario I only: stratify folds by class label.
  bool stratified = false;
  /// Parallelism for the grid×fold job fan-out (results are identical for
  /// any thread count; threads = 1 forces the serial code path).
  ExecutionContext exec;
};

/// Builds the scenario-appropriate folds for the given supervision:
/// Scenario I uses MakeLabelFolds, Scenario II uses MakeConstraintFolds.
Result<std::vector<FoldSplit>> MakeSupervisionFolds(
    const Dataset& data, const Supervision& supervision,
    const CvConfig& config, Rng* rng);

/// Cross-validated score of one parameter value.
struct CvScore {
  /// Mean constraint-classification F over the valid folds; NaN if none.
  double mean_f = 0.0;
  /// Per-fold averages (NaN where a fold had no test constraints).
  std::vector<double> fold_scores;
  int valid_folds = 0;
};

/// Scores every grid value on prebuilt folds through the job-based
/// scheduler: all (param, fold) cells are materialized up front, each
/// cell's RNG is pre-forked exactly as the serial loop forks it, the
/// cells run on the shared pool (`exec`) longest-first by EstimateCost,
/// and fold scores are reduced in (grid-order, fold-order) sequence with
/// first-error-wins Status propagation. Returned scores are bit-identical
/// to scoring each param serially, for every thread count and execution
/// order. When `cache` is non-null every cell clusters through the
/// per-dataset compute cache (supervision-independent stages — distance
/// matrix, OPTICS models — are built once and shared across the G×F
/// cells; results stay byte-identical, see core/dataset_cache.h).
Result<std::vector<CvScore>> ScoreGridOnFolds(
    const Dataset& data, const std::vector<FoldSplit>& folds,
    SupervisionKind kind, const SemiSupervisedClusterer& clusterer,
    const std::vector<int>& param_grid, Rng* rng,
    const ExecutionContext& exec = ExecutionContext::Serial(),
    DatasetCache* cache = nullptr);

/// Scores `param` on prebuilt folds. The clusterer sees each fold's
/// training supervision (labels when Scenario I provided them, else
/// constraints); the test fold's constraints only ever meet the finished
/// partition. Clusterer RNG is forked per (param, fold) so scores are
/// reproducible and fold order is immaterial.
Result<CvScore> ScoreParamOnFolds(
    const Dataset& data, const std::vector<FoldSplit>& folds,
    SupervisionKind kind, const SemiSupervisedClusterer& clusterer, int param,
    Rng* rng, const ExecutionContext& exec = ExecutionContext::Serial(),
    DatasetCache* cache = nullptr);

/// Convenience: folds + score in one call (fresh folds for this parameter).
/// Forks the fold/score RNG streams exactly as RunCvcp does, so for the
/// same inputs and RNG it reproduces the corresponding RunCvcp grid entry.
Result<CvScore> CrossValidateParam(const Dataset& data,
                                   const Supervision& supervision,
                                   const SemiSupervisedClusterer& clusterer,
                                   int param, const CvConfig& config, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CORE_CROSS_VALIDATION_H_
