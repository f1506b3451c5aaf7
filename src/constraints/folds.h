#ifndef CVCP_CONSTRAINTS_FOLDS_H_
#define CVCP_CONSTRAINTS_FOLDS_H_

/// \file
/// Sound n-fold cross-validation splits for semi-supervised clustering
/// (paper §3.1). The invariant both scenarios establish: *no constraint in
/// the test fold is derivable from the training information* — i.e. the
/// transitive closures of the two sides share no pair of objects at all
/// (objects are partitioned between the sides).
///
/// Scenario I  (labels given):      partition the labeled objects into n
///   folds; derive constraints independently inside the n-1 training folds
///   and inside the test fold.
/// Scenario II (constraints given): extend the given constraints by their
///   transitive closure, partition the *objects involved in constraints*
///   into n folds, delete every constraint with one endpoint in training
///   and one in test, and take the closure separately per side.

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// One train/test split of the available supervision.
struct FoldSplit {
  /// Objects whose supervision feeds the clustering algorithm.
  std::vector<size_t> train_objects;
  /// Objects whose derived constraints are used only for evaluation.
  std::vector<size_t> test_objects;
  /// Constraints given to the semi-supervised clusterer.
  ConstraintSet train_constraints;
  /// Constraints used to estimate the classification error.
  ConstraintSet test_constraints;
  /// Scenario I only: labels usable directly by label-based algorithms.
  /// Full dataset length; -1 everywhere except `train_objects`. Empty in
  /// Scenario II.
  std::vector<int> train_labels;
};

/// Cross-validation configuration.
struct FoldConfig {
  int n_folds = 10;
  /// Scenario I: spread each class evenly over folds. The paper uses plain
  /// random folds, and so does `cvcp_bench ablation_folds`, which varies
  /// only n_folds; stratification is provided as an option.
  bool stratified = false;
};

/// Scenario I. `labeled_objects` are the supervised object ids; `labels` is
/// indexed by object id over the full dataset (size `n_total`). Errors with
/// kInvalidArgument if n_folds < 2 or there are fewer labeled objects than
/// folds.
Result<std::vector<FoldSplit>> MakeLabelFolds(
    const std::vector<size_t>& labeled_objects, const std::vector<int>& labels,
    size_t n_total, const FoldConfig& config, Rng* rng);

/// Scenario II. Errors with kInvalidArgument if n_folds < 2 or the
/// constraint set involves fewer objects than folds, and propagates
/// kInconsistentConstraints from the closure.
Result<std::vector<FoldSplit>> MakeConstraintFolds(
    const ConstraintSet& constraints, const FoldConfig& config, Rng* rng);

/// Deliberately *unsound* Scenario II splitter used by `cvcp_bench
/// ablation_leakage`: splits the constraint list itself into n folds (no
/// object partitioning, no graph cut), exactly the naive procedure §3.1
/// warns against.
Result<std::vector<FoldSplit>> MakeNaiveConstraintFolds(
    const ConstraintSet& constraints, const FoldConfig& config, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CONSTRAINTS_FOLDS_H_
