#ifndef CVCP_CORE_FMEASURE_H_
#define CVCP_CORE_FMEASURE_H_

/// \file
/// The paper's classification view of constraint satisfaction (§3.2): a
/// clustering is a binary classifier over pairs — "same cluster" predicts
/// must-link (class 1), "different clusters" predicts cannot-link
/// (class 0). Per-class precision/recall/F are computed from the test
/// constraints and the *average of the two class F-measures* is the
/// internal quality score CVCP maximizes.
///
/// Noise objects are singletons, so any pair touching noise is classified
/// "not together" (cluster/clustering.h). A class with no constraints in
/// the test fold is excluded from the average; if both classes are empty
/// the score is NaN and the fold is skipped by the CV driver.

#include "cluster/clustering.h"
#include "constraints/constraint_set.h"

namespace cvcp {

/// Outcome counts and derived scores of classifying one test fold's
/// constraints with a clustering.
struct ConstraintFMeasure {
  // Raw pair outcomes.
  size_t ml_together = 0;  ///< must-link satisfied  (TP of class 1)
  size_t ml_apart = 0;     ///< must-link violated   (FN of class 1)
  size_t cl_apart = 0;     ///< cannot-link satisfied (TP of class 0)
  size_t cl_together = 0;  ///< cannot-link violated  (FN of class 0)

  // Class 1 = must-link.
  double precision_must = 0.0;
  double recall_must = 0.0;
  double f_must = 0.0;  ///< NaN if the fold has no must-links

  // Class 0 = cannot-link.
  double precision_cannot = 0.0;
  double recall_cannot = 0.0;
  double f_cannot = 0.0;  ///< NaN if the fold has no cannot-links

  /// Mean of the defined class F-measures; NaN if neither is defined.
  double average = 0.0;
};

/// Classifies `test_constraints` with `clustering` and scores the result.
ConstraintFMeasure EvaluateConstraintClassification(
    const Clustering& clustering, const ConstraintSet& test_constraints);

}  // namespace cvcp

#endif  // CVCP_CORE_FMEASURE_H_
