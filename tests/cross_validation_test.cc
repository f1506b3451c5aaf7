#include "core/cross_validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "data/generators.h"

namespace cvcp {
namespace {

Dataset EasyData(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeBlobs("easy", 3, 25, 2, 25.0, 0.8, &rng);
}

TEST(MakeSupervisionFoldsTest, DispatchesByKind) {
  Dataset data = EasyData();
  Rng rng(2);
  // Scenario I.
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision by_labels = Supervision::FromLabels(data, labeled.value());
  auto folds_l = MakeSupervisionFolds(data, by_labels,
                                      {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(folds_l.ok());
  EXPECT_EQ(folds_l->size(), 4u);
  EXPECT_FALSE((*folds_l)[0].train_labels.empty());

  // Scenario II.
  auto pool = BuildConstraintPool(data, 0.2, &rng);
  ASSERT_TRUE(pool.ok());
  Supervision by_constraints = Supervision::FromConstraints(pool.value());
  auto folds_c =
      MakeSupervisionFolds(data, by_constraints,
                           {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(folds_c.ok());
  EXPECT_EQ(folds_c->size(), 4u);
  EXPECT_TRUE((*folds_c)[0].train_labels.empty());
}

TEST(ScoreParamOnFoldsTest, GoodParamScoresHighOnEasyData) {
  Dataset data = EasyData();
  Rng rng(3);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 5, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());

  MpckMeansClusterer clusterer;
  auto score = ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer,
                                 /*param=*/3, &rng);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->fold_scores.size(), 5u);
  EXPECT_EQ(score->valid_folds, 5);
  EXPECT_GT(score->mean_f, 0.9);
}

TEST(ScoreParamOnFoldsTest, BadParamScoresLower) {
  Dataset data = EasyData();
  Rng rng(4);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 5, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());

  MpckMeansClusterer clusterer;
  Rng rng_good(5), rng_bad(5);
  auto good = ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer,
                                3, &rng_good);
  auto bad = ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer,
                               10, &rng_bad);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(good->mean_f, bad->mean_f);
}

TEST(ScoreParamOnFoldsTest, DeterministicGivenSameRngSeed) {
  Dataset data = EasyData();
  Rng rng(6);
  auto labeled = SampleLabeledObjects(data, 0.2, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 3, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());
  MpckMeansClusterer clusterer;
  Rng a(7), b(7);
  auto ra =
      ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer, 3, &a);
  auto rb =
      ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer, 3, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->fold_scores, rb->fold_scores);
}

TEST(CrossValidateParamTest, EndToEndConstraintScenario) {
  Dataset data = EasyData();
  Rng rng(8);
  auto pool = BuildConstraintPool(data, 0.25, &rng);
  ASSERT_TRUE(pool.ok());
  Supervision supervision = Supervision::FromConstraints(pool.value());
  FoscOpticsDendClusterer clusterer;
  auto score = CrossValidateParam(data, supervision, clusterer, /*MinPts=*/4,
                                  {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(score.ok());
  EXPECT_GE(score->valid_folds, 1);
  EXPECT_GT(score->mean_f, 0.5);
}

TEST(CrossValidateParamTest, AgreesWithRunCvcpOnIdenticalInputs) {
  // Regression test: CrossValidateParam must fork its fold/score RNG
  // streams exactly like RunCvcp (kFoldStreamId / kScoreStreamId), so the
  // convenience entry point reproduces the corresponding grid entry of the
  // full driver bit-for-bit.
  Dataset data = EasyData();
  Rng rng(10);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  MpckMeansClusterer clusterer;

  CvcpConfig cvcp_config;
  cvcp_config.cv.n_folds = 4;
  cvcp_config.param_grid = {3};
  Rng cvcp_rng(11);
  auto report = RunCvcp(data, supervision, clusterer, cvcp_config, &cvcp_rng);
  ASSERT_TRUE(report.ok());

  Rng cv_rng(11);
  auto score = CrossValidateParam(data, supervision, clusterer, /*param=*/3,
                                  cvcp_config.cv, &cv_rng);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->valid_folds, report->scores[0].valid_folds);
  EXPECT_DOUBLE_EQ(score->mean_f, report->scores[0].score);
}

TEST(ScoreGridOnFoldsTest, MatchesPerParamScoringForEveryThreadCount) {
  Dataset data = EasyData();
  Rng rng(12);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());
  auto folds = MakeSupervisionFolds(data, supervision,
                                    {.n_folds = 4, .exec = {}}, &rng);
  ASSERT_TRUE(folds.ok());
  MpckMeansClusterer clusterer;
  const std::vector<int> grid = {2, 3, 5};

  // Reference: the serial per-param path.
  std::vector<CvScore> expected;
  for (int param : grid) {
    Rng param_rng(13);
    auto score = ScoreParamOnFolds(data, *folds, supervision.kind(), clusterer,
                                   param, &param_rng);
    ASSERT_TRUE(score.ok());
    expected.push_back(*score);
  }

  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    Rng grid_rng(13);
    auto scores = ScoreGridOnFolds(data, *folds, supervision.kind(), clusterer,
                                   grid, &grid_rng, exec);
    ASSERT_TRUE(scores.ok());
    ASSERT_EQ(scores->size(), grid.size());
    for (size_t g = 0; g < grid.size(); ++g) {
      EXPECT_EQ((*scores)[g].fold_scores, expected[g].fold_scores)
          << "param " << grid[g] << ", threads " << threads;
      EXPECT_EQ((*scores)[g].valid_folds, expected[g].valid_folds);
      EXPECT_DOUBLE_EQ((*scores)[g].mean_f, expected[g].mean_f);
    }
  }
}

/// Records the Supervision object every cell receives, and a copy of it.
class RecordingClusterer : public SemiSupervisedClusterer {
 public:
  struct Call {
    int param;
    const Supervision* address;
    Supervision copy;
  };

  std::string name() const override { return "Recording"; }
  std::string param_name() const override { return "param"; }

  std::vector<Call> calls() const {
    MutexLock lock(&mu_);
    return calls_;
  }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* /*rng*/,
                               const ClusterContext& /*context*/) const override {
    MutexLock lock(&mu_);
    calls_.push_back(Call{param, &supervision, supervision});
    return Clustering(std::vector<int>(data.size(), 0));
  }

 private:
  mutable Mutex mu_;
  mutable std::vector<Call> calls_ GUARDED_BY(mu_);
};

bool SameSupervision(const Supervision& a, const Supervision& b) {
  return a.kind() == b.kind() && a.constraints() == b.constraints() &&
         a.sparse_labels() == b.sparse_labels() &&
         a.involved_objects() == b.involved_objects();
}

TEST(ScoreGridOnFoldsTest, EveryCellOfAFoldSharesOneTrainingSupervision) {
  Dataset data = EasyData();
  Rng rng(14);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  ASSERT_TRUE(labeled.ok());
  auto pool = BuildConstraintPool(data, 0.2, &rng);
  ASSERT_TRUE(pool.ok());
  const std::vector<int> grid = {2, 3, 5};

  for (const Supervision& supervision :
       {Supervision::FromLabels(data, labeled.value()),
        Supervision::FromConstraints(pool.value())}) {
    auto folds = MakeSupervisionFolds(data, supervision,
                                      {.n_folds = 4, .exec = {}}, &rng);
    ASSERT_TRUE(folds.ok());
    std::vector<Supervision> expected;
    for (const FoldSplit& fold : *folds) {
      expected.push_back(
          supervision.kind() == SupervisionKind::kLabels
              ? Supervision::FromLabelArray(fold.train_labels)
              : Supervision::FromConstraints(fold.train_constraints));
    }

    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", " +
                   (supervision.kind() == SupervisionKind::kLabels
                        ? "labels"
                        : "constraints"));
      RecordingClusterer clusterer;
      ExecutionContext exec;
      exec.threads = threads;
      Rng grid_rng(15);
      ASSERT_TRUE(ScoreGridOnFolds(data, *folds, supervision.kind(),
                                   clusterer, grid, &grid_rng, exec)
                      .ok());

      // One object per fold, each handed to every grid value once.
      std::map<const Supervision*, std::vector<RecordingClusterer::Call>>
          by_address;
      for (const RecordingClusterer::Call& call : clusterer.calls()) {
        by_address[call.address].push_back(call);
      }
      ASSERT_EQ(by_address.size(), folds->size());
      std::set<size_t> matched_folds;
      for (const auto& [address, calls] : by_address) {
        std::vector<int> params;
        for (const RecordingClusterer::Call& call : calls) {
          params.push_back(call.param);
          EXPECT_TRUE(SameSupervision(call.copy, calls.front().copy));
        }
        std::sort(params.begin(), params.end());
        EXPECT_EQ(params, grid);
        // ... and that object equals the supervision built from its fold.
        for (size_t f = 0; f < expected.size(); ++f) {
          if (SameSupervision(calls.front().copy, expected[f])) {
            EXPECT_TRUE(matched_folds.insert(f).second) << "fold " << f;
          }
        }
      }
      EXPECT_EQ(matched_folds.size(), folds->size());
    }
  }
}

TEST(CrossValidateParamTest, TooFewObjectsForFoldsErrors) {
  Dataset data = EasyData();
  Rng rng(9);
  Supervision supervision = Supervision::FromLabels(data, {0, 1, 2});
  MpckMeansClusterer clusterer;
  auto score =
      CrossValidateParam(data, supervision, clusterer, 3,
                         {.n_folds = 10, .exec = {}}, &rng);
  EXPECT_EQ(score.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cvcp
