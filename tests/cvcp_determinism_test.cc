// Determinism suite for the parallel CVCP execution engine: RunCvcp must
// produce byte-identical reports for every thread count, on both
// supervision scenarios. The parallel runs execute cells longest-first
// (EstimateCost), not in the serial loop's order, so these also pin that
// execution order never reaches the report. Scores are compared through their bit patterns so
// even sign-of-zero or NaN-payload drift would fail.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/cvcp.h"
#include "data/generators.h"

namespace cvcp {
namespace {

Dataset FixtureData(uint64_t seed) {
  Rng rng(seed);
  std::vector<GaussianClusterSpec> specs(4);
  specs[0].mean = {0.0, 0.0};
  specs[1].mean = {30.0, 0.0};
  specs[2].mean = {0.0, 30.0};
  specs[3].mean = {30.0, 30.0};
  for (auto& spec : specs) {
    spec.stddevs = {0.8};
    spec.size = 25;
  }
  return MakeGaussianMixture("fixture", specs, &rng);
}

/// Scenario I fixture: labeled objects + MPCKMeans.
struct LabelFixture {
  Dataset data = FixtureData(101);
  Supervision supervision = [this] {
    Rng rng(102);
    auto labeled = SampleLabeledObjects(data, 0.25, &rng);
    CVCP_CHECK(labeled.ok());
    return Supervision::FromLabels(data, labeled.value());
  }();
  MpckMeansClusterer clusterer;
};

/// Scenario II fixture: pairwise constraints + FOSC.
struct ConstraintFixture {
  Dataset data = FixtureData(201);
  Supervision supervision = [this] {
    Rng rng(202);
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    CVCP_CHECK(pool.ok());
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    CVCP_CHECK(sampled.ok());
    return Supervision::FromConstraints(sampled.value());
  }();
  FoscOpticsDendClusterer clusterer;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Asserts two reports are byte-identical in every field.
void ExpectReportsIdentical(const CvcpReport& a, const CvcpReport& b,
                            int threads) {
  EXPECT_EQ(a.best_param, b.best_param) << "threads " << threads;
  EXPECT_EQ(Bits(a.best_score), Bits(b.best_score)) << "threads " << threads;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << "threads " << threads;
  for (size_t g = 0; g < a.scores.size(); ++g) {
    EXPECT_EQ(a.scores[g].param, b.scores[g].param)
        << "grid " << g << ", threads " << threads;
    EXPECT_EQ(a.scores[g].valid_folds, b.scores[g].valid_folds)
        << "grid " << g << ", threads " << threads;
    EXPECT_EQ(Bits(a.scores[g].score), Bits(b.scores[g].score))
        << "grid " << g << ", threads " << threads;
  }
  EXPECT_EQ(a.final_clustering.assignment(), b.final_clustering.assignment())
      << "threads " << threads;
}

template <typename Fixture>
void CheckThreadCountInvariance(const Fixture& fixture,
                                const CvcpConfig& base_config) {
  CvcpConfig config = base_config;
  config.cv.exec = ExecutionContext::Serial();
  Rng serial_rng(303);
  auto serial = RunCvcp(fixture.data, fixture.supervision, fixture.clusterer,
                        config, &serial_rng);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : {2, 8}) {
    config.cv.exec.threads = threads;
    Rng rng(303);
    auto parallel = RunCvcp(fixture.data, fixture.supervision,
                            fixture.clusterer, config, &rng);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectReportsIdentical(*serial, *parallel, threads);
  }
}

TEST(CvcpDeterminismTest, ScenarioOneLabelsMpckMeansBitIdentical) {
  LabelFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8};
  CheckThreadCountInvariance(fixture, config);
}

TEST(CvcpDeterminismTest, ScenarioTwoConstraintsFoscBitIdentical) {
  ConstraintFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};
  CheckThreadCountInvariance(fixture, config);
}

// On the parallel path cells run longest-first by EstimateCost, so a
// grid given out of order runs in an order that interleaves its entries.
// The reduction stays in (grid-order, fold-order): the report must list
// the grid as given and match the serial loop byte for byte.
template <typename Fixture>
void CheckCostSortedInvariance(const Fixture& fixture, CvcpConfig config) {
  config.cv.exec = ExecutionContext::Serial();
  Rng serial_rng(707);
  auto serial = RunCvcp(fixture.data, fixture.supervision, fixture.clusterer,
                        config, &serial_rng);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->scores.size(), config.param_grid.size());
  for (size_t g = 0; g < config.param_grid.size(); ++g) {
    EXPECT_EQ(serial->scores[g].param, config.param_grid[g]) << "grid " << g;
  }

  for (int threads : {2, 4, 8}) {
    config.cv.exec.threads = threads;
    Rng rng(707);
    auto parallel = RunCvcp(fixture.data, fixture.supervision,
                            fixture.clusterer, config, &rng);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectReportsIdentical(*serial, *parallel, threads);
  }
}

TEST(CvcpDeterminismTest, CostSortedLabelsMpckMeansBitIdentical) {
  LabelFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {5, 2, 8, 3, 7, 4, 6};
  CheckCostSortedInvariance(fixture, config);
}

TEST(CvcpDeterminismTest, CostSortedConstraintsFoscBitIdentical) {
  ConstraintFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {9, 3, 12, 6};
  CheckCostSortedInvariance(fixture, config);
}

TEST(CostModelTest, EstimateGrowsWithParamAndTrainingSize) {
  EXPECT_GT(EstimateCost(5, 100), EstimateCost(2, 100));
  EXPECT_GT(EstimateCost(5, 100), EstimateCost(5, 10));
  // Negative params cost by magnitude, and the estimate is never zero.
  EXPECT_EQ(EstimateCost(-5, 100), EstimateCost(5, 100));
  EXPECT_GT(EstimateCost(0, 0), 0.0);
}

}  // namespace
}  // namespace cvcp
