// Determinism suite for the trial-level parallel experiment harness:
// RunExperiment and RunAloiExperiment must produce byte-identical
// aggregates — including the formatted table cells and boxplot renderings
// built from them — for every thread count.
// Mirrors cvcp_determinism_test.cc one layer up; doubles are compared
// through their bit patterns so even sign-of-zero or NaN-payload drift
// would fail.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "eval/boxplot.h"
#include "data/generators.h"
#include "harness/experiment.h"

namespace cvcp::bench {
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
    spec.size = 20;
  }
  return MakeGaussianMixture("fixture", specs, &rng);
}

TrialSpec LabelSpec() {
  TrialSpec spec;
  spec.scenario = Scenario::kLabels;
  spec.level = 0.25;
  spec.n_folds = 3;
  spec.grid = {2, 3, 4, 5};
  spec.with_silhouette = true;
  return spec;
}

TrialSpec ConstraintSpec() {
  TrialSpec spec;
  spec.scenario = Scenario::kConstraints;
  spec.level = 0.5;
  spec.pool_fraction = 0.25;
  spec.n_folds = 3;
  spec.grid = {3, 6, 9};
  spec.with_silhouette = false;
  return spec;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSeriesIdentical(const std::vector<double>& a,
                           const std::vector<double>& b, const char* name,
                           const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << name << ", " << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i]))
        << name << "[" << i << "], " << where;
  }
}

void ExpectTTestsIdentical(const PairedTTestResult& a,
                           const PairedTTestResult& b, const char* name,
                           const std::string& where) {
  EXPECT_EQ(Bits(a.t_statistic), Bits(b.t_statistic)) << name << ", " << where;
  EXPECT_EQ(Bits(a.p_value), Bits(b.p_value)) << name << ", " << where;
  EXPECT_EQ(Bits(a.mean_diff), Bits(b.mean_diff)) << name << ", " << where;
  EXPECT_EQ(a.n, b.n) << name << ", " << where;
}

/// Asserts two cell aggregates are byte-identical, in the raw per-trial
/// series, every derived statistic, and the table cells formatted from
/// them.
void ExpectCellsIdentical(const CellAggregate& a, const CellAggregate& b,
                          const std::string& where) {
  EXPECT_EQ(a.trials_ok, b.trials_ok) << where;
  ExpectSeriesIdentical(a.cvcp_values, b.cvcp_values, "cvcp_values", where);
  ExpectSeriesIdentical(a.exp_values, b.exp_values, "exp_values", where);
  ExpectSeriesIdentical(a.sil_values, b.sil_values, "sil_values", where);
  ExpectSeriesIdentical(a.correlations, b.correlations, "correlations",
                        where);
  EXPECT_EQ(Bits(a.corr_mean), Bits(b.corr_mean)) << where;
  EXPECT_EQ(Bits(a.cvcp_mean), Bits(b.cvcp_mean)) << where;
  EXPECT_EQ(Bits(a.cvcp_std), Bits(b.cvcp_std)) << where;
  EXPECT_EQ(Bits(a.exp_mean), Bits(b.exp_mean)) << where;
  EXPECT_EQ(Bits(a.exp_std), Bits(b.exp_std)) << where;
  EXPECT_EQ(Bits(a.sil_mean), Bits(b.sil_mean)) << where;
  EXPECT_EQ(Bits(a.sil_std), Bits(b.sil_std)) << where;
  ExpectTTestsIdentical(a.cvcp_vs_exp, b.cvcp_vs_exp, "cvcp_vs_exp", where);
  ExpectTTestsIdentical(a.cvcp_vs_sil, b.cvcp_vs_sil, "cvcp_vs_sil", where);
  EXPECT_EQ(FormatMeanStd(a.cvcp_mean, a.cvcp_std),
            FormatMeanStd(b.cvcp_mean, b.cvcp_std))
      << where;
  EXPECT_EQ(FormatMeanStd(a.exp_mean, a.exp_std),
            FormatMeanStd(b.exp_mean, b.exp_std))
      << where;
  EXPECT_EQ(SigMarker(a.cvcp_vs_exp), SigMarker(b.cvcp_vs_exp)) << where;
}

/// The thread budgets every scenario is checked at. Every fixture's outer
/// loop (3-5 trials or datasets) is wider than a budget of 2 — PlanBudget
/// gives it 2 lanes with serial cells — and narrower than a budget of 8,
/// where each lane's CVCP cells get an inner width of 2 or 3.
constexpr int kThreadCounts[] = {2, 8};

std::string Where(int threads) {
  return "threads " + std::to_string(threads);
}

template <typename Clusterer>
void CheckExperimentInvariance(const Dataset& data, TrialSpec spec,
                               int trials) {
  Clusterer clusterer;
  spec.exec = ExecutionContext::Serial();
  const CellAggregate serial =
      RunExperiment(data, clusterer, spec, trials, /*seed=*/77);
  ASSERT_GE(serial.trials_ok, 2);

  for (int threads : kThreadCounts) {
    spec.exec.threads = threads;
    const CellAggregate parallel =
        RunExperiment(data, clusterer, spec, trials, /*seed=*/77);
    ExpectCellsIdentical(serial, parallel, Where(threads));
  }
}

TEST(ExperimentDeterminismTest, ScenarioOneLabelsMpckMeansBitIdentical) {
  CheckExperimentInvariance<MpckMeansClusterer>(FixtureData(11), LabelSpec(),
                                                /*trials=*/5);
}

TEST(ExperimentDeterminismTest, ScenarioTwoConstraintsFoscBitIdentical) {
  CheckExperimentInvariance<FoscOpticsDendClusterer>(FixtureData(12),
                                                     ConstraintSpec(),
                                                     /*trials=*/4);
}

TEST(ExperimentDeterminismTest, AloiAggregatesBitIdentical) {
  std::vector<Dataset> collection = {FixtureData(21), FixtureData(22),
                                     FixtureData(23)};
  MpckMeansClusterer clusterer;
  TrialSpec spec = LabelSpec();
  spec.exec = ExecutionContext::Serial();
  const AloiAggregate serial =
      RunAloiExperiment(collection, clusterer, spec, /*trials=*/3,
                        /*seed=*/88);
  ASSERT_EQ(serial.per_dataset.size(), collection.size());
  const std::string serial_boxes = RenderBoxplots(
      {{"CVCP", BoxplotStats::FromSamples(serial.pooled.cvcp_values)},
       {"Exp", BoxplotStats::FromSamples(serial.pooled.exp_values)},
       {"Sil", BoxplotStats::FromSamples(serial.pooled.sil_values)}},
      0.0, 1.0);

  for (int threads : kThreadCounts) {
    spec.exec.threads = threads;
    const AloiAggregate parallel =
        RunAloiExperiment(collection, clusterer, spec, /*trials=*/3,
                          /*seed=*/88);
    const std::string where = Where(threads);
    EXPECT_EQ(parallel.significant_vs_expected,
              serial.significant_vs_expected)
        << where;
    EXPECT_EQ(parallel.significant_vs_silhouette,
              serial.significant_vs_silhouette)
        << where;
    ASSERT_EQ(parallel.per_dataset.size(), serial.per_dataset.size()) << where;
    for (size_t d = 0; d < serial.per_dataset.size(); ++d) {
      ExpectCellsIdentical(serial.per_dataset[d], parallel.per_dataset[d],
                           where + ", dataset " + std::to_string(d));
    }
    ExpectCellsIdentical(serial.pooled, parallel.pooled, where + ", pooled");
    // The rendered figure is a pure function of the pooled series; compare
    // it anyway so a formatting-level divergence cannot slip through.
    EXPECT_EQ(
        RenderBoxplots(
            {{"CVCP", BoxplotStats::FromSamples(parallel.pooled.cvcp_values)},
             {"Exp", BoxplotStats::FromSamples(parallel.pooled.exp_values)},
             {"Sil", BoxplotStats::FromSamples(parallel.pooled.sil_values)}},
            0.0, 1.0),
        serial_boxes)
        << where;
  }
}

}  // namespace
}  // namespace cvcp::bench
