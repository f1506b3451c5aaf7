// Bitwise-equality suite for the persistent artifact store: reports must
// be byte-identical whether the geometry was recomputed, memory-cached,
// stored cold (computing and persisting), or served from a warm store —
// across 1/2/8 threads and both scheduler policies — and a warm store
// must satisfy every model request with zero OPTICS rebuilds (the
// cross-process warm-start guarantee, rehearsed in-process with fresh
// cache front-ends over one store directory).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/oracle.h"
#include "core/artifact_store.h"
#include "core/cvcp.h"
#include "core/dataset_cache.h"
#include "data/generators.h"
#include "harness/experiment.h"

namespace cvcp {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

std::string FreshStoreDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cvcp_store_det" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

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

/// Constraints + FOSC: the pipeline whose OPTICS models the store
/// actually persists.
struct StoreFixture {
  Dataset data = FixtureData(611);
  Supervision supervision = [this] {
    Rng rng(612);
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    CVCP_CHECK(pool.ok());
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    CVCP_CHECK(sampled.ok());
    return Supervision::FromConstraints(sampled.value());
  }();
  FoscOpticsDendClusterer clusterer;
};

void ExpectReportsIdentical(const CvcpReport& a, const CvcpReport& b,
                            const std::string& label) {
  EXPECT_EQ(a.best_param, b.best_param) << label;
  EXPECT_EQ(Bits(a.best_score), Bits(b.best_score)) << label;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (size_t g = 0; g < a.scores.size(); ++g) {
    EXPECT_EQ(Bits(a.scores[g].score), Bits(b.scores[g].score))
        << label << ", grid " << g;
  }
  EXPECT_EQ(a.final_clustering.assignment(), b.final_clustering.assignment())
      << label;
}

TEST(StoreDeterminismTest, CvcpColdAndWarmBitIdenticalAcrossThreads) {
  StoreFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 4;
  config.param_grid = {3, 6, 9, 12};

  // Recomputed-from-scratch baseline, no cache at all.
  config.cv.exec = ExecutionContext::Serial();
  Rng baseline_rng(818);
  auto baseline = RunCvcp(fixture.data, fixture.supervision,
                          fixture.clusterer, config, &baseline_rng);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ArtifactStore store(FreshStoreDir("cvcp"));
  for (int threads : {1, 2, 8}) {
    config.cv.exec.threads = threads;

    // Cold pass: purge the directory, run with a fresh cache, persist.
    ASSERT_TRUE(store.Purge().ok());
    DatasetCache cold(fixture.data.points(),
                      DatasetCacheTiers{nullptr, &store});
    Rng cold_rng(818);
    auto cold_report = RunCvcp(fixture.data, fixture.supervision,
                               fixture.clusterer, config, &cold_rng, &cold);
    ASSERT_TRUE(cold_report.ok()) << cold_report.status().ToString();
    ExpectReportsIdentical(*baseline, *cold_report,
                           "cold, threads " + std::to_string(threads));
    EXPECT_GE(cold.stats().model_builds, config.param_grid.size())
        << "cold run must compute (and persist) every grid model";

    // Warm pass: a *fresh* front-end over the now-populated directory —
    // the stand-in for a second process. Zero rebuilds allowed.
    DatasetCache warm(fixture.data.points(),
                      DatasetCacheTiers{nullptr, &store});
    Rng warm_rng(818);
    auto warm_report = RunCvcp(fixture.data, fixture.supervision,
                               fixture.clusterer, config, &warm_rng, &warm);
    ASSERT_TRUE(warm_report.ok()) << warm_report.status().ToString();
    ExpectReportsIdentical(*baseline, *warm_report,
                           "warm, threads " + std::to_string(threads));
    const DatasetCache::Stats stats = warm.stats();
    EXPECT_EQ(stats.model_builds, 0u) << "threads " << threads;
    EXPECT_EQ(stats.distance_builds, 0u) << "threads " << threads;
    EXPECT_GE(stats.model_loads, config.param_grid.size())
        << "threads " << threads;
  }
}

TEST(StoreDeterminismTest, PrewarmedGridServesEveryCellFromMemory) {
  StoreFixture fixture;
  ArtifactStore store(FreshStoreDir("prewarm"));
  const std::vector<int> grid = {3, 6, 9, 12};

  {
    DatasetCache cache(fixture.data.points(),
                       DatasetCacheTiers{nullptr, &store});
    ExecutionContext exec;
    exec.threads = 4;
    cache.Prewarm(Metric::kEuclidean, grid, exec);
  }
  // The second front-end prewarm loads everything from disk...
  DatasetCache warm(fixture.data.points(),
                    DatasetCacheTiers{nullptr, &store});
  warm.Prewarm(Metric::kEuclidean, grid, ExecutionContext::Serial());
  EXPECT_EQ(warm.stats().model_builds, 0u);
  EXPECT_EQ(warm.stats().model_loads, grid.size());
  // ...and every later model request is a pure memory hit.
  for (int min_pts : grid) {
    auto model =
        warm.FoscModel(Metric::kEuclidean, min_pts, ExecutionContext::Serial());
    ASSERT_TRUE(model.ok());
  }
  EXPECT_EQ(warm.stats().model_hits, grid.size());
}

void ExpectAggregatesIdentical(const bench::CellAggregate& a,
                               const bench::CellAggregate& b,
                               const std::string& label) {
  EXPECT_EQ(a.trials_ok, b.trials_ok) << label;
  EXPECT_EQ(Bits(a.corr_mean), Bits(b.corr_mean)) << label;
  EXPECT_EQ(Bits(a.cvcp_mean), Bits(b.cvcp_mean)) << label;
  EXPECT_EQ(Bits(a.cvcp_std), Bits(b.cvcp_std)) << label;
  EXPECT_EQ(Bits(a.exp_mean), Bits(b.exp_mean)) << label;
  ASSERT_EQ(a.cvcp_values.size(), b.cvcp_values.size()) << label;
  for (size_t t = 0; t < a.cvcp_values.size(); ++t) {
    EXPECT_EQ(Bits(a.cvcp_values[t]), Bits(b.cvcp_values[t]))
        << label << ", trial " << t;
  }
}

// The whole harness through a pool + store: cold at 2 threads (2 trial
// lanes, serial cells) and warm at 8 (3 trial lanes, cells 3 wide), it
// must reproduce the no-cache serial aggregates byte for byte — and once
// the store is warm, a fresh pool must run the experiment with zero
// OPTICS rebuilds.
TEST(StoreDeterminismTest, ExperimentAggregatesBitIdenticalThroughStore) {
  Dataset data = FixtureData(911);
  FoscOpticsDendClusterer clusterer;
  bench::TrialSpec spec;
  spec.scenario = bench::Scenario::kConstraints;
  spec.level = 0.5;
  spec.n_folds = 3;
  spec.grid = {3, 5, 8, 12};
  const int trials = 3;

  spec.use_cache = false;
  spec.exec = ExecutionContext::Serial();
  const bench::CellAggregate baseline =
      bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/78);
  ASSERT_GT(baseline.trials_ok, 0);

  ArtifactStore store(FreshStoreDir("experiment"));
  spec.use_cache = true;
  for (int threads : {2, 8}) {
    spec.exec.threads = threads;
    DatasetCachePool pool(/*memory_capacity_bytes=*/64 * 1024 * 1024,
                          &store);
    spec.cache_pool = &pool;
    const bench::CellAggregate agg =
        bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/78);
    ExpectAggregatesIdentical(baseline, agg,
                              "threads " + std::to_string(threads));
  }

  // Fresh pool over the warm store: the aggregate is the same and no
  // OPTICS model is ever rebuilt.
  DatasetCachePool warm_pool(/*memory_capacity_bytes=*/64 * 1024 * 1024,
                             &store);
  spec.cache_pool = &warm_pool;
  spec.exec = ExecutionContext::Serial();
  const bench::CellAggregate warm =
      bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/78);
  ExpectAggregatesIdentical(baseline, warm, "warm pool");
  const DatasetCache::Stats stats = warm_pool.AggregateStats();
  EXPECT_EQ(stats.model_builds, 0u);
  EXPECT_EQ(stats.distance_builds, 0u);
  EXPECT_GT(stats.model_loads, 0u);
}

// Damage injected mid-store degrades to recompute with identical bytes:
// corrupt every artifact, rerun, and the report must not change (the
// corrupt files are simply recomputed and rewritten).
TEST(StoreDeterminismTest, CorruptedStoreFallsBackToIdenticalRecompute) {
  StoreFixture fixture;
  CvcpConfig config;
  config.cv.n_folds = 3;
  config.param_grid = {3, 6, 9};
  config.cv.exec = ExecutionContext::Serial();

  const std::string dir = FreshStoreDir("corrupt");
  ArtifactStore store(dir);
  DatasetCache cold(fixture.data.points(), DatasetCacheTiers{nullptr, &store});
  Rng cold_rng(828);
  auto cold_report = RunCvcp(fixture.data, fixture.supervision,
                             fixture.clusterer, config, &cold_rng, &cold);
  ASSERT_TRUE(cold_report.ok());

  // Truncate every stored artifact to half size.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(entry.path(),
                                 std::filesystem::file_size(entry.path()) / 2);
  }

  DatasetCache recovered(fixture.data.points(),
                         DatasetCacheTiers{nullptr, &store});
  Rng rng(828);
  auto report = RunCvcp(fixture.data, fixture.supervision, fixture.clusterer,
                        config, &rng, &recovered);
  ASSERT_TRUE(report.ok());
  ExpectReportsIdentical(*cold_report, *report, "recovered");
  EXPECT_GT(recovered.stats().model_builds, 0u);  // recomputed, not served
  EXPECT_GT(store.stats().corrupt_misses, 0u);    // and counted

  // The rewritten artifacts serve a warm run again.
  DatasetCache warm(fixture.data.points(),
                    DatasetCacheTiers{nullptr, &store});
  Rng warm_rng(828);
  auto warm_report = RunCvcp(fixture.data, fixture.supervision,
                             fixture.clusterer, config, &warm_rng, &warm);
  ASSERT_TRUE(warm_report.ok());
  ExpectReportsIdentical(*cold_report, *warm_report, "rewarmed");
  EXPECT_EQ(warm.stats().model_builds, 0u);
}

}  // namespace
}  // namespace cvcp
