// Tests for the bench harness itself: the §4.1 trial protocol must be
// deterministic, produce consistent aggregates, and derive the selector
// quantities (CVCP pick / Expected / Silhouette) from the same external
// score series.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset_cache.h"
#include "data/generators.h"
#include "data/paper_suites.h"
#include "harness/catalog.h"
#include "harness/experiment.h"
#include "harness/options.h"

namespace cvcp::bench {
namespace {

TrialSpec LabelSpec() {
  TrialSpec spec;
  spec.scenario = Scenario::kLabels;
  spec.level = 0.20;
  spec.n_folds = 4;
  spec.grid = {2, 3, 4, 5, 6};
  spec.with_silhouette = true;
  return spec;
}

TEST(RunTrialTest, DeterministicGivenSeed) {
  Dataset data = MakeAloiK5Like(1, 0);
  MpckMeansClusterer clusterer;
  const TrialResult a = RunTrial(data, clusterer, LabelSpec(), 99);
  const TrialResult b = RunTrial(data, clusterer, LabelSpec(), 99);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.cvcp_param, b.cvcp_param);
  EXPECT_EQ(a.internal_scores.size(), b.internal_scores.size());
  for (size_t i = 0; i < a.internal_scores.size(); ++i) {
    if (std::isnan(a.internal_scores[i])) {
      EXPECT_TRUE(std::isnan(b.internal_scores[i]));
    } else {
      EXPECT_DOUBLE_EQ(a.internal_scores[i], b.internal_scores[i]);
    }
    EXPECT_DOUBLE_EQ(a.external_scores[i], b.external_scores[i]);
  }
}

TEST(RunTrialTest, SelectorQuantitiesDeriveFromExternalSeries) {
  Dataset data = MakeAloiK5Like(1, 1);
  MpckMeansClusterer clusterer;
  const TrialSpec spec = LabelSpec();
  const TrialResult t = RunTrial(data, clusterer, spec, 7);
  ASSERT_TRUE(t.ok);
  ASSERT_EQ(t.external_scores.size(), spec.grid.size());

  // cvcp_external is the external score at the picked grid value.
  for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
    if (spec.grid[gi] == t.cvcp_param) {
      EXPECT_DOUBLE_EQ(t.cvcp_external, t.external_scores[gi]);
    }
  }
  // expected_external is the NaN-skipping mean.
  double sum = 0.0;
  size_t n = 0;
  for (double v : t.external_scores) {
    if (!std::isnan(v)) {
      sum += v;
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_NEAR(t.expected_external, sum / n, 1e-12);
  // Silhouette pick comes from the same series.
  if (!std::isnan(t.silhouette_external)) {
    bool found = false;
    for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
      if (spec.grid[gi] == t.silhouette_param) {
        EXPECT_DOUBLE_EQ(t.silhouette_external, t.external_scores[gi]);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(RunTrialTest, FoscSkipsSilhouette) {
  Dataset data = MakeAloiK5Like(1, 2);
  FoscOpticsDendClusterer clusterer;
  TrialSpec spec = LabelSpec();
  spec.grid = DefaultMinPtsGrid();
  spec.with_silhouette = false;
  const TrialResult t = RunTrial(data, clusterer, spec, 3);
  ASSERT_TRUE(t.ok);
  EXPECT_TRUE(std::isnan(t.silhouette_external));
}

TEST(TrialResultTest, SelectorQualitiesDefaultToUndefinedNotZero) {
  // A stale 0.0 default used to be aggregated as a real score whenever a
  // quantity was never assigned, biasing means downward.
  TrialResult t;
  EXPECT_TRUE(std::isnan(t.cvcp_external));
  EXPECT_TRUE(std::isnan(t.silhouette_external));
}

TEST(CellAggregateTest, FinalizeDropsUndefinedPairsPairwise) {
  const double nan = std::nan("");
  CellAggregate agg;
  agg.cvcp_values = {0.8, nan, 0.6, 0.9};
  agg.exp_values = {0.5, 0.4, nan, 0.6};
  agg.sil_values = {0.7, 0.2, 0.5, nan};
  agg.correlations = {0.9, nan, 0.8, 0.7};
  agg.Finalize(/*with_silhouette=*/true);
  // Means/stds are over each series' defined entries.
  EXPECT_NEAR(agg.cvcp_mean, (0.8 + 0.6 + 0.9) / 3.0, 1e-12);
  EXPECT_FALSE(std::isnan(agg.cvcp_std));
  EXPECT_NEAR(agg.exp_mean, 0.5, 1e-12);
  EXPECT_NEAR(agg.corr_mean, 0.8, 1e-12);
  // T-tests keep only the positions where both sides are defined:
  // cvcp-vs-exp pairs (0.8, 0.5) and (0.9, 0.6).
  EXPECT_EQ(agg.cvcp_vs_exp.n, 2u);
  EXPECT_NEAR(agg.cvcp_vs_exp.mean_diff, 0.3, 1e-12);
  // cvcp-vs-sil pairs (0.8, 0.7) and (0.6, 0.5).
  EXPECT_EQ(agg.cvcp_vs_sil.n, 2u);
  EXPECT_NEAR(agg.cvcp_vs_sil.mean_diff, 0.1, 1e-12);
}

TEST(CellAggregateTest, FewerThanTwoDefinedPairsIsNeverSignificant) {
  const double nan = std::nan("");
  CellAggregate agg;
  agg.cvcp_values = {0.8, nan, nan};
  agg.exp_values = {0.5, 0.4, 0.3};
  agg.sil_values = {nan, nan, nan};
  agg.correlations = {nan, nan, nan};
  agg.Finalize(/*with_silhouette=*/true);
  EXPECT_TRUE(std::isnan(agg.cvcp_vs_exp.p_value));
  EXPECT_FALSE(agg.cvcp_vs_exp.SignificantAt(0.05));
  EXPECT_FALSE(agg.cvcp_vs_sil.SignificantAt(0.05));
  EXPECT_EQ(SigMarker(agg.cvcp_vs_exp), "");
  EXPECT_NEAR(agg.cvcp_mean, 0.8, 1e-12);
  EXPECT_TRUE(std::isnan(agg.cvcp_std));  // only one defined value
  EXPECT_TRUE(std::isnan(agg.sil_mean));
  EXPECT_TRUE(std::isnan(agg.corr_mean));
}

TEST(RunExperimentTest, FullSupervisionDoesNotPoisonAggregates) {
  // With every object labeled, all external F-measures are undefined; the
  // trials must still count as ok and the NaNs must stay contained ("—"
  // table cells, no significance) instead of poisoning the aggregation.
  Rng data_rng(77);
  Dataset data = MakeBlobs("blobs", 3, 12, 2, 25.0, 1.0, &data_rng);
  MpckMeansClusterer clusterer;
  TrialSpec spec = LabelSpec();
  spec.level = 1.0;
  spec.grid = {2, 3, 4};
  spec.n_folds = 3;
  const CellAggregate agg =
      RunExperiment(data, clusterer, spec, /*trials=*/3, /*seed=*/11);
  EXPECT_EQ(agg.trials_ok, 3);
  ASSERT_EQ(agg.cvcp_values.size(), 3u);
  for (double v : agg.cvcp_values) EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(std::isnan(agg.cvcp_mean));
  EXPECT_EQ(FormatMeanStd(agg.cvcp_mean, agg.cvcp_std), "—");
  EXPECT_FALSE(agg.cvcp_vs_exp.SignificantAt(0.05));
  EXPECT_EQ(SigMarker(agg.cvcp_vs_exp), "");
}

TEST(RunExperimentTest, AggregatesMatchTrialValues) {
  Dataset data = MakeAloiK5Like(1, 3);
  MpckMeansClusterer clusterer;
  const CellAggregate agg =
      RunExperiment(data, clusterer, LabelSpec(), /*trials=*/4, /*seed=*/5);
  EXPECT_EQ(agg.trials_ok, 4);
  ASSERT_EQ(agg.cvcp_values.size(), 4u);
  double sum = 0.0;
  for (double v : agg.cvcp_values) sum += v;
  EXPECT_NEAR(agg.cvcp_mean, sum / 4.0, 1e-12);
  EXPECT_EQ(agg.cvcp_vs_exp.n, 4u);
}

TEST(RunAloiExperimentTest, PoolsAcrossCollection) {
  std::vector<Dataset> collection = MakeAloiK5Collection(1, 3);
  MpckMeansClusterer clusterer;
  const AloiAggregate agg = RunAloiExperiment(collection, clusterer,
                                              LabelSpec(), /*trials=*/3,
                                              /*seed=*/9);
  EXPECT_EQ(agg.per_dataset.size(), 3u);
  EXPECT_EQ(agg.pooled.cvcp_values.size(), 9u);  // 3 datasets x 3 trials
  EXPECT_GE(agg.significant_vs_expected, 0);
  EXPECT_LE(agg.significant_vs_expected, 3);
}

TEST(SelectCacheTest, PoolThenPrivateCacheThenNone) {
  Dataset data = MakeAloiK5Like(1, 0);
  TrialSpec spec = LabelSpec();
  std::optional<DatasetCache> local;

  // No pool: a private cache over the dataset, emplaced into `local`.
  DatasetCache* cache = SelectCache(spec, data, &local);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(cache, &*local);
  EXPECT_EQ(&cache->points(), &data.points());

  // A run-wide pool takes precedence and leaves `local` alone.
  DatasetCachePool pool(1 << 20);
  spec.cache_pool = &pool;
  local.reset();
  EXPECT_EQ(SelectCache(spec, data, &local), pool.For(data.points()));
  EXPECT_FALSE(local.has_value());

  spec.use_cache = false;
  EXPECT_EQ(SelectCache(spec, data, &local), nullptr);
  EXPECT_FALSE(local.has_value());
}

TEST(BenchOptionsTest, FlagsOverrideDefaults) {
  const char* argv[] = {"bench", "--trials", "7", "--aloi", "3",
                        "--folds", "4", "--seed", "123"};
  const BenchOptions o =
      ParseBenchOptions(9, const_cast<char**>(argv));
  EXPECT_EQ(o.trials, 7);
  EXPECT_EQ(o.aloi_datasets, 3u);
  EXPECT_EQ(o.n_folds, 4);
  EXPECT_EQ(o.seed, 123u);
}

TEST(BenchOptionsTest, PaperFlagRestoresPaperScale) {
  const char* argv[] = {"bench", "--paper"};
  const BenchOptions o = ParseBenchOptions(2, const_cast<char**>(argv));
  EXPECT_EQ(o.trials, 50);
  EXPECT_EQ(o.aloi_datasets, 100u);
  EXPECT_EQ(o.n_folds, 10);
}

TEST(BenchOptionsTest, ClampsDegenerateValues) {
  const char* argv[] = {"bench", "--trials", "1", "--folds", "0"};
  const BenchOptions o = ParseBenchOptions(5, const_cast<char**>(argv));
  EXPECT_GE(o.trials, 2);
  EXPECT_GE(o.n_folds, 2);
}

/// TryParseBenchOptions over `args` (argv[0] is supplied).
Result<BenchOptions> TryParse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return TryParseBenchOptions(static_cast<int>(args.size()),
                              const_cast<char**>(args.data()));
}

/// Asserts `args` is refused with kInvalidArgument naming `culprit`.
void ExpectRefused(std::vector<const char*> args, const std::string& culprit) {
  const Result<BenchOptions> parsed = TryParse(args);
  ASSERT_FALSE(parsed.ok()) << culprit;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << culprit;
  EXPECT_NE(parsed.status().message().find(culprit), std::string::npos)
      << parsed.status().message();
}

TEST(BenchOptionsTest, AcceptsEveryKnownFlag) {
  const Result<BenchOptions> parsed = TryParse(
      {"--threads", "3", "--cache", "off", "--store", "dir",
       "--store-capacity-mb", "64", "--seed", "-1"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->threads, 3);
  EXPECT_FALSE(parsed->cache);
  EXPECT_EQ(parsed->store_dir, "dir");
  EXPECT_EQ(parsed->store_capacity_mb, 64);
  EXPECT_EQ(parsed->seed, ~uint64_t{0});
}

TEST(BenchOptionsTest, UnknownFlagsAreRefused) {
  // Flags of deleted features must fail loudly, not run a default bench.
  ExpectRefused({"--scheduler", "split"}, "--scheduler");
  ExpectRefused({"--trial-threads", "2"}, "--trial-threads");
  ExpectRefused({"--timings-file", "t.csv"}, "--timings-file");
  ExpectRefused({"--distance-storage", "f32"}, "--distance-storage");
  ExpectRefused({"--thread", "4"}, "--thread");
  ExpectRefused({"--trials", "3", "table"}, "table");
}

TEST(BenchOptionsTest, MissingValuesAreRefused) {
  ExpectRefused({"--threads"}, "--threads");
  ExpectRefused({"--trials", "3", "--store"}, "--store");
  ExpectRefused({"--cache"}, "--cache");
}

TEST(BenchOptionsTest, MalformedNumbersAreRefused) {
  ExpectRefused({"--threads", "4x"}, "4x");
  ExpectRefused({"--trials", ""}, "--trials");
  ExpectRefused({"--aloi", "ten"}, "ten");
  ExpectRefused({"--folds", "2.5"}, "2.5");
  ExpectRefused({"--store-capacity-mb", "99999999999"}, "99999999999");
  ExpectRefused({"--seed", "99999999999999999999"}, "99999999999999999999");
}

TEST(BenchOptionsTest, MalformedChoicesAreRefused) {
  ExpectRefused({"--cache", "maybe"}, "maybe");
}

TEST(BenchOptionsTest, FlagErrorPrintsUsageAndExitsTwo) {
  const char* argv[] = {"bench", "--scheduler", "split"};
  EXPECT_EXIT(ParseBenchOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "unknown flag --scheduler\nusage: bench \\[--paper\\]");
}

std::vector<std::string> CatalogNames() {
  std::vector<std::string> names;
  for (const BenchEntry& entry : BenchCatalog()) names.push_back(entry.name);
  return names;
}

/// Contents of a file under the source tree.
std::string ReadSourceFile(const std::string& relative_path) {
  std::ifstream in(std::string(CVCP_SOURCE_DIR) + "/" + relative_path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(BenchCatalogTest, NamesCoverThePaperAndAblations) {
  const std::vector<std::string> expected = {
      "table01", "table02", "table03", "table04", "table05", "table06",
      "table07", "table08", "table09", "table10", "table11", "table12",
      "table13", "table14", "table15", "table16", "fig05", "fig06",
      "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
      "ablation_copkmeans", "ablation_folds", "ablation_leakage",
      "ablation_metric", "ablation_noise", "ablation_protocols"};
  EXPECT_EQ(CatalogNames(), expected);
}

TEST(BenchCatalogTest, FindBenchEntryLooksUpByName) {
  EXPECT_EQ(FindBenchEntry("nope"), nullptr);
  EXPECT_EQ(FindBenchEntry(""), nullptr);
  const BenchEntry* entry = FindBenchEntry("table05");
  ASSERT_NE(entry, nullptr);
  EXPECT_STREQ(entry->name, "table05");
  EXPECT_STREQ(entry->paper_ref, "Table 5");
}

TEST(BenchCatalogTest, RowsAreWellFormed) {
  for (const BenchEntry& entry : BenchCatalog()) {
    SCOPED_TRACE(entry.name);
    if (entry.run != nullptr) {
      EXPECT_TRUE(entry.levels.empty());
      continue;
    }
    // A paper row's title is its caption, which names the paper artifact.
    EXPECT_EQ(std::string(entry.title).rfind(std::string(entry.paper_ref) +
                                                 ": ",
                                             0),
              0u);
    const bool one_level = entry.figure == PaperFigure::kPerformance ||
                           entry.figure == PaperFigure::kCurve;
    EXPECT_EQ(entry.levels.size(), one_level ? 1u : 3u);
  }
}

TEST(BenchCommandTest, ParsesEntryAndFlags) {
  const char* argv[] = {"cvcp_bench", "fig09", "--trials", "3"};
  const BenchCommand command =
      ParseBenchCommand(4, const_cast<char**>(argv));
  ASSERT_NE(command.entry, nullptr);
  EXPECT_STREQ(command.entry->name, "fig09");
  EXPECT_EQ(command.options.trials, 3);
}

TEST(BenchCommandTest, MissingEntryPrintsUsageAndExitsTwo) {
  const char* argv[] = {"cvcp_bench"};
  EXPECT_EXIT(ParseBenchCommand(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "cvcp_bench: missing entry\nusage: cvcp_bench <entry> "
              "\\[--paper\\].*\nentries: table01 table02 .* "
              "ablation_protocols\n");
}

TEST(BenchCommandTest, UnknownEntryPrintsUsageAndExitsTwo) {
  const char* argv[] = {"cvcp_bench", "nope", "--trials", "3"};
  EXPECT_EXIT(ParseBenchCommand(4, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "cvcp_bench: unknown entry 'nope'\nusage: cvcp_bench <entry> "
              "\\[--paper\\].*\nentries: table01 ");
}

TEST(BenchCommandTest, FlagErrorNamesTheEntryAndExitsTwo) {
  const char* argv[] = {"cvcp_bench", "table05", "--threads", "4x"};
  EXPECT_EXIT(ParseBenchCommand(4, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "cvcp_bench table05: malformed value '4x' for flag "
              "--threads\nusage: cvcp_bench table05 \\[--paper\\]");
}

TEST(BenchCatalogTest, DocsListEveryEntry) {
  const std::string docs = ReadSourceFile("docs/benchmarks.md");
  ASSERT_FALSE(docs.empty());
  for (const std::string& name : CatalogNames()) {
    EXPECT_NE(docs.find("`cvcp_bench " + name + "`"), std::string::npos)
        << name;
  }
  // The per-table binaries cvcp_bench replaced must not be documented.
  for (const char* kind : {"table", "fig", "ablation"}) {
    const std::string old_name = std::string("bench_") + kind;
    EXPECT_EQ(docs.find(old_name), std::string::npos) << old_name;
  }
}

TEST(BenchCatalogTest, GoldenManifestPinsEveryEntry) {
  std::istringstream manifest(
      ReadSourceFile("tests/golden/bench_stdout.sha256"));
  std::vector<std::string> names;
  std::string name, digest;
  while (manifest >> name >> digest) {
    names.push_back(name);
    EXPECT_EQ(digest.size(), 64u) << name;
  }
  EXPECT_EQ(names, CatalogNames());
}

TEST(FormattersTest, MeanStdAndSigMarker) {
  EXPECT_EQ(FormatMeanStd(0.7489, 0.0531), "0.7489 ±0.0531");
  EXPECT_EQ(FormatMeanStd(std::nan(""), 0.0), "—");
  PairedTTestResult sig;
  sig.p_value = 0.01;
  PairedTTestResult notsig;
  notsig.p_value = 0.2;
  EXPECT_EQ(SigMarker(sig), "*");
  EXPECT_EQ(SigMarker(notsig), "");
}

}  // namespace
}  // namespace cvcp::bench
