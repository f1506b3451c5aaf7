#ifndef CVCP_BENCH_HARNESS_PAPER_BENCH_H_
#define CVCP_BENCH_HARNESS_PAPER_BENCH_H_

/// \file
/// Shared assembly for the per-table / per-figure bench binaries: the
/// dataset suite (ALOI-like collection + Iris + four simulated UCI/Zyeast
/// stand-ins) and printers that lay results out in the same row/column
/// shape as the paper's Tables 1-16 and Figures 5-12.

#include <memory>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/dataset_cache.h"
#include "data/paper_suites.h"
#include "harness/experiment.h"
#include "harness/options.h"

namespace cvcp::bench {

/// Which algorithm a bench sweeps (decides the grid and the Silhouette
/// column).
enum class BenchAlgo {
  kFosc,  ///< FOSC-OPTICSDend over the MinPts grid
  kMpck,  ///< MPCKMeans over the k grid
  kCop,   ///< COP-KMeans over the k grid (extension)
};

/// All datasets of the paper's evaluation, pre-generated at bench scale.
struct PaperBenchContext {
  BenchOptions options;
  std::vector<Dataset> aloi;       ///< the ALOI-k5-like collection
  std::vector<SuiteEntry> suite;   ///< Iris, Wine-, Ionosphere-, Ecoli-, Zyeast-like
  /// Persistent artifact tier (options.store_dir); null when no --store
  /// directory was configured. Owned by the context so one store serves
  /// every table/figure of the binary.
  std::unique_ptr<ArtifactStore> store;
  /// Run-wide compute-cache pool: one shared memory LRU
  /// (options.store_capacity_mb) in front of `store`, shared by every
  /// experiment, supervision level, and dataset the binary touches.
  std::unique_ptr<DatasetCachePool> cache_pool;
};

/// Generates the context from the options (deterministic in options.seed).
PaperBenchContext MakeContext(const BenchOptions& options);

/// Instantiates the clusterer for an algorithm.
std::unique_ptr<SemiSupervisedClusterer> MakeClusterer(BenchAlgo algo);

/// Grid for `algo` on a dataset with `num_classes` classes.
std::vector<int> GridFor(BenchAlgo algo, int num_classes);

/// Tables 1-4: average per-trial correlation of internal CV scores with the
/// external Overall F-Measure; rows = levels, columns = datasets (ALOI
/// column averaged over the collection).
void RunCorrelationTable(const PaperBenchContext& ctx, BenchAlgo algo,
                         Scenario scenario,
                         const std::vector<double>& levels,
                         const std::string& caption);

/// Tables 5-16: mean +- std of CVCP / Expected (/ Silhouette) external
/// quality at one supervision level; paired t-test significance markers and
/// the ALOI "x/N significant" caption.
void RunPerformanceTable(const PaperBenchContext& ctx, BenchAlgo algo,
                         Scenario scenario, double level,
                         const std::string& caption);

/// Figures 9-12: ASCII boxplots of the pooled ALOI quality distributions
/// for CVCP-x / Exp-x (/ Sil-x) at each level.
void RunBoxplotFigure(const PaperBenchContext& ctx, BenchAlgo algo,
                      Scenario scenario, const std::vector<double>& levels,
                      const std::string& caption);

/// Figures 5-8: internal-vs-external score curves over the grid for one
/// representative ALOI dataset (single trial), plus the correlation.
void RunCurveFigure(const PaperBenchContext& ctx, BenchAlgo algo,
                    Scenario scenario, double level,
                    const std::string& caption);

/// Prints the run's cache/store effectiveness counters to *stderr* — one
/// `cache-stats:` line, plus a `store-stats:` line when a disk tier is
/// configured — so stdout's table bytes stay identical across cache and
/// store configurations. CI's warm-start smoke greps these lines to prove
/// a warm store served every model (model_builds=0, disk_hits>0).
void PrintStoreStats(const PaperBenchContext& ctx);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_PAPER_BENCH_H_
