#ifndef CVCP_BENCH_HARNESS_CATALOG_H_
#define CVCP_BENCH_HARNESS_CATALOG_H_

/// \file
/// The catalog behind `cvcp_bench <entry> [options]`: one row per paper
/// table/figure and per ablation. The paper's evaluation (Tables 1-16,
/// Figures 5-12) is one protocol run over a small grid — {correlation,
/// performance, boxplot, curve} × {FOSC, MPCK} × {labels, constraints} ×
/// supervision level — so each paper row is one of paper_bench.h's four
/// printers applied to one cell of that grid. Each ablation row is a
/// function in ablations.cc.

#include <span>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "harness/options.h"
#include "harness/paper_bench.h"

namespace cvcp::bench {

/// The paper_bench.h printer a paper row runs.
enum class PaperFigure {
  kCorrelation,  ///< Tables 1-4: RunCorrelationTable
  kPerformance,  ///< Tables 5-16: RunPerformanceTable
  kBoxplot,      ///< Figures 9-12: RunBoxplotFigure
  kCurve,        ///< Figures 5-8: RunCurveFigure
};

/// One `cvcp_bench` entry.
struct BenchEntry {
  const char* name;       ///< `cvcp_bench <name>`
  const char* paper_ref;  ///< the banner's "reproduces:" target
  const char* title;      ///< the banner title; a paper row's caption too
  /// Ablation rows: the whole body, returning the process exit status.
  /// Null for paper rows, which run `figure` over the fields below.
  int (*run)(const PaperBenchContext& ctx) = nullptr;
  PaperFigure figure = PaperFigure::kCorrelation;
  BenchAlgo algo = BenchAlgo::kFosc;
  Scenario scenario = Scenario::kLabels;
  /// Supervision levels. kCorrelation and kBoxplot rows print one row or
  /// box group per level; kPerformance and kCurve rows hold exactly one.
  std::vector<double> levels = {};
};

/// Every entry, paper rows first (tables, then figures), then ablations.
std::span<const BenchEntry> BenchCatalog();

/// The entry called `name`, or null.
const BenchEntry* FindBenchEntry(std::string_view name);

/// Runs `entry` against `ctx`, printing its tables to stdout; returns the
/// process exit status.
int RunBenchEntry(const BenchEntry& entry, const PaperBenchContext& ctx);

/// A parsed `cvcp_bench` command line.
struct BenchCommand {
  const BenchEntry* entry = nullptr;
  BenchOptions options;
};

/// Looks up argv[1] and parses the remaining arguments with
/// ParseBenchOptions. A missing or unknown entry prints the error, one
/// usage line and the entry names to stderr and exits with status 2; a bad
/// flag exits the same way through ParseBenchOptions.
BenchCommand ParseBenchCommand(int argc, char** argv);

// The ablation bodies (ablations.cc), one per `ablation_*` entry.
int RunCopKMeansAblation(const PaperBenchContext& ctx);
int RunFoldsAblation(const PaperBenchContext& ctx);
int RunLeakageAblation(const PaperBenchContext& ctx);
int RunMetricAblation(const PaperBenchContext& ctx);
int RunNoiseAblation(const PaperBenchContext& ctx);
int RunProtocolsAblation(const PaperBenchContext& ctx);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_CATALOG_H_
