// bench_ablation_metric: MPCKMeans metric-learning variants under CVCP —
// no learning (PCKMeans-style), one shared diagonal metric, and the full
// per-cluster diagonal metrics the paper's MPCKMeans uses. Run on the
// scale-skewed Wine-like dataset (where adaptation matters most) and on
// pooled ALOI members.

#include <cstdio>

#include "common/strings.h"
#include "common/table.h"
#include "harness/options.h"
#include "harness/paper_bench.h"

int main(int argc, char** argv) {
  using namespace cvcp;
  using namespace cvcp::bench;
  const BenchOptions options = ParseBenchOptions(argc, argv);
  PrintBanner(options, "Ablation: MPCKMeans metric-learning variants",
              "design choice behind the paper's MPCKMeans");
  PaperBenchContext ctx = MakeContext(options);

  struct Variant {
    const char* label;
    MetricMode mode;
  };
  const Variant variants[] = {
      {"none (PCKMeans)", MetricMode::kNone},
      {"single diagonal", MetricMode::kSingleDiagonal},
      {"per-cluster diagonal", MetricMode::kPerClusterDiagonal},
  };

  TextTable table(
      "CVCP external quality by metric mode (label scenario, 20% labels)");
  table.SetHeader({"metric mode", "Wine-like CVCP", "Wine-like Exp",
                   "ALOI CVCP", "ALOI Exp"});
  const Dataset& wine = ctx.suite[1].data;
  for (const Variant& v : variants) {
    MpckMeansConfig config;
    config.metric_mode = v.mode;
    MpckMeansClusterer clusterer(config);

    TrialSpec spec;
    spec.scenario = Scenario::kLabels;
    spec.level = 0.20;
    spec.n_folds = options.n_folds;
    spec.exec.threads = options.threads;
    spec.use_cache = options.cache;
    spec.cache_pool = ctx.cache_pool.get();
    spec.grid = MakeKGrid(wine.NumClasses());
    CellAggregate wine_cell =
        RunExperiment(wine, clusterer, spec, options.trials, options.seed);

    spec.grid = MakeKGrid(5);
    AloiAggregate aloi = RunAloiExperiment(ctx.aloi, clusterer, spec,
                                           options.trials, options.seed + 1);
    table.AddRow({v.label,
                  FormatMeanStd(wine_cell.cvcp_mean, wine_cell.cvcp_std),
                  FormatMeanStd(wine_cell.exp_mean, wine_cell.exp_std),
                  FormatMeanStd(aloi.pooled.cvcp_mean, aloi.pooled.cvcp_std),
                  FormatMeanStd(aloi.pooled.exp_mean, aloi.pooled.exp_std)});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nReading: on scale-skewed data (Wine-like) metric learning should "
      "lift quality;\non bounded homogeneous features (ALOI) the variants "
      "should be close.\n");
  PrintStoreStats(ctx);
  return 0;
}
