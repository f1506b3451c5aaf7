// bench_ablation_folds: how sensitive is CVCP to the fold count n (the
// paper uses "typically 10") and to stratified vs plain random folds?
// Reports, per n, the external quality of CVCP's pick on the ALOI
// collection and on Iris.

#include <cstdio>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "data/iris.h"
#include "harness/options.h"
#include "harness/paper_bench.h"

int main(int argc, char** argv) {
  using namespace cvcp;
  using namespace cvcp::bench;
  const BenchOptions options = ParseBenchOptions(argc, argv);
  PrintBanner(options, "Ablation: fold-count sensitivity of CVCP",
              "design choice (DESIGN.md ablation index)");
  PaperBenchContext ctx = MakeContext(options);
  FoscOpticsDendClusterer fosc;

  TextTable table(
      "CVCP external quality vs n_folds (FOSC-OPTICSDend, label scenario, "
      "20% labels)");
  table.SetHeader({"n_folds", "ALOI CVCP", "ALOI Expected", "Iris CVCP",
                   "Iris Expected"});
  Dataset iris = MakeIris();
  for (int n_folds : {2, 3, 5, 10}) {
    TrialSpec spec;
    spec.scenario = Scenario::kLabels;
    spec.level = 0.20;
    spec.n_folds = n_folds;
    spec.grid = DefaultMinPtsGrid();
    spec.exec.threads = options.threads;
    spec.use_cache = options.cache;
    spec.cache_pool = ctx.cache_pool.get();

    AloiAggregate aloi = RunAloiExperiment(ctx.aloi, fosc, spec,
                                           options.trials, options.seed);
    CellAggregate iris_cell =
        RunExperiment(iris, fosc, spec, options.trials, options.seed + 1);
    table.AddRow({Format("%d", n_folds),
                  FormatMeanStd(aloi.pooled.cvcp_mean, aloi.pooled.cvcp_std),
                  FormatMeanStd(aloi.pooled.exp_mean, aloi.pooled.exp_std),
                  FormatMeanStd(iris_cell.cvcp_mean, iris_cell.cvcp_std),
                  FormatMeanStd(iris_cell.exp_mean, iris_cell.exp_std)});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nReading: CVCP should beat Expected at every n; very small n gives\n"
      "noisier internal scores (larger CVCP std), very large n starves the\n"
      "test folds of constraints.\n");
  PrintStoreStats(ctx);
  return 0;
}
