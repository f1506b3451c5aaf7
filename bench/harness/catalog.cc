#include "harness/catalog.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"

namespace cvcp::bench {

namespace {

using enum PaperFigure;
using enum BenchAlgo;
using enum Scenario;

}  // namespace

std::span<const BenchEntry> BenchCatalog() {
  // The paper's supervision levels are 5/10/20 % labeled objects (§4.2.1)
  // and 10/20/50 % of the constraint pool (§4.2.2).
  static const BenchEntry kCatalog[] = {
      {"table01", "Table 1",
       "Table 1: FOSC-OPTICSDend (label scenario) — correlation of internal "
       "scores with Overall F-Measure",
       nullptr, kCorrelation, kFosc, kLabels, {0.05, 0.10, 0.20}},
      {"table02", "Table 2",
       "Table 2: MPCKMeans (label scenario) — correlation of internal scores "
       "with Overall F-Measure",
       nullptr, kCorrelation, kMpck, kLabels, {0.05, 0.10, 0.20}},
      {"table03", "Table 3",
       "Table 3: FOSC-OPTICSDend (constraint scenario) — correlation of "
       "internal scores with Overall F-Measure",
       nullptr, kCorrelation, kFosc, kConstraints, {0.10, 0.20, 0.50}},
      {"table04", "Table 4",
       "Table 4: MPCKMeans (constraint scenario) — correlation of internal "
       "scores with Overall F-Measure",
       nullptr, kCorrelation, kMpck, kConstraints, {0.10, 0.20, 0.50}},
      {"table05", "Table 5",
       "Table 5: FOSC-OPTICSDend (label scenario) — average performance, 5% "
       "labeled objects",
       nullptr, kPerformance, kFosc, kLabels, {0.05}},
      {"table06", "Table 6",
       "Table 6: FOSC-OPTICSDend (label scenario) — average performance, 10% "
       "labeled objects",
       nullptr, kPerformance, kFosc, kLabels, {0.10}},
      {"table07", "Table 7",
       "Table 7: FOSC-OPTICSDend (label scenario) — average performance, 20% "
       "labeled objects",
       nullptr, kPerformance, kFosc, kLabels, {0.20}},
      {"table08", "Table 8",
       "Table 8: MPCKmeans (label scenario) — average performance, 5% "
       "labeled objects",
       nullptr, kPerformance, kMpck, kLabels, {0.05}},
      {"table09", "Table 9",
       "Table 9: MPCKmeans (label scenario) — average performance, 10% "
       "labeled objects",
       nullptr, kPerformance, kMpck, kLabels, {0.10}},
      {"table10", "Table 10",
       "Table 10: MPCKmeans (label scenario) — average performance, 20% "
       "labeled objects",
       nullptr, kPerformance, kMpck, kLabels, {0.20}},
      {"table11", "Table 11",
       "Table 11: FOSC-OPTICSDend (constraint scenario) — average "
       "performance, 10% of constraint pool",
       nullptr, kPerformance, kFosc, kConstraints, {0.10}},
      {"table12", "Table 12",
       "Table 12: FOSC-OPTICSDend (constraint scenario) — average "
       "performance, 20% of constraint pool",
       nullptr, kPerformance, kFosc, kConstraints, {0.20}},
      {"table13", "Table 13",
       "Table 13: FOSC-OPTICSDend (constraint scenario) — average "
       "performance, 50% of constraint pool",
       nullptr, kPerformance, kFosc, kConstraints, {0.50}},
      {"table14", "Table 14",
       "Table 14: MPCKmeans (constraint scenario) — average performance, 10% "
       "of constraint pool",
       nullptr, kPerformance, kMpck, kConstraints, {0.10}},
      {"table15", "Table 15",
       "Table 15: MPCKmeans (constraint scenario) — average performance, 20% "
       "of constraint pool",
       nullptr, kPerformance, kMpck, kConstraints, {0.20}},
      {"table16", "Table 16",
       "Table 16: MPCKmeans (constraint scenario) — average performance, 50% "
       "of constraint pool",
       nullptr, kPerformance, kMpck, kConstraints, {0.50}},
      {"fig05", "Figure 5",
       "Figure 5: FOSC-OPTICSDend (label scenario) — internal vs external "
       "curves, representative ALOI set, 10% labels",
       nullptr, kCurve, kFosc, kLabels, {0.10}},
      {"fig06", "Figure 6",
       "Figure 6: MPCKmeans (label scenario) — internal vs external curves, "
       "representative ALOI set, 10% labels",
       nullptr, kCurve, kMpck, kLabels, {0.10}},
      {"fig07", "Figure 7",
       "Figure 7: FOSC-OPTICSDend (constraint scenario) — internal vs "
       "external curves, representative ALOI set, 10% of pool",
       nullptr, kCurve, kFosc, kConstraints, {0.10}},
      {"fig08", "Figure 8",
       "Figure 8: MPCKmeans (constraint scenario) — internal vs external "
       "curves, representative ALOI set, 10% of pool",
       nullptr, kCurve, kMpck, kConstraints, {0.10}},
      {"fig09", "Figure 9",
       "Figure 9: FOSC-OPTICSDend (label scenario) — ALOI quality "
       "distributions, CVCP vs Expected",
       nullptr, kBoxplot, kFosc, kLabels, {0.05, 0.10, 0.20}},
      {"fig10", "Figure 10",
       "Figure 10: MPCKmeans (label scenario) — ALOI quality distributions, "
       "CVCP vs Expected vs Silhouette",
       nullptr, kBoxplot, kMpck, kLabels, {0.05, 0.10, 0.20}},
      {"fig11", "Figure 11",
       "Figure 11: FOSC-OPTICSDend (constraint scenario) — ALOI quality "
       "distributions, CVCP vs Expected",
       nullptr, kBoxplot, kFosc, kConstraints, {0.10, 0.20, 0.50}},
      {"fig12", "Figure 12",
       "Figure 12: MPCKmeans (constraint scenario) — ALOI quality "
       "distributions, CVCP vs Expected vs Silhouette",
       nullptr, kBoxplot, kMpck, kConstraints, {0.10, 0.20, 0.50}},
      {"ablation_copkmeans", "paper §5 future work",
       "Ablation: CVCP with COP-KMeans (hard constraints)",
       RunCopKMeansAblation},
      {"ablation_folds", "design choice: the paper's \"typically 10\" folds",
       "Ablation: fold-count sensitivity of CVCP", RunFoldsAblation},
      {"ablation_leakage", "the §3.1 pitfall, measured",
       "Ablation: sound vs naive constraint CV (leakage)", RunLeakageAblation},
      {"ablation_metric", "design choice behind the paper's MPCKMeans",
       "Ablation: MPCKMeans metric-learning variants", RunMetricAblation},
      {"ablation_noise",
       "noise-as-singletons design decision (cluster/clustering.h)",
       "Ablation: noise semantics in the constraint F-measure",
       RunNoiseAblation},
      {"ablation_protocols",
       "use-all-data vs set-aside vs holdout vs n-fold CV",
       "Ablation: external evaluation protocols (paper §2)",
       RunProtocolsAblation},
  };
  return kCatalog;
}

const BenchEntry* FindBenchEntry(std::string_view name) {
  for (const BenchEntry& entry : BenchCatalog()) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

int RunBenchEntry(const BenchEntry& entry, const PaperBenchContext& ctx) {
  if (entry.run != nullptr) return entry.run(ctx);
  switch (entry.figure) {
    case kCorrelation:
      RunCorrelationTable(ctx, entry.algo, entry.scenario, entry.levels,
                          entry.title);
      break;
    case kPerformance:
      RunPerformanceTable(ctx, entry.algo, entry.scenario, entry.levels[0],
                          entry.title);
      break;
    case kBoxplot:
      RunBoxplotFigure(ctx, entry.algo, entry.scenario, entry.levels,
                       entry.title);
      break;
    case kCurve:
      RunCurveFigure(ctx, entry.algo, entry.scenario, entry.levels[0],
                     entry.title);
      break;
  }
  return 0;
}

BenchCommand ParseBenchCommand(int argc, char** argv) {
  const char* program = argc > 0 ? argv[0] : "cvcp_bench";
  const BenchEntry* entry = argc > 1 ? FindBenchEntry(argv[1]) : nullptr;
  if (entry == nullptr) {
    const std::string error =
        argc > 1 ? Format("unknown entry '%s'", argv[1]) : "missing entry";
    std::string names;
    for (const BenchEntry& e : BenchCatalog()) {
      names += ' ';
      names += e.name;
    }
    std::fprintf(stderr, "%s: %s\nusage: %s <entry> %s\nentries:%s\n",
                 program, error.c_str(), program, kBenchUsage, names.c_str());
    std::exit(2);
  }
  // The flags follow the entry, so ParseBenchOptions sees "<program>
  // <entry>" as its program name and prints it on a usage line.
  std::string entry_program = Format("%s %s", program, entry->name);
  std::vector<char*> args(argv + 1, argv + argc);
  args[0] = entry_program.data();
  return {entry, ParseBenchOptions(static_cast<int>(args.size()), args.data())};
}

}  // namespace cvcp::bench
