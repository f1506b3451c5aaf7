// The `cvcp_bench ablation_*` bodies: experiments beyond the paper's
// tables and figures, each answering one design question.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "constraints/oracle.h"
#include "constraints/transitive_closure.h"
#include "core/cross_validation.h"
#include "core/fmeasure.h"
#include "data/iris.h"
#include "eval/external_protocols.h"
#include "harness/catalog.h"

namespace cvcp::bench {

// ablation_copkmeans: the paper's future-work question — does CVCP
// transfer to other semi-supervised clusterers? Runs the full
// Table-9-style experiment with COP-KMeans (hard constraints, Wagstaff et
// al. 2001) in place of MPCKMeans.
int RunCopKMeansAblation(const PaperBenchContext& ctx) {
  RunPerformanceTable(
      ctx, BenchAlgo::kCop, Scenario::kLabels, 0.10,
      "COP-KMeans (label scenario) — average performance, 10% labeled "
      "objects (compare against Table 9's MPCKMeans row shapes)");
  RunCorrelationTable(
      ctx, BenchAlgo::kCop, Scenario::kLabels, {0.10},
      "COP-KMeans — correlation of internal scores with Overall F-Measure "
      "at 10% labels");
  return 0;
}

// ablation_folds: how sensitive is CVCP to the fold count n (the paper
// uses "typically 10")? Reports, per n, the external quality of CVCP's
// pick on the ALOI collection and on Iris, with the paper's plain random
// folds throughout.
int RunFoldsAblation(const PaperBenchContext& ctx) {
  const BenchOptions& options = ctx.options;
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
  return 0;
}

// ablation_leakage: quantifies the pitfall the paper's §3.1 is about.
// Compares the sound Scenario-II splitter (object partition + graph cut +
// per-side closure) against the naive splitter that deals the constraint
// list into folds. The "naive leaked %" column shows that half to three
// quarters of the naive protocol's test constraints are already implied by
// its training closure — it is scoring the clusterer on information it has
// effectively seen — and both protocols' CV estimates are compared against
// the true constraint-classification quality on fresh supervision.
namespace {

struct LeakStats {
  double mean_f = 0.0;        // CV F-measure under this protocol
  double leaked_fraction = 0; // test constraints derivable from train side
};

LeakStats RunProtocol(const Dataset& data, const ConstraintSet& sampled,
                      bool sound, int n_folds, Rng* rng) {
  LeakStats out;
  FoldConfig config;
  config.n_folds = n_folds;
  auto folds = sound ? MakeConstraintFolds(sampled, config, rng)
                     : MakeNaiveConstraintFolds(sampled, config, rng);
  if (!folds.ok()) return out;

  FoscOpticsDendClusterer clusterer;
  double f_sum = 0.0;
  int f_n = 0;
  size_t leaked = 0, total = 0;
  for (const FoldSplit& fold : *folds) {
    auto train_closure = TransitiveClosure(fold.train_constraints);
    if (train_closure.ok()) {
      for (const Constraint& c : fold.test_constraints.all()) {
        ++total;
        if (train_closure->Lookup(c.a, c.b).has_value()) ++leaked;
      }
    }
    Supervision train = Supervision::FromConstraints(fold.train_constraints);
    Rng run_rng = rng->Fork(91);
    auto clustering = clusterer.Cluster(data, train, /*MinPts=*/6, &run_rng);
    if (!clustering.ok()) continue;
    const ConstraintFMeasure fm = EvaluateConstraintClassification(
        clustering.value(), fold.test_constraints);
    if (!std::isnan(fm.average)) {
      f_sum += fm.average;
      ++f_n;
    }
  }
  out.mean_f = f_n > 0 ? f_sum / f_n : std::nan("");
  out.leaked_fraction =
      total > 0 ? static_cast<double>(leaked) / static_cast<double>(total)
                : 0.0;
  return out;
}

}  // namespace

int RunLeakageAblation(const PaperBenchContext& ctx) {
  const BenchOptions& options = ctx.options;

  TextTable table(
      "Constraint-scenario CV (FOSC, MinPts=6, 50% of pool). \"truth F\" = "
      "constraint classification on a FRESH pool over uninvolved objects "
      "(what CV is trying to estimate); bias = CV estimate - truth. The "
      "uniform-noise control has no structure, so nothing generalizes "
      "there.");
  table.SetHeader({"dataset", "truth F", "sound bias", "naive bias",
                   "naive leaked %"});
  double sound_bias_sum = 0.0, naive_bias_sum = 0.0;
  int over_n = 0;

  // Structureless control: uniform points with arbitrary "classes". A
  // clustering cannot genuinely predict held-out constraints here; the
  // naive protocol still scores high because the training closure implies
  // a large share of its test constraints.
  std::vector<Dataset> datasets;
  {
    Rng noise_rng(options.seed ^ 0xA015EULL);
    Matrix pts(125, 10);
    std::vector<int> labels(125);
    for (size_t i = 0; i < 125; ++i) {
      for (size_t m = 0; m < 10; ++m) pts.At(i, m) = noise_rng.NextDouble();
      labels[i] = static_cast<int>(i % 5);
    }
    datasets.emplace_back("Uniform-noise", std::move(pts), std::move(labels));
  }
  const size_t shown = std::min<size_t>(ctx.aloi.size(), 6);
  for (size_t d = 0; d < shown; ++d) datasets.push_back(ctx.aloi[d]);

  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset& data = datasets[d];
    Rng rng(options.seed + d);
    auto pool = BuildConstraintPool(data, 0.10, &rng);
    if (!pool.ok()) continue;
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    if (!sampled.ok()) continue;

    Rng rng_sound(options.seed + 100 + d);
    Rng rng_naive(options.seed + 100 + d);
    const LeakStats sound =
        RunProtocol(data, sampled.value(), true, options.n_folds, &rng_sound);
    const LeakStats naive =
        RunProtocol(data, sampled.value(), false, options.n_folds,
                    &rng_naive);

    // Ground truth: train on ALL sampled constraints, evaluate on a fresh
    // pool drawn from the objects not involved in the supervision.
    double truth_f = std::nan("");
    {
      Supervision train = Supervision::FromConstraints(sampled.value());
      FoscOpticsDendClusterer clusterer;
      Rng run_rng(options.seed + 500 + d);
      auto clustering = clusterer.Cluster(data, train, /*MinPts=*/6,
                                          &run_rng);
      if (clustering.ok()) {
        // Fresh pool over uninvolved objects, same construction as the
        // training pool.
        std::vector<bool> involved =
            train.constraints().InvolvementMask(data.size());
        std::vector<size_t> free_objects;
        for (size_t o = 0; o < data.size(); ++o) {
          if (!involved[o]) free_objects.push_back(o);
        }
        Rng fresh_rng(options.seed + 900 + d);
        std::vector<size_t> fresh =
            fresh_rng.SampleFrom(free_objects,
                                 std::min<size_t>(free_objects.size(), 20));
        ConstraintSet truth_pool =
            ConstraintSet::FromLabels(data.labels(), fresh);
        const ConstraintFMeasure fm = EvaluateConstraintClassification(
            clustering.value(), truth_pool);
        truth_f = fm.average;
      }
    }
    sound_bias_sum += sound.mean_f - truth_f;
    naive_bias_sum += naive.mean_f - truth_f;
    ++over_n;
    table.AddRow({data.name(), FormatDouble(truth_f),
                  Format("%+.4f", sound.mean_f - truth_f),
                  Format("%+.4f", naive.mean_f - truth_f),
                  Format("%.1f%%", naive.leaked_fraction * 100.0)});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (over_n > 0) {
    std::printf(
        "\nmean bias vs truth — sound: %+.4f, naive: %+.4f. A protocol "
        "whose test\nconstraints are derivable from its training closure "
        "cannot measure\ngeneralization.\n",
        sound_bias_sum / over_n, naive_bias_sum / over_n);
  }
  return 0;
}

// ablation_metric: MPCKMeans metric-learning variants under CVCP — no
// learning (PCKMeans-style), one shared diagonal metric, and the full
// per-cluster diagonal metrics the paper's MPCKMeans uses. Run on the
// scale-skewed Wine-like dataset (where adaptation matters most) and on
// pooled ALOI members.
int RunMetricAblation(const PaperBenchContext& ctx) {
  const BenchOptions& options = ctx.options;

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
  return 0;
}

// ablation_noise: the constraint-classification F-measure treats noise
// objects as singletons (cluster/clustering.h). The alternative — treating
// all noise as one big cluster — would count two noise objects as
// "together". This bench measures how much the choice moves the internal
// score and whether it can flip CVCP's selection, using FOSC (the only
// noise-producing algorithm here).
namespace {

/// Remaps noise (-1) to one shared cluster id — the alternative semantics.
Clustering NoiseAsOneCluster(const Clustering& c) {
  std::vector<int> assignment = c.assignment();
  int max_id = -1;
  for (int a : assignment) max_id = std::max(max_id, a);
  for (int& a : assignment) {
    if (a == kNoise) a = max_id + 1;
  }
  return Clustering(std::move(assignment));
}

}  // namespace

int RunNoiseAblation(const PaperBenchContext& ctx) {
  const BenchOptions& options = ctx.options;

  FoscOpticsDendClusterer clusterer;
  TextTable table(
      "Internal F per MinPts under both noise conventions (one ALOI member, "
      "constraint scenario, 50% of pool)");
  table.SetHeader({"MinPts", "noise=singletons", "noise=one-cluster",
                   "noise objects"});

  const Dataset& data = ctx.aloi[0];
  Rng rng(options.seed);
  auto pool = BuildConstraintPool(data, 0.10, &rng);
  if (!pool.ok()) {
    std::fprintf(stderr, "%s\n", pool.status().ToString().c_str());
    return 1;
  }
  auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
  if (!sampled.ok()) {
    std::fprintf(stderr, "%s\n", sampled.status().ToString().c_str());
    return 1;
  }
  Supervision supervision = Supervision::FromConstraints(sampled.value());

  const std::vector<int> grid = DefaultMinPtsGrid();
  int flips = 0;
  for (int minpts : grid) {
    Rng run_rng(options.seed + static_cast<uint64_t>(minpts));
    auto clustering =
        clusterer.Cluster(data, supervision, minpts, &run_rng);
    if (!clustering.ok()) continue;
    const ConstraintFMeasure singleton = EvaluateConstraintClassification(
        clustering.value(), supervision.constraints());
    const ConstraintFMeasure merged = EvaluateConstraintClassification(
        NoiseAsOneCluster(clustering.value()), supervision.constraints());
    if (!std::isnan(singleton.average) && !std::isnan(merged.average) &&
        std::fabs(singleton.average - merged.average) > 1e-12) {
      ++flips;
    }
    table.AddRow({Format("%d", minpts), FormatDouble(singleton.average),
                  FormatDouble(merged.average),
                  Format("%zu", clustering->NumNoise())});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\n%d of %zu grid points score differently under the two conventions.\n"
      "Merged-noise counts must-links between unclustered objects as "
      "satisfied,\nrewarding extractions that cluster nothing — hence the "
      "singleton default.\n",
      flips, grid.size());
  return 0;
}

// ablation_protocols: the paper's §2 taxonomy of external evaluation
// setups, measured. Runs the same clusterer at the same parameter under
// all four protocols on increasingly supervision-heavy settings; the
// use-all-data column drifts upward relative to the sound protocols as
// more of what is being "evaluated" was actually given to the algorithm.
int RunProtocolsAblation(const PaperBenchContext& ctx) {
  const BenchOptions& options = ctx.options;
  MpckMeansClusterer clusterer;

  TextTable table(
      "Overall F under each protocol (MPCKMeans k=5, ALOI member 0, mean "
      "over trials)");
  table.SetHeader({"supervision %", "use-all-data", "set-aside", "holdout",
                   "n-fold-cv"});
  const Dataset& data = ctx.aloi[0];
  for (double fraction : {0.1, 0.3, 0.5}) {
    std::vector<std::string> row = {Format("%g", fraction * 100.0)};
    for (ExternalProtocol p :
         {ExternalProtocol::kUseAllData, ExternalProtocol::kSetAside,
          ExternalProtocol::kHoldout, ExternalProtocol::kNFoldCv}) {
      std::vector<double> scores;
      for (int t = 0; t < options.trials; ++t) {
        ExternalEvalConfig config;
        config.protocol = p;
        config.supervision_fraction = fraction;
        config.n_folds = options.n_folds;
        Rng rng(options.seed + static_cast<uint64_t>(t) * 131);
        auto result = EvaluateWithProtocol(data, clusterer, 5, config, &rng);
        if (result.ok()) scores.push_back(result->overall_f);
      }
      row.push_back(FormatDouble(Mean(scores)));
    }
    table.AddRow(row);
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nReading: the gap between use-all-data and the sound protocols "
      "grows with the\nsupervision budget — scoring trained-on objects "
      "overstates quality (§2's warning).\n");
  return 0;
}

}  // namespace cvcp::bench
