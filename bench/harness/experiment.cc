#include "harness/experiment.h"

#include <cmath>
#include <limits>

#include <optional>

#include "cluster/silhouette.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "constraints/oracle.h"
#include "core/dataset_cache.h"
#include "core/selectors.h"
#include "eval/external_measures.h"

namespace cvcp::bench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Pearson correlation over positions where both series are defined.
double NanAwareCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  std::vector<double> xs, ys;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isnan(x[i]) && !std::isnan(y[i])) {
      xs.push_back(x[i]);
      ys.push_back(y[i]);
    }
  }
  if (xs.size() < 2) return kNaN;
  return PearsonCorrelation(xs, ys);
}

double NanAwareMean(const std::vector<double>& v) {
  double sum = 0.0;
  size_t n = 0;
  for (double x : v) {
    if (!std::isnan(x)) {
      sum += x;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : kNaN;
}

double NanAwareStdDev(const std::vector<double>& v) {
  std::vector<double> defined;
  defined.reserve(v.size());
  for (double x : v) {
    if (!std::isnan(x)) defined.push_back(x);
  }
  return SampleStdDev(defined);
}

/// Paired t-test over positions where both series are defined; a
/// default-constructed ("no test") result when fewer than 2 pairs remain.
PairedTTestResult NanAwarePairedTTest(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  std::vector<double> as, bs;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::isnan(a[i]) && !std::isnan(b[i])) {
      as.push_back(a[i]);
      bs.push_back(b[i]);
    }
  }
  if (as.size() < 2) return PairedTTestResult{};
  return PairedTTest(as, bs);
}

}  // namespace

void CellAggregate::Finalize(bool with_silhouette) {
  corr_mean = NanAwareMean(correlations);
  cvcp_mean = NanAwareMean(cvcp_values);
  cvcp_std = NanAwareStdDev(cvcp_values);
  exp_mean = NanAwareMean(exp_values);
  exp_std = NanAwareStdDev(exp_values);
  sil_mean = NanAwareMean(sil_values);
  sil_std = NanAwareStdDev(sil_values);
  cvcp_vs_exp = NanAwarePairedTTest(cvcp_values, exp_values);
  if (with_silhouette) {
    cvcp_vs_sil = NanAwarePairedTTest(cvcp_values, sil_values);
  }
}

TrialResult RunTrial(const Dataset& data,
                     const SemiSupervisedClusterer& clusterer,
                     const TrialSpec& spec, uint64_t trial_seed,
                     DatasetCache* cache) {
  TrialResult out;
  Rng rng(trial_seed);

  // 1. Sample this trial's supervision.
  Supervision supervision = Supervision::FromConstraints(ConstraintSet{});
  Rng oracle_rng = rng.Fork(1);
  if (spec.scenario == Scenario::kLabels) {
    auto labeled = SampleLabeledObjects(data, spec.level, &oracle_rng);
    if (!labeled.ok()) {
      out.error = labeled.status().ToString();
      return out;
    }
    supervision = Supervision::FromLabels(data, std::move(labeled).value());
  } else {
    auto pool = BuildConstraintPool(data, spec.pool_fraction, &oracle_rng);
    if (!pool.ok()) {
      out.error = pool.status().ToString();
      return out;
    }
    auto sampled = SampleConstraints(pool.value(), spec.level, &oracle_rng);
    if (!sampled.ok()) {
      out.error = sampled.status().ToString();
      return out;
    }
    supervision = Supervision::FromConstraints(std::move(sampled).value());
  }

  // 2. CVCP internal scores over the grid.
  CvcpConfig config;
  config.cv.n_folds = spec.n_folds;
  config.cv.exec = spec.exec;
  config.param_grid = spec.grid;
  Rng cvcp_rng = rng.Fork(2);
  auto report = RunCvcp(data, supervision, clusterer, config, &cvcp_rng,
                        cache);
  if (!report.ok()) {
    out.error = report.status().ToString();
    return out;
  }
  out.internal_scores.reserve(spec.grid.size());
  for (const CvcpParamScore& s : report->scores) {
    out.internal_scores.push_back(s.score);
  }
  out.cvcp_param = report->best_param;

  // 3. Full-supervision clustering at every grid value; external Overall F
  //    on the non-involved objects; silhouette if requested. All selectors
  //    are evaluated on these same candidate clusterings.
  const std::vector<bool> exclude = supervision.InvolvementMask(data.size());
  Rng sweep_rng = rng.Fork(3);
  out.external_scores.assign(spec.grid.size(), kNaN);
  out.silhouettes.assign(spec.grid.size(), kNaN);
  // Grid values are independent full-dataset runs; fan them out on the
  // same engine as the CVCP cells. RNGs are pre-forked in grid order and
  // each iteration writes only its own slots, so results are identical to
  // the serial sweep; the first error in grid order wins.
  std::vector<Rng> run_rngs;
  run_rngs.reserve(spec.grid.size());
  for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
    run_rngs.push_back(sweep_rng.Fork(gi));
  }
  std::vector<Status> sweep_errors(spec.grid.size());
  FirstErrorTracker first_error(spec.grid.size());
  ParallelFor(spec.exec, spec.grid.size(), [&](size_t gi) {
    if (first_error.ShouldSkip(gi)) return;
    Rng run_rng = run_rngs[gi];
    auto clustering =
        clusterer.Cluster(data, supervision, spec.grid[gi], &run_rng,
                          ClusterContext{cache, spec.exec});
    if (!clustering.ok()) {
      sweep_errors[gi] = clustering.status();
      first_error.Record(gi);
      return;
    }
    out.external_scores[gi] =
        OverallFMeasure(data.labels(), clustering.value(), &exclude);
    if (spec.with_silhouette) {
      // The cached matrix holds exactly the doubles the on-the-fly scan
      // computes, so the silhouettes are byte-identical either way.
      out.silhouettes[gi] =
          cache != nullptr
              ? SilhouetteCoefficient(
                    *cache->Distances(Metric::kEuclidean, spec.exec),
                    clustering.value())
              : SilhouetteCoefficient(data.points(), clustering.value());
    }
  });
  for (const Status& status : sweep_errors) {
    if (!status.ok()) {
      out.error = status.ToString();
      return out;
    }
  }

  // 4. Derived quantities.
  out.correlation =
      NanAwareCorrelation(out.internal_scores, out.external_scores);
  out.expected_external = ExpectedQuality(out.external_scores);
  bool pick_in_grid = false;
  for (size_t gi = 0; gi < spec.grid.size(); ++gi) {
    if (spec.grid[gi] == out.cvcp_param) {
      out.cvcp_external = out.external_scores[gi];
      pick_in_grid = true;
      break;
    }
  }
  if (!pick_in_grid) {
    // Aggregating the stale default as a real score would bias the cell;
    // a pick outside the grid is a broken trial, not a zero-quality one.
    out.error = Format("CVCP picked parameter %d, which is not in the grid",
                       out.cvcp_param);
    return out;
  }
  if (spec.with_silhouette) {
    const int sil_idx = OracleIndex(out.silhouettes);
    if (sil_idx >= 0) {
      out.silhouette_param = spec.grid[static_cast<size_t>(sil_idx)];
      out.silhouette_external =
          out.external_scores[static_cast<size_t>(sil_idx)];
    } else {
      out.silhouette_external = kNaN;
    }
  } else {
    out.silhouette_external = kNaN;
  }
  out.ok = true;
  return out;
}

CellAggregate RunExperiment(const Dataset& data,
                            const SemiSupervisedClusterer& clusterer,
                            const TrialSpec& spec, int trials, uint64_t seed) {
  const size_t n_trials = trials > 0 ? static_cast<size_t>(trials) : 0;
  // Trials are independent; fan them out on the engine. Seeds are
  // pre-forked by trial id (Fork never consumes parent state, so they are
  // exactly the serial loop's seeds), each trial writes only its own
  // pre-sized slot, and the reduction below runs in trial order — the
  // aggregate is byte-identical for every thread count.
  Rng master(seed);
  std::vector<uint64_t> trial_seeds;
  trial_seeds.reserve(n_trials);
  for (size_t t = 0; t < n_trials; ++t) {
    trial_seeds.push_back(master.Fork(static_cast<uint64_t>(t)).seed());
  }
  const NestedBudget budget = PlanBudget(spec.exec, n_trials);
  TrialSpec trial_spec = spec;
  trial_spec.exec = budget.inner;
  // One compute cache for the dataset, shared by every trial lane: the
  // supervision-independent geometry (distances, OPTICS models) is
  // identical across trials, so the first lane to need a structure builds
  // it and everyone else reuses it. Trial results stay byte-identical —
  // the cache only changes who computes the doubles, never their values.
  // A run-wide pool (shared LRU + optional disk store) takes precedence:
  // geometry then outlives this experiment and is shared across
  // supervision levels and datasets. Otherwise fall back to a private
  // per-experiment cache.
  std::optional<DatasetCache> cache;
  DatasetCache* cache_ptr = nullptr;
  if (spec.use_cache) {
    if (spec.cache_pool != nullptr) {
      cache_ptr = spec.cache_pool->For(data.points());
    } else {
      cache.emplace(data.points(),
                    DatasetCacheTiers{nullptr, nullptr,
                                      spec.distance_storage});
      cache_ptr = &*cache;
    }
  }
  // Build (or load, on a warm store) the whole supervision-independent
  // phase up front, so the fan-out below starts with a fully warm cache
  // and the disk tier is consulted once per artifact instead of racing.
  clusterer.PrewarmCache(data, spec.grid, cache_ptr, spec.exec);
  std::vector<TrialResult> results(n_trials);
  ParallelFor(budget.outer, n_trials, [&](size_t t) {
    results[t] = RunTrial(data, clusterer, trial_spec, trial_seeds[t],
                          cache_ptr);
  });

  CellAggregate agg;
  for (const TrialResult& trial : results) {
    if (!trial.ok) continue;
    ++agg.trials_ok;
    agg.cvcp_values.push_back(trial.cvcp_external);
    agg.exp_values.push_back(trial.expected_external);
    agg.sil_values.push_back(trial.silhouette_external);
    agg.correlations.push_back(trial.correlation);
  }
  agg.Finalize(spec.with_silhouette);
  return agg;
}

AloiAggregate RunAloiExperiment(const std::vector<Dataset>& collection,
                                const SemiSupervisedClusterer& clusterer,
                                const TrialSpec& spec, int trials,
                                uint64_t seed) {
  AloiAggregate out;
  // Collection members are independent cells; same discipline as the trial
  // fan-out: seeds pre-forked by dataset index, per-dataset result slots,
  // reduction in dataset order. The trial loop inside each cell shares the
  // same budget (nested ParallelFor lanes queue on the one shared pool and
  // waiting lanes help execute them, so the pool is never oversubscribed).
  Rng master(seed);
  std::vector<uint64_t> dataset_seeds;
  dataset_seeds.reserve(collection.size());
  for (size_t d = 0; d < collection.size(); ++d) {
    dataset_seeds.push_back(master.Fork(d).seed());
  }
  const NestedBudget budget = PlanBudget(spec.exec, collection.size());
  TrialSpec cell_spec = spec;
  cell_spec.exec = budget.inner;
  out.per_dataset.resize(collection.size());
  ParallelFor(budget.outer, collection.size(), [&](size_t d) {
    out.per_dataset[d] = RunExperiment(collection[d], clusterer, cell_spec,
                                       trials, dataset_seeds[d]);
  });

  for (const CellAggregate& cell : out.per_dataset) {
    if (cell.cvcp_vs_exp.SignificantAt(0.05)) ++out.significant_vs_expected;
    if (spec.with_silhouette && cell.cvcp_vs_sil.SignificantAt(0.05)) {
      ++out.significant_vs_silhouette;
    }
    // Pool per-trial values for collection-level stats and boxplots.
    auto& pooled = out.pooled;
    pooled.trials_ok += cell.trials_ok;
    pooled.cvcp_values.insert(pooled.cvcp_values.end(),
                              cell.cvcp_values.begin(),
                              cell.cvcp_values.end());
    pooled.exp_values.insert(pooled.exp_values.end(), cell.exp_values.begin(),
                             cell.exp_values.end());
    pooled.sil_values.insert(pooled.sil_values.end(), cell.sil_values.begin(),
                             cell.sil_values.end());
    pooled.correlations.insert(pooled.correlations.end(),
                               cell.correlations.begin(),
                               cell.correlations.end());
  }
  out.pooled.Finalize(spec.with_silhouette);
  return out;
}

std::string FormatMeanStd(double mean, double stddev) {
  if (std::isnan(mean)) return "—";
  return Format("%.4f ±%.4f", mean, stddev);
}

std::string SigMarker(const PairedTTestResult& test) {
  return test.SignificantAt(0.05) ? "*" : "";
}

}  // namespace cvcp::bench
