// Micro-benchmarks (google-benchmark) for the core primitives: constraint
// closure, fold splitting, OPTICS, k-means, MPCKMeans iterations, FOSC
// extraction, distance kernels and the constraint F-measure. These track
// the cost model behind the paper-scale benches. Before the
// google-benchmark suites run, main() prints the scaling tables for the
// parallel execution engine: CVCP serial-vs-parallel (longest-first cell
// ordering), the trial-level fan-out on a wide outer loop, and the
// per-dataset compute cache on the FOSC scenario (cache-on vs cache-off
// with hit counts and per-stage wall time) —
// plus the distance-matrix build table (tiled build vs a per-pair loop
// over the portable fixed-lane kernels) and the f32-vs-f64 CVCP
// selection-agreement ablation, both written to BENCH_distance.json.
//
// Unlike the paper benches, this binary takes google-benchmark flags; the
// few engine options it supports (--threads N, --cache-table-only,
// --store DIR, --json PATH, --distance-json PATH) are stripped from argv
// before benchmark::Initialize. --store DIR adds store-cold / store-warm
// rows to the cache table (the warm row must serve every OPTICS model
// from disk). Every table row is mirrored into a machine-readable
// JSON report (--json PATH, default BENCH_micro.json; pass '' to
// disable).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <bit>

#include "cluster/dendrogram.h"
#include "cluster/fosc.h"
#include "cluster/kmeans.h"
#include "cluster/mpckmeans.h"
#include "cluster/optics.h"
#include "common/distance.h"
#include "common/distance_kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "constraints/folds.h"
#include "constraints/oracle.h"
#include "constraints/transitive_closure.h"
#include "common/strings.h"
#include "core/artifact_store.h"
#include "core/cvcp.h"
#include "core/dataset_cache.h"
#include "core/fmeasure.h"
#include "data/generators.h"
#include "harness/experiment.h"

namespace {

using namespace cvcp;  // NOLINT

Dataset BenchData(size_t per_cluster, int k, size_t dims) {
  Rng rng(7);
  return MakeBlobs("bench", k, per_cluster, dims, 10.0, 1.0, &rng);
}

// Set false by any scaling-table row whose results drift from its
// baseline; main() exits nonzero so the CI smoke steps actually fail on
// a determinism regression instead of only printing it.
bool g_determinism_ok = true;

// Machine-readable mirror of every scaling-table row, emitted as
// BENCH_micro.json (--json PATH; empty disables). Each entry is one
// complete JSON object; WriteJsonReport wraps them with the determinism
// verdict.
std::vector<std::string> g_json_rows;

void AddJsonRow(std::string row) { g_json_rows.push_back(std::move(row)); }

// Rows of the distance-build and f32-ablation tables, written only to
// the standalone BENCH_distance.json (--distance-json PATH).
std::vector<std::string> g_distance_rows;

void AddDistanceRow(std::string row) {
  g_distance_rows.push_back(std::move(row));
}

void WriteDistanceJsonReport(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write JSON report %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"bench_micro/distance\",\n"
               "  \"arch\": \"%s\",\n"
               "  \"determinism_ok\": %s,\n  \"rows\": [\n",
               DistanceKernelArch(), g_determinism_ok ? "true" : "false");
  for (size_t i = 0; i < g_distance_rows.size(); ++i) {
    std::fprintf(file, "    %s%s\n", g_distance_rows[i].c_str(),
                 i + 1 < g_distance_rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %zu JSON rows to %s\n", g_distance_rows.size(),
              path.c_str());
}

void WriteJsonReport(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write JSON report %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"bench_micro\",\n"
               "  \"determinism_ok\": %s,\n  \"rows\": [\n",
               g_determinism_ok ? "true" : "false");
  for (size_t i = 0; i < g_json_rows.size(); ++i) {
    std::fprintf(file, "    %s%s\n", g_json_rows[i].c_str(),
                 i + 1 < g_json_rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %zu JSON rows to %s\n", g_json_rows.size(),
              path.c_str());
}

// NaN-safe exact equality: compares bit patterns, so NaN == NaN (same
// payload) and +0.0 != -0.0 — the byte-identity the engine guarantees.
bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

ConstraintSet BenchConstraints(const Dataset& data, double frac) {
  Rng rng(11);
  auto pool = BuildConstraintPool(data, frac, &rng);
  CVCP_CHECK(pool.ok());
  return std::move(pool).value();
}

void BM_TransitiveClosure(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  for (auto _ : state) {
    auto closure = TransitiveClosure(constraints);
    benchmark::DoNotOptimize(closure);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(constraints.size()));
}
BENCHMARK(BM_TransitiveClosure)->Arg(25)->Arg(50)->Arg(100);

void BM_ConstraintFolds(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  Rng rng(13);
  FoldConfig config;
  config.n_folds = 5;
  for (auto _ : state) {
    auto folds = MakeConstraintFolds(constraints, config, &rng);
    benchmark::DoNotOptimize(folds);
  }
}
BENCHMARK(BM_ConstraintFolds)->Arg(25)->Arg(50)->Arg(100);

void BM_Optics(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  OpticsConfig config;
  config.min_pts = 5;
  for (auto _ : state) {
    auto result = RunOptics(data.points(), config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Optics)->Arg(25)->Arg(50)->Arg(100);

void BM_DendrogramAndFosc(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  OpticsConfig config;
  config.min_pts = 5;
  auto optics = RunOptics(data.points(), config);
  CVCP_CHECK(optics.ok());
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  for (auto _ : state) {
    Dendrogram dg = Dendrogram::FromReachability(optics.value());
    auto fosc = ExtractClusters(dg, constraints, FoscConfig{});
    benchmark::DoNotOptimize(fosc);
  }
}
BENCHMARK(BM_DendrogramAndFosc)->Arg(25)->Arg(50)->Arg(100);

void BM_KMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  KMeansConfig config;
  config.k = 5;
  config.n_init = 1;
  Rng rng(17);
  for (auto _ : state) {
    auto result = RunKMeans(data.points(), config, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeans)->Arg(25)->Arg(50)->Arg(100);

void BM_MpckMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 16);
  ConstraintSet constraints = BenchConstraints(data, 0.2);
  MpckMeansConfig config;
  config.k = 5;
  Rng rng(19);
  for (auto _ : state) {
    auto result = RunMpckMeans(data.points(), constraints, config, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MpckMeans)->Arg(25)->Arg(50)->Arg(100);

// The dispatched fixed-lane squared-Euclidean kernel (Arg: dims).
void BM_SquaredEuclideanKernel(benchmark::State& state) {
  Rng rng(41);
  std::vector<double> a(static_cast<size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanDistance(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_SquaredEuclideanKernel)->Arg(16)->Arg(128);

void BM_ConstraintFMeasure(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 5, 8);
  ConstraintSet constraints = BenchConstraints(data, 0.3);
  Clustering clustering(data.labels());
  for (auto _ : state) {
    auto fm = EvaluateConstraintClassification(clustering, constraints);
    benchmark::DoNotOptimize(fm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(constraints.size()));
}
BENCHMARK(BM_ConstraintFMeasure)->Arg(25)->Arg(50)->Arg(100);

// Serial-vs-parallel CVCP wall time on the engine's target workload: a
// 10-fold × 8-value MPCKMeans grid (80 clustering cells per run). Also
// cross-checks that every configuration selects the same parameter with
// the same score — the engine's determinism guarantee. Parallel rows run
// the cells longest-first by the size estimate.
void PrintCvcpScalingTable() {
  Dataset data = BenchData(/*per_cluster=*/40, /*k=*/5, /*dims=*/16);
  Rng rng(23);
  auto labeled = SampleLabeledObjects(data, 0.3, &rng);
  CVCP_CHECK(labeled.ok());
  Supervision supervision = Supervision::FromLabels(data, labeled.value());

  MpckMeansClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 10;
  config.param_grid = {2, 3, 4, 5, 6, 7, 8, 9};

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> thread_counts = {1};
  if (hw >= 2) thread_counts.push_back(2);
  if (hw > 2) thread_counts.push_back(hw);

  std::printf(
      "=== CVCP serial vs parallel "
      "(MPCKMeans, %d-fold x %zu-value grid, n=%zu, %d hardware threads) "
      "===\n",
      config.cv.n_folds, config.param_grid.size(), data.size(), hw);
  std::printf("%-16s %8s %12s %10s %10s %s\n", "cell order", "threads",
              "wall_ms", "speedup", "efficiency", "matches serial");

  double serial_ms = 0.0;
  int serial_best = 0;
  double serial_score = 0.0;
  auto run_row = [&](const char* label, int threads) {
    config.cv.exec.threads = threads;
    Rng run_rng(29);
    const auto start = std::chrono::steady_clock::now();
    auto report = RunCvcp(data, supervision, clusterer, config, &run_rng);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    CVCP_CHECK(report.ok());
    if (threads == 1) {
      serial_ms = ms;
      serial_best = report->best_param;
      serial_score = report->best_score;
      std::printf("%-16s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                  1.0, 100.0, "(baseline)");
      AddJsonRow(Format(
          "{\"table\": \"cvcp_scaling\", \"mode\": \"%s\", \"threads\": %d, "
          "\"wall_ms\": %.3f, \"speedup\": 1.0, \"matches\": true}",
          label, threads, ms));
    } else {
      const bool matches = report->best_param == serial_best &&
                           BitsEqual(report->best_score, serial_score);
      if (!matches) g_determinism_ok = false;
      const double speedup = serial_ms / ms;
      std::printf("%-16s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                  speedup, 100.0 * speedup / threads,
                  matches ? "yes" : "NO — DETERMINISM BUG");
      AddJsonRow(Format(
          "{\"table\": \"cvcp_scaling\", \"mode\": \"%s\", \"threads\": %d, "
          "\"wall_ms\": %.3f, \"speedup\": %.3f, \"matches\": %s}",
          label, threads, ms, speedup, matches ? "true" : "false"));
    }
  };
  for (int threads : thread_counts) {
    run_row(threads == 1 ? "(serial)" : "size estimate", threads);
  }
  std::printf("\n");
}

// The per-dataset compute cache on its target workload: FOSC-OPTICSDend,
// whose OPTICS + dendrogram stage is supervision-independent. Uncached,
// every (param, fold) cell plus the final run pays a full OPTICS pass
// with on-the-fly O(d) distances — G×F+1 OPTICS runs per CVCP invocation.
// With the cache, the condensed distance matrix is built once, OPTICS
// runs once per grid value (G builds, the other G×(F-1)+1 cells are memo
// hits), and every distance evaluation inside OPTICS is an O(1) lookup.
// The table prints per-stage wall time (distance build, OPTICS model
// builds) and hit counts next to the speedup columns, and cross-checks
// that cached reports match the uncached baseline bit for bit.
//
// With --store DIR two more rows run against the persistent tier: the
// "store-cold" row purges DIR and populates it, the "store-warm" row uses
// a *fresh* DatasetCache over the same directory — so every model on the
// warm row must come from disk (model_builds = 0, model_loads = G), which
// is the in-process rehearsal of the cross-process warm start. A warm row
// that rebuilds anything fails the run like a determinism bug would.
void PrintFoscCacheTable(int threads, const std::string& store_dir) {
  Dataset data = BenchData(/*per_cluster=*/40, /*k=*/5, /*dims=*/16);
  Rng rng(37);
  auto pool = BuildConstraintPool(data, 0.25, &rng);
  CVCP_CHECK(pool.ok());
  auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
  CVCP_CHECK(sampled.ok());
  Supervision supervision =
      Supervision::FromConstraints(std::move(sampled).value());

  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 10;
  config.param_grid = {3, 4, 5, 6, 7, 8, 9, 10};
  const size_t cells =
      config.param_grid.size() * static_cast<size_t>(config.cv.n_folds) + 1;

  std::printf(
      "=== Per-dataset compute cache "
      "(FOSC-OPTICSDend, %d-fold x %zu-value MinPts grid = %zu OPTICS-"
      "dependent runs, n=%zu, %d threads) ===\n",
      config.cv.n_folds, config.param_grid.size(), cells, data.size(),
      threads);
  std::printf("%-10s %8s %12s %9s %7s %6s %10s %10s %8s %9s %s\n", "cache",
              "threads", "wall_ms", "speedup", "optics", "loads",
              "model_hit", "dist_b/h", "dist_ms", "optics_ms",
              "matches uncached");

  double baseline_ms = 0.0;
  CvcpReport baseline;
  auto run_row = [&](const char* label, bool cache_on, int row_threads,
                     ArtifactStore* store, bool expect_warm) {
    config.cv.exec.threads = row_threads;
    std::optional<DatasetCache> cache;
    if (cache_on) {
      cache.emplace(data.points(), DatasetCacheTiers{nullptr, store});
    }
    Rng run_rng(43);
    const auto start = std::chrono::steady_clock::now();
    auto report = RunCvcp(data, supervision, clusterer, config, &run_rng,
                          cache.has_value() ? &*cache : nullptr);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    CVCP_CHECK(report.ok());
    const bool is_baseline = !cache_on && row_threads == 1;
    if (is_baseline) {
      baseline_ms = ms;
      baseline = *report;
    }
    bool matches = report->best_param == baseline.best_param &&
                   BitsEqual(report->best_score, baseline.best_score);
    for (size_t g = 0; matches && g < baseline.scores.size(); ++g) {
      matches = BitsEqual(report->scores[g].score, baseline.scores[g].score);
    }
    matches = matches && report->final_clustering.assignment() ==
                             baseline.final_clustering.assignment();
    if (!is_baseline && !matches) g_determinism_ok = false;
    // Uncached rows run OPTICS once per cell by construction; cached rows
    // report the cache's actual build/load/hit counters.
    DatasetCache::Stats stats;
    if (cache.has_value()) stats = cache->stats();
    const bool warm_ok =
        !expect_warm || (stats.model_builds == 0 && stats.model_loads > 0);
    if (!warm_ok) g_determinism_ok = false;
    const uint64_t optics_runs =
        cache_on ? stats.model_builds : static_cast<uint64_t>(cells);
    char dist_col[32];
    std::snprintf(dist_col, sizeof(dist_col), "%llu/%llu",
                  static_cast<unsigned long long>(stats.distance_builds),
                  static_cast<unsigned long long>(stats.distance_hits));
    std::printf(
        "%-10s %8d %12.1f %8.2fx %7llu %6llu %10llu %10s %8.1f %9.1f %s\n",
        label, row_threads, ms, baseline_ms / ms,
        static_cast<unsigned long long>(optics_runs),
        static_cast<unsigned long long>(stats.model_loads),
        static_cast<unsigned long long>(stats.model_hits), dist_col,
        stats.distance_build_ms, stats.model_build_ms,
        is_baseline ? "(baseline)"
        : !matches  ? "NO — DETERMINISM BUG"
        : !warm_ok  ? "yes, but STORE NOT WARM"
                    : "yes");
    AddJsonRow(Format(
        "{\"table\": \"fosc_cache\", \"label\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"optics_runs\": %llu, \"model_builds\": %llu, "
        "\"model_loads\": %llu, \"model_hits\": %llu, "
        "\"dist_builds\": %llu, \"dist_loads\": %llu, \"dist_hits\": %llu, "
        "\"dist_ms\": %.3f, \"optics_ms\": %.3f, \"matches\": %s}",
        label, row_threads, ms,
        static_cast<unsigned long long>(optics_runs),
        static_cast<unsigned long long>(stats.model_builds),
        static_cast<unsigned long long>(stats.model_loads),
        static_cast<unsigned long long>(stats.model_hits),
        static_cast<unsigned long long>(stats.distance_builds),
        static_cast<unsigned long long>(stats.distance_loads),
        static_cast<unsigned long long>(stats.distance_hits),
        stats.distance_build_ms, stats.model_build_ms,
        matches && warm_ok ? "true" : "false"));
  };
  run_row("off", /*cache_on=*/false, /*row_threads=*/1, nullptr, false);
  run_row("on", /*cache_on=*/true, /*row_threads=*/1, nullptr, false);
  if (threads > 1) {
    run_row("off", /*cache_on=*/false, threads, nullptr, false);
    run_row("on", /*cache_on=*/true, threads, nullptr, false);
  }
  if (!store_dir.empty()) {
    ArtifactStore store(store_dir);
    auto purged = store.Purge();
    if (!purged.ok()) {
      std::fprintf(stderr, "%s\n", purged.status().ToString().c_str());
    }
    run_row("store-cold", /*cache_on=*/true, /*row_threads=*/1, &store,
            /*expect_warm=*/false);
    run_row("store-warm", /*cache_on=*/true, /*row_threads=*/1, &store,
            /*expect_warm=*/true);
    const ArtifactStore::Stats ss = store.stats();
    std::printf(
        "store %s: disk_hits=%llu disk_misses=%llu writes=%llu "
        "bytes_written=%llu bytes_read=%llu\n",
        store_dir.c_str(), static_cast<unsigned long long>(ss.disk_hits),
        static_cast<unsigned long long>(ss.disk_misses),
        static_cast<unsigned long long>(ss.writes),
        static_cast<unsigned long long>(ss.bytes_written),
        static_cast<unsigned long long>(ss.bytes_read));
    AddJsonRow(Format(
        "{\"table\": \"store\", \"dir\": \"%s\", \"disk_hits\": %llu, "
        "\"disk_misses\": %llu, \"corrupt_misses\": %llu, "
        "\"version_misses\": %llu, \"writes\": %llu, "
        "\"write_errors\": %llu, \"bytes_written\": %llu, "
        "\"bytes_read\": %llu}",
        store_dir.c_str(), static_cast<unsigned long long>(ss.disk_hits),
        static_cast<unsigned long long>(ss.disk_misses),
        static_cast<unsigned long long>(ss.corrupt_misses),
        static_cast<unsigned long long>(ss.version_misses),
        static_cast<unsigned long long>(ss.writes),
        static_cast<unsigned long long>(ss.write_errors),
        static_cast<unsigned long long>(ss.bytes_written),
        static_cast<unsigned long long>(ss.bytes_read)));
  }
  std::printf("\n");
}

// Row-runner for the RunExperiment scaling table: runs one
// engine configuration, prints wall time plus the derived
// speedup-vs-serial and efficiency (speedup / threads) columns, and
// cross-checks the engine's guarantee that every configuration produces
// bit-identical aggregates.
struct ExperimentScalingBaseline {
  double serial_ms = 0.0;
  uint64_t serial_mean_bits = 0;
  int serial_ok = 0;
};

void RunExperimentScalingRow(const Dataset& data,
                             const MpckMeansClusterer& clusterer,
                             cvcp::bench::TrialSpec spec, int trials,
                             const char* table, const char* label,
                             int threads,
                             ExperimentScalingBaseline* baseline) {
  spec.exec.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const cvcp::bench::CellAggregate agg =
      cvcp::bench::RunExperiment(data, clusterer, spec, trials, /*seed=*/31);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const uint64_t mean_bits = std::bit_cast<uint64_t>(agg.cvcp_mean);
  if (threads == 1) {
    baseline->serial_ms = ms;
    baseline->serial_mean_bits = mean_bits;
    baseline->serial_ok = agg.trials_ok;
    std::printf("%-14s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                1.0, 100.0, "(baseline)");
    AddJsonRow(Format(
        "{\"table\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"speedup\": 1.0, \"matches\": true}",
        table, label, threads, ms));
  } else {
    const bool matches = mean_bits == baseline->serial_mean_bits &&
                         agg.trials_ok == baseline->serial_ok;
    if (!matches) g_determinism_ok = false;
    const double speedup = baseline->serial_ms / ms;
    std::printf("%-14s %8d %12.1f %9.2fx %9.2f%% %s\n", label, threads, ms,
                speedup, 100.0 * speedup / threads,
                matches ? "yes" : "NO — DETERMINISM BUG");
    AddJsonRow(Format(
        "{\"table\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
        "\"wall_ms\": %.3f, \"speedup\": %.3f, \"matches\": %s}",
        table, label, threads, ms, speedup, matches ? "true" : "false"));
  }
}

// Serial-vs-parallel wall time for the *trial-level* fan-out in
// RunExperiment on a wide outer loop (many trials): fully serial, then
// the whole hardware budget shared by trial lanes and their CVCP cells
// (PlanBudget).
void PrintTrialScalingTable() {
  Dataset data = BenchData(/*per_cluster=*/25, /*k=*/4, /*dims=*/8);
  MpckMeansClusterer clusterer;

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  cvcp::bench::TrialSpec spec;
  spec.scenario = cvcp::bench::Scenario::kLabels;
  spec.level = 0.20;
  spec.n_folds = 5;
  spec.grid = {2, 3, 4, 5};
  const int trials = std::max(8, hw);

  std::printf(
      "=== RunExperiment serial vs trial-parallel "
      "(MPCKMeans, %d trials, %d-fold x %zu-value grid, n=%zu, "
      "%d hardware threads) ===\n",
      trials, spec.n_folds, spec.grid.size(), data.size(), hw);
  std::printf("%-14s %8s %12s %10s %10s %s\n", "mode", "threads", "wall_ms",
              "speedup", "efficiency", "matches serial");

  ExperimentScalingBaseline baseline;
  RunExperimentScalingRow(data, clusterer, spec, trials, "trial_scaling",
                          "serial", 1, &baseline);
  if (hw >= 2) {
    RunExperimentScalingRow(data, clusterer, spec, trials, "trial_scaling",
                            "parallel", hw, &baseline);
  }
  std::printf("\n");
}

// Distance-matrix build on a 64-dimensional blob set, against a
// bench-local baseline: a serial per-pair row sweep over the portable
// fixed-lane kernels (no SIMD, no tiling). Every library build must
// reproduce that baseline bit for bit — at 1 and 8 threads — and the f32
// build must hold exactly float(baseline) in every slot. Any check
// failure flips the process exit code via g_determinism_ok, like the
// other tables.
void PrintDistanceKernelTable() {
  Rng rng(53);
  Dataset data = MakeBlobs("kernel-bench", /*k=*/8, /*per_cluster=*/64,
                           /*dims=*/64, 10.0, 1.0, &rng);
  const Matrix& pts = data.points();
  const Metric metric = Metric::kEuclidean;
  const size_t n = pts.rows();
  const size_t d = pts.cols();

  std::printf(
      "=== Distance-matrix build vs portable per-pair baseline "
      "(n=%zu, d=%zu, euclidean, arch=%s) ===\n",
      n, d, DistanceKernelArch());
  std::printf("%-24s %10s %9s  %s\n", "configuration", "wall_ms", "speedup",
              "values");

  // Best-of-5 wall time of `run`, which leaves its result in a local.
  auto time_best = [](const std::function<void()>& run) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      run();
      best = std::min(best, std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    return best;
  };

  const auto portable_sq = FixedLaneKernelsPortable().squared_euclidean;
  std::vector<double> baseline;
  const double ms_baseline = time_best([&] {
    std::vector<double> out;
    out.reserve(n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        out.push_back(
            std::sqrt(portable_sq(pts.Row(i).data(), pts.Row(j).data(), d)));
      }
    }
    baseline = std::move(out);
  });

  auto same_as_baseline = [&](const DistanceMatrix& m) {
    const bool f32 = m.storage() == DistanceStorage::kF32;
    const size_t size = f32 ? m.condensed32().size() : m.condensed().size();
    if (size != baseline.size()) return false;
    for (size_t i = 0; i < size; ++i) {
      const bool equal =
          f32 ? std::bit_cast<uint32_t>(m.condensed32()[i]) ==
                    std::bit_cast<uint32_t>(NarrowToF32(baseline[i]))
              : BitsEqual(m.condensed()[i], baseline[i]);
      if (!equal) return false;
    }
    return true;
  };

  auto emit = [&](const char* label, const char* kernel, bool tiled,
                  DistanceStorage storage, int threads, double ms,
                  const char* values, bool values_ok) {
    const double speedup = ms_baseline / ms;
    std::printf("%-24s %10.2f %8.2fx  %s\n", label, ms, speedup, values);
    AddDistanceRow(Format(
        "{\"table\": \"distance_build\", \"config\": \"%s\", "
        "\"kernel\": \"%s\", \"tiled\": %s, \"storage\": \"%s\", "
        "\"threads\": %d, \"n\": %zu, \"dims\": %zu, \"wall_ms\": %.4f, "
        "\"speedup\": %.3f, \"values_ok\": %s}",
        label, kernel, tiled ? "true" : "false", DistanceStorageName(storage),
        threads, n, d, ms, speedup, values_ok ? "true" : "false"));
  };
  emit("portable-per-pair", "fixed-lane-portable", false,
       DistanceStorage::kF64, 1, ms_baseline, "(baseline)", true);
  struct Row {
    const char* label;
    int threads;
    DistanceStorage storage;
    const char* ok_text;
  };
  const Row rows[] = {
      {"tiled", 1, DistanceStorage::kF64, "bitwise == baseline"},
      {"tiled", 8, DistanceStorage::kF64, "bitwise == baseline"},
      {"tiled-f32", 1, DistanceStorage::kF32, "== float(baseline) exactly"},
  };
  for (const Row& row : rows) {
    ExecutionContext exec;
    exec.threads = row.threads;
    DistanceMatrix m;
    const double ms = time_best(
        [&] { m = DistanceMatrix::Compute(pts, metric, exec, row.storage); });
    const bool ok = same_as_baseline(m);
    if (!ok) g_determinism_ok = false;
    emit(row.label, DistanceKernelArch(), true, row.storage, row.threads, ms,
         ok ? row.ok_text : "NO — BUILD CHANGED VALUES", ok);
  }
  std::printf("\n");
}

// Does float32 distance storage change what CVCP *selects*? Runs the
// FOSC-OPTICSDend sweep (the algorithm whose entire pipeline sits on the
// cached matrix) on several blob datasets, once with an f64-storage cache
// and once with f32, and reports selection agreement plus the largest
// best-score drift. Informational: rounding-induced drift here is
// expected and bounded, not a determinism bug — within a storage mode
// results stay bitwise-reproducible.
void PrintStorageAblationTable() {
  FoscOpticsDendClusterer clusterer;
  CvcpConfig config;
  config.cv.n_folds = 5;
  config.param_grid = {3, 4, 5, 6, 7, 8};
  constexpr int kDatasets = 5;

  std::printf(
      "=== f32 vs f64 distance storage: CVCP selection agreement "
      "(FOSC-OPTICSDend, %d-fold x %zu-value MinPts grid, %d datasets) "
      "===\n",
      config.cv.n_folds, config.param_grid.size(), kDatasets);
  std::printf("%-10s %10s %10s %8s %14s\n", "dataset", "pick(f64)",
              "pick(f32)", "agree", "|score drift|");

  int agreements = 0;
  double max_drift = 0.0;
  for (int d = 0; d < kDatasets; ++d) {
    Rng rng(100 + d);
    Dataset data = MakeBlobs(Format("abl%d", d), /*k=*/4, /*per_cluster=*/30,
                             /*dims=*/16, 10.0, 1.0, &rng);
    auto pool = BuildConstraintPool(data, 0.25, &rng);
    CVCP_CHECK(pool.ok());
    auto sampled = SampleConstraints(pool.value(), 0.5, &rng);
    CVCP_CHECK(sampled.ok());
    Supervision supervision =
        Supervision::FromConstraints(std::move(sampled).value());
    int best[2] = {0, 0};
    double score[2] = {0.0, 0.0};
    for (int s = 0; s < 2; ++s) {
      DatasetCache cache(
          data.points(),
          DatasetCacheTiers{nullptr, nullptr,
                            s == 0 ? DistanceStorage::kF64
                                   : DistanceStorage::kF32});
      Rng run_rng(71);
      auto report = RunCvcp(data, supervision, clusterer, config, &run_rng,
                            &cache);
      CVCP_CHECK(report.ok());
      best[s] = report->best_param;
      score[s] = report->best_score;
    }
    const bool agree = best[0] == best[1];
    agreements += agree ? 1 : 0;
    const double drift = std::abs(score[0] - score[1]);
    max_drift = std::max(max_drift, drift);
    std::printf("%-10d %10d %10d %8s %14.3e\n", d, best[0], best[1],
                agree ? "yes" : "no", drift);
  }
  std::printf("selection agreement: %d/%d, max |best-score drift| %.3e\n\n",
              agreements, kDatasets, max_drift);
  AddDistanceRow(Format(
      "{\"table\": \"f32_ablation\", \"datasets\": %d, \"agreements\": %d, "
      "\"max_best_score_drift\": %.6e}",
      kDatasets, agreements, max_drift));
}

// This binary's own flags, stripped from argv before google-benchmark
// sees the rest.
struct MicroOptions {
  int threads = 0;  // 0 = all hardware threads (cache table width)
  bool cache_table_only = false;  // print the cache table and exit (CI smoke)
  std::string store_dir;  // artifact store dir: store-cold/warm cache rows
  std::string json_path = "BENCH_micro.json";  // "" (via --json '') disables
  // Standalone report for the distance-build + f32-ablation rows
  // (--distance-json PATH; '' disables). Skipped in --cache-table-only
  // mode, which doesn't run those tables.
  std::string distance_json_path = "BENCH_distance.json";
};

MicroOptions StripMicroOptions(int* argc, char** argv) {
  MicroOptions o;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < *argc) {
      o.threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--cache-table-only") == 0) {
      o.cache_table_only = true;
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < *argc) {
      o.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      o.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--distance-json") == 0 && i + 1 < *argc) {
      o.distance_json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (o.threads < 0) o.threads = 0;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const MicroOptions options = StripMicroOptions(&argc, argv);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int table_threads = options.threads > 0 ? options.threads : hw;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (options.cache_table_only) {
    PrintFoscCacheTable(table_threads, options.store_dir);
    if (!options.json_path.empty()) WriteJsonReport(options.json_path);
    benchmark::Shutdown();
    return g_determinism_ok ? 0 : 1;
  }
  PrintDistanceKernelTable();
  PrintStorageAblationTable();
  PrintCvcpScalingTable();
  PrintTrialScalingTable();
  PrintFoscCacheTable(table_threads, options.store_dir);
  if (!options.json_path.empty()) WriteJsonReport(options.json_path);
  if (!options.distance_json_path.empty()) {
    WriteDistanceJsonReport(options.distance_json_path);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Nonzero on any "NO — DETERMINISM BUG" row so the CI smoke steps fail
  // on a regression instead of only printing it.
  return g_determinism_ok ? 0 : 1;
}
