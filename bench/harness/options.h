#ifndef CVCP_BENCH_HARNESS_OPTIONS_H_
#define CVCP_BENCH_HARNESS_OPTIONS_H_

/// \file
/// Scale options for the paper-reproduction benches. Defaults are reduced
/// so the whole suite runs in minutes on a laptop; `--paper` (or the env
/// vars) restores the paper's scale (50 trials, 100 ALOI datasets,
/// 10-fold CV).

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/cross_validation.h"

namespace cvcp::bench {

/// Runtime scale of a bench binary.
struct BenchOptions {
  int trials = 5;             ///< paper: 50   (env CVCP_TRIALS)
  std::size_t aloi_datasets = 10;  ///< paper: 100  (env CVCP_ALOI_DATASETS)
  int n_folds = 5;            ///< paper: "typically 10" (env CVCP_FOLDS)
  uint64_t seed = 20140324;   ///< EDBT 2014 start date (env CVCP_SEED)
  /// CVCP execution-engine threads; 0 = all hardware threads. Results are
  /// identical for any value (env CVCP_THREADS).
  int threads = 0;
  /// Outer-lane width for the experiment loops (trials / ALOI datasets):
  /// 0 = automatic, 1 = serial outer loops (whole budget to the CVCP
  /// cells), N > 1 = N outer lanes (capped at the budget and, under the
  /// nested scheduler, at the loop's size). Results are identical for any
  /// value (env CVCP_TRIAL_THREADS).
  int trial_threads = 0;
  /// Budget-sharing policy across nesting levels: kNested (default,
  /// "nested") = outer lanes × inner width ≈ budget with
  /// help-while-waiting balancing; kSplit ("split") = the whole budget at
  /// one level. Results are identical for either (env CVCP_SCHEDULER).
  NestingPolicy nesting = NestingPolicy::kNested;
  /// Per-dataset compute cache (core/dataset_cache.h): share the
  /// supervision-independent structures across folds, grid values, and
  /// trials. Results are byte-identical on or off; off restores the
  /// recompute-per-cell behavior for comparison (env CVCP_CACHE, "on" /
  /// "off" / "1" / "0").
  bool cache = true;
  /// Path for persisting measured per-cell wall times across bench
  /// invocations: loaded (if the file exists) into the cell cost model so
  /// the measured-longest-first schedule survives process restarts, and
  /// saved by benches that collect timings (bench_micro). Empty = no
  /// persistence (env CVCP_TIMINGS_FILE).
  std::string timings_file;
  /// Directory of the persistent artifact store (core/artifact_store.h):
  /// condensed distance matrices and OPTICS models are written there and
  /// loaded back on later runs — a second process on a warm directory
  /// performs zero OPTICS rebuilds for cached keys. Results are
  /// byte-identical cold or warm. Empty = no disk tier
  /// (env CVCP_STORE, flag `--store DIR`).
  std::string store_dir;
  /// Capacity of the run-wide shared memory cache tier in MiB; artifacts
  /// past the bound are evicted least-recently-used and transparently
  /// reloaded or recomputed (env CVCP_STORE_CAPACITY_MB,
  /// flag `--store-capacity-mb N`).
  int store_capacity_mb = 256;
  /// Condensed distance-matrix storage: "f64" (default, bit-exact) or
  /// "f32" (half the bytes; distances are computed in f64 and rounded
  /// once on store). f32 runs keep their artifacts in a disjoint key
  /// space, so mixed-mode store directories never cross-serve
  /// (env CVCP_DISTANCE_STORAGE, flag `--distance-storage`).
  DistanceStorage distance_storage = DistanceStorage::kF64;
};

/// Parses env vars, then `--paper` / `--trials N` / `--aloi N` /
/// `--folds N` / `--seed N` / `--threads N` / `--trial-threads N` /
/// `--scheduler nested|split` / `--cache on|off` / `--timings-file PATH` /
/// `--store DIR` / `--store-capacity-mb N` /
/// `--distance-storage f64|f32` flags (flags win).
BenchOptions ParseBenchOptions(int argc, char** argv);

/// One-line banner describing the reproduction target and the scale.
void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref);

/// Loads per-cell timings saved by SaveCellTimings ("param,fold,wall_ms"
/// CSV lines). Errors with kNotFound when the file does not exist and
/// kInvalidArgument on malformed lines.
Result<std::vector<CvCellTiming>> LoadCellTimings(const std::string& path);

/// Saves per-cell timings (e.g. CvcpReport::cell_timings) so a later
/// invocation can feed them to CellCostModel::prior_timings via
/// `--timings-file`. Overwrites the file.
Status SaveCellTimings(const std::string& path,
                       const std::vector<CvCellTiming>& timings);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_OPTIONS_H_
