#ifndef CVCP_BENCH_HARNESS_OPTIONS_H_
#define CVCP_BENCH_HARNESS_OPTIONS_H_

/// \file
/// Scale options for the paper-reproduction benches. Defaults are reduced
/// so the whole suite runs in minutes on a laptop; `--paper` (or the env
/// vars) restores the paper's scale (50 trials, 100 ALOI datasets,
/// 10-fold CV).

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/distance.h"
#include "common/status.h"

namespace cvcp::bench {

/// Runtime scale of a bench binary.
struct BenchOptions {
  int trials = 5;             ///< paper: 50   (env CVCP_TRIALS)
  std::size_t aloi_datasets = 10;  ///< paper: 100  (env CVCP_ALOI_DATASETS)
  int n_folds = 5;            ///< paper: "typically 10" (env CVCP_FOLDS)
  uint64_t seed = 20140324;   ///< EDBT 2014 start date (env CVCP_SEED)
  /// Thread budget shared by every nesting level (ALOI datasets, trials,
  /// CVCP cells; see PlanBudget); 0 = all hardware threads. Results are
  /// identical for any value (env CVCP_THREADS).
  int threads = 0;
  /// Per-dataset compute cache (core/dataset_cache.h): share the
  /// supervision-independent structures across folds, grid values, and
  /// trials. Results are byte-identical on or off; off restores the
  /// recompute-per-cell behavior for comparison (env CVCP_CACHE, "on" /
  /// "off" / "1" / "0").
  bool cache = true;
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
};

/// The flags TryParseBenchOptions accepts, as printed on a usage line.
inline constexpr char kBenchUsage[] =
    "[--paper] [--trials N] [--aloi N] [--folds N] [--seed N] "
    "[--threads N] [--cache on|off] [--store DIR] [--store-capacity-mb N]";

/// Parses env vars, then the flags (flags win): `--paper` /
/// `--trials N` / `--aloi N` / `--folds N` / `--seed N` / `--threads N` /
/// `--cache on|off` / `--store DIR` / `--store-capacity-mb N`. Errors with
/// kInvalidArgument, naming the argument, on an unknown flag, a flag
/// without its value, or a malformed value (numbers must be whole base-10
/// integers that fit the field).
/// Malformed env values keep the default.
Result<BenchOptions> TryParseBenchOptions(int argc, char** argv);

/// TryParseBenchOptions for a bench main: on error prints the error
/// and one usage line to stderr and exits with status 2.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// One-line banner describing the reproduction target and the scale.
void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref);

}  // namespace cvcp::bench

#endif  // CVCP_BENCH_HARNESS_OPTIONS_H_
