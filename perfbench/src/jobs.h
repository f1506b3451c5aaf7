#ifndef PERFBENCH_JOBS_H_
#define PERFBENCH_JOBS_H_

/// \file
/// The inputs of every workload, as pure functions of the run seed: the
/// paper-shaped trial job lists and the open-loop service schedule. The
/// program under test only ever sees the `JobSpec`s built here.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/job.h"

namespace perfbench {

/// Supervision levels of the paper's trials (§4.2): 5/10/20% labeled
/// objects, or 10/20/50% of a constraint pool drawn from 10% of each class.
inline constexpr double kLabelLevels[] = {0.05, 0.10, 0.20};
inline constexpr double kConstraintLevels[] = {0.10, 0.20, 0.50};
inline constexpr double kPoolFraction = 0.10;
/// The smaller datasets draw their pools from more of each class, so that
/// every pool holds at least 30 objects. With fewer, the 10%-level
/// constraint set leaves folds whose test constraints score NaN, and a job
/// whose every fold does fails with "no valid score" (at 10%: iris on 11
/// of 300 FOSC seeds, ALOI on 36 of 400; wine under MPCK, whose large-k
/// partitions put no test pair together, now and then).
inline constexpr double kSmallPoolFraction = 0.20;  ///< iris, wine, zyeast
inline constexpr double kAloiPoolFraction = 0.30;
inline constexpr int kFolds = 5;

/// A dataset of the paper grid: a resolver name, its collection member,
/// class count (which fixes the MPCKMeans k grid) and constraint-pool
/// fraction.
struct PaperDataset {
  std::string name;
  uint64_t index = 0;
  int classes = 0;
  double pool_fraction = kPoolFraction;
};

/// Generator seed of every paper dataset. Like the paper's trials, every
/// run clusters the same dataset instances; the run seed draws the
/// supervision, the CVCP seeds and the job order. (Dataset instances
/// differ in cost far more than supervision samples do, so seeding them
/// per run would make runs of different seeds incomparable.)
inline constexpr uint64_t kDatasetSeed = 1;

/// The trial mix: iris, wine, ionosphere, ecoli, zyeast and ALOI members
/// 0 and 1.
std::vector<PaperDataset> TrialDatasets();

/// Jobs per (dataset, scenario, level) cell of the trial grid.
inline constexpr int kJobsPerCell = 2;

/// kJobsPerCell jobs for every (dataset, scenario, level) cell of the
/// paper grid, in a seeded order, each with fresh supervision and CVCP
/// seeds. `clusterer` is "fosc" (MinPts grid 3..24) or "mpck" (k grid
/// 2..M).
std::vector<cvcp::JobSpec> TrialJobs(const std::string& clusterer,
                                     uint64_t seed);

/// One operation of the service mix.
struct ServiceOp {
  enum class Kind { kColdFosc, kResubmit, kMpck, kFetch };
  Kind kind = Kind::kResubmit;
  bool heavy = false;   ///< heavy phase of the open loop (else light)
  double due_ms = 0.0;  ///< open-loop schedule offset from its start
  cvcp::JobSpec spec;   ///< the job submitted (unused for fetches)
  uint64_t pick = 0;    ///< seeded choice of the fetch target
};

/// The service workload's operation mix, dealt from the run seed: per
/// round of 20 operations, 1 cold-dataset FOSC job (a new ALOI member), 10
/// resubmissions of the warm base specs, 4 MPCK jobs and 5 fetches, in a
/// shuffled order. Every sequence of calls is a pure function of the seed.
class ServiceMix {
 public:
  explicit ServiceMix(uint64_t seed);

  /// The warm base specs: every paper dataset (one ALOI member) at 10%
  /// labels and at 20% constraints. Served once during set-up.
  const std::vector<cvcp::JobSpec>& base() const { return base_; }

  /// The next operation of the mix.
  ServiceOp Next();

  /// The next operations on an open-loop schedule over `total_ms`: blocks
  /// of `block_ms` alternate between `light_rate` and `heavy_rate` (ops/s),
  /// each block's expected number of arrivals at seeded uniform times.
  std::vector<ServiceOp> Schedule(double light_rate, double heavy_rate,
                                  double total_ms, double block_ms);

 private:
  /// Deals the indices 0..n-1 in shuffled rounds: every index once per
  /// round. Keeps a run's mix at its stated proportions instead of letting
  /// independent draws wander from them.
  class ShuffledCycle {
   public:
    explicit ShuffledCycle(size_t n) : order_(n) {}
    size_t Next(BenchRng* rng);

   private:
    std::vector<size_t> order_;
    size_t pos_ = 0;
  };

  BenchRng rng_;
  std::vector<PaperDataset> datasets_;
  std::vector<cvcp::JobSpec> base_;
  std::vector<ServiceOp::Kind> round_;
  ShuffledCycle kinds_;
  ShuffledCycle resubmits_;
  ShuffledCycle cold_levels_;
  ShuffledCycle mpck_cells_;
  uint64_t cold_index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_JOBS_H_
