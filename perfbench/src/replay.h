#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

/// \file
/// The traced run's engine: replays jobs stage by stage through the
/// layers' public functions, timing every call from outside, and checks
/// that the replay reproduces `RunJob` bit for bit (otherwise its per-layer
/// numbers describe some other computation and are void).
///
/// Per job, mirroring `RunJob` → `RunCvcp` → `ScoreGridOnFolds`:
///   BuildJobSupervision; MakeSupervisionFolds on the kFoldStreamId fork;
///   per (param, fold) cell, in grid-then-fold order, the clusterer on the
///   fold's training supervision with the `(param << 20) | fold` fork of
///   the kScoreStreamId stream (FOSC: ExtractClusters on the OPTICSDend
///   dendrogram; MPCK: RunMpckMeans), then
///   EvaluateConstraintClassification on the test fold; the grid-order
///   argmax; the final clustering at best_param; the report codec.
/// Supervision-independent geometry (DistanceMatrix::Compute, RunOptics,
/// Dendrogram::FromReachability) is built once per dataset, as the
/// workloads' prewarmed or cold caches build it.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/job.h"

namespace perfbench {

/// Per-job service-side samples the service workload adds to a traced run.
struct ServiceLayerSamples {
  std::vector<double> submit_ms;
  std::vector<double> fetch_ms;
  std::vector<double> queue_ms;  ///< heavy phase
  std::vector<double> late_ms;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t backlog_max = 0;
};

/// Replays `rounds` passes over `jobs` and appends every per-layer metric
/// to `out`. Service samples, when given, fill the service.* metrics and
/// add the service's persistence stages (artifact store save/load, result
/// publish) to the replay; otherwise those read 0. `workdir` receives the artifact and result
/// stores the replay writes; the spans go to `trace_path`.
/// Marks `out` incorrect on any replay-fidelity failure.
void ReplayAndReport(const std::vector<cvcp::JobSpec>& jobs, int rounds,
                     const std::string& workdir, const std::string& trace_path,
                     const ServiceLayerSamples* service, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
