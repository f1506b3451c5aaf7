#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The benchmark's workloads (why each exists: README.md).

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch root for stores, sockets and spans; a relative path keeps
  /// the server socket under the AF_UNIX length limit.
  std::string workdir = ".bench_run";
  /// Pinned report digests, one "<workload> <seed> <hex>" per line.
  std::string digests;
};

/// fosc-trials / mpck-trials: a closed loop of in-process RunJobs over the
/// paper's trial grid. `clusterer` is "fosc" or "mpck".
RunResult RunTrials(const Options& options, const std::string& clusterer);

/// The reference digest of a trial workload's job list: its reports
/// computed serially without a cache, hashed in job order.
uint64_t ReferenceDigest(const std::string& clusterer, uint64_t seed);

/// service-mix: an open and a closed loop into an in-process cvcp_serve.
RunResult RunServiceMix(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
