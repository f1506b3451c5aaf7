#ifndef CVCP_CORE_JOB_H_
#define CVCP_CORE_JOB_H_

/// \file
/// The job-shaped entry point over RunCvcp — the unit of service traffic.
/// A `JobSpec` names everything a model-selection run depends on: a
/// dataset reference (generator name + seed, resolved by the caller — the
/// core layer never touches src/data), the candidate grid, the supervision
/// scenario with its oracle parameters, and the RNG seeds. Because every
/// source of randomness is an explicit seed in the spec, a job is a pure
/// function: the same spec against the same resolved dataset produces a
/// byte-identical `CvcpReport` whether it runs in-process, through the
/// `cvcp_serve` job queue, on 1 or 8 threads, or against a warm artifact
/// store (pinned by tests/service_determinism_test.cc).
///
/// The codecs here give jobs and reports a durable wire/disk form on the
/// block-format record primitives (common/block_format.h): doubles travel
/// as IEEE-754 bit patterns, so encode→decode→encode is the identity on
/// bytes. The codec encodes every `CvcpReport` field, and both the
/// service determinism contract and the versioned result store require
/// encoded reports to be byte-stable.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/block_format.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/cvcp.h"
#include "core/supervision.h"

namespace cvcp {

/// One model-selection job: dataset ref + grid + supervision scenario.
struct JobSpec {
  /// Dataset reference, resolved by the caller (the service layer's
  /// DatasetResolver knows "iris", "wine", "aloi", ...). Core treats it
  /// as an opaque key that, with the seed/index, names one point set.
  std::string dataset = "iris";
  uint64_t dataset_seed = 1;   ///< generator seed (ignored for "iris")
  uint64_t dataset_index = 0;  ///< collection member (e.g. ALOI set index)

  /// Clustering algorithm: "fosc", "mpck", "copk", or "kmeans".
  std::string clusterer = "fosc";

  /// Supervision scenario and its oracle parameters (constraints/oracle.h).
  SupervisionKind scenario = SupervisionKind::kConstraints;
  double label_fraction = 0.10;       ///< Scenario I: share of labeled objects
  double pool_fraction = 0.10;        ///< Scenario II: per-class pool share
  double constraint_fraction = 0.50;  ///< Scenario II: share drawn from pool
  uint64_t supervision_seed = 1;

  /// CVCP protocol.
  std::vector<int> param_grid;
  int n_folds = 5;
  bool stratified = false;
  uint64_t cvcp_seed = 1;

  /// Relative deadline in milliseconds, 0 = none. The clock starts when
  /// the server admits the job (or when a direct runner builds its
  /// CancelSource); an overdue job fails with kDeadlineExceeded at the
  /// next cell boundary and leaves no result record. Execution metadata,
  /// not job identity: JobSpecHash ignores it, so the same logical job
  /// submitted with different deadlines stays one version chain.
  uint64_t deadline_ms = 0;

  bool operator==(const JobSpec&) const = default;
};

/// Rejects malformed specs before any work is queued: unknown clusterer,
/// empty grid, folds < 2, oracle fractions outside (0, 1].
Status ValidateJobSpec(const JobSpec& spec);

/// Instantiates the named algorithm ("fosc", "mpck", "copk", "kmeans");
/// kInvalidArgument for anything else.
Result<std::unique_ptr<SemiSupervisedClusterer>> MakeClusterer(
    const std::string& name);

/// Samples the spec's supervision from the dataset's ground truth exactly
/// as the paper's oracle does, seeded by `supervision_seed` alone — the
/// reason a job is re-runnable: a restarted server resamples the identical
/// supervision.
Result<Supervision> BuildJobSupervision(const Dataset& data,
                                        const JobSpec& spec);

/// Execution resources a job run borrows from its host (server or direct
/// caller). Results are byte-identical for every combination.
struct JobContext {
  DatasetCache* cache = nullptr;  ///< shared compute cache; null = cache-less
  ExecutionContext exec;          ///< thread budget for the grid×fold fan-out
};

/// Runs the job end to end: supervision oracle → clusterer → RunCvcp.
Result<CvcpReport> RunJob(const Dataset& data, const JobSpec& spec,
                          const JobContext& context = {});

/// Block kinds of the two persisted/wire record types below. Distinct
/// from ArtifactKind values (different files, and both are validated by
/// kind before any record is read).
inline constexpr uint32_t kJobSpecBlockKind = 0x4A4F4253;     // "JOBS"
inline constexpr uint32_t kCvcpReportBlockKind = 0x52505254;  // "RPRT"

/// Appends the spec's records to `builder` / consumes them from `reader`
/// (composable into larger messages). EncodeJobSpec/DecodeJobSpec wrap
/// them into a standalone sealed block.
void AppendJobSpecRecords(const JobSpec& spec, BlockBuilder* builder);
Result<JobSpec> ReadJobSpecRecords(BlockReader* reader);
std::string EncodeJobSpec(const JobSpec& spec);
Result<JobSpec> DecodeJobSpec(std::string bytes);

/// Content hash of a spec (Hash64 over its canonical encoding) — the key
/// of the versioned result chain: submissions with the same hash are
/// versions 1, 2, ... of the same logical job.
uint64_t JobSpecHash(const JobSpec& spec);

/// Report codec. Every field round-trips bit-exactly
/// (scores as IEEE-754 bit patterns, assignments incl. the -1 noise id).
void AppendCvcpReportRecords(const CvcpReport& report, BlockBuilder* builder);
Result<CvcpReport> ReadCvcpReportRecords(BlockReader* reader);
std::string EncodeCvcpReport(const CvcpReport& report);
Result<CvcpReport> DecodeCvcpReport(std::string bytes);

/// Rough in-flight memory charge of a job on an n-point dataset: the
/// condensed distance matrix plus one OPTICS-model's arrays per grid
/// value. Admission control compares the sum of queued+running charges
/// against the server's memory limit — a capacity planner, not an
/// allocator, so only the growth shape matters.
uint64_t EstimateJobBytes(size_t n, size_t grid_size);

}  // namespace cvcp

#endif  // CVCP_CORE_JOB_H_
