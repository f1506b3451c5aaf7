// fosc-trials and mpck-trials: one caller runs a closed loop of in-process
// RunJobs over the paper's trial grid, alternating blocks at fan-out width
// 1 (the light phase: one job, one thread) and at the fixed width 2 (the
// heavy phase). jobs_per_cpu_s pools both phases; their wall and CPU
// latencies are printed beside it. The job list is cycled;
// every run of a job must reproduce the bytes of its first run, and the
// first-run reports, hashed in job order, must match the digest pinned for
// the seed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "core/dataset_cache.h"
#include "core/job.h"
#include "data/paper_suites.h"
#include "jobs.h"
#include "replay.h"
#include "service/dataset_resolver.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 15;
/// Heavy-phase fan-out width: two of the four cores, so the closed loop
/// measures the engine's parallel path without saturating the machine.
constexpr int kHeavyWidth = 2;
/// The light and heavy phases alternate in blocks of this length, so both
/// sample the whole run. On a shared 4-vCPU VM, speed drifts by +-15%
/// within tens of seconds; two back-to-back phases would each see a
/// different machine.
constexpr double kBlockMs = 1500.0;
/// The run goes on past --seconds until each phase has this many jobs (so
/// the printed p90 has ten samples beyond it) and one pass over the list.
constexpr size_t kMinPhaseJobs = 110;
/// Traced runs replay the whole job list this many times (FOSC jobs are
/// ~10x shorter than MPCK jobs; more rounds keep set-up geometry a small
/// share of the traced wall, as it is in the untraced run).
constexpr int kFoscTraceRounds = 6;
constexpr int kMpckTraceRounds = 1;

using DatasetKey = std::tuple<std::string, uint64_t, uint64_t>;

DatasetKey KeyOf(const cvcp::JobSpec& spec) {
  return {spec.dataset, spec.dataset_seed, spec.dataset_index};
}

/// What set-up leaves behind: resolved datasets and, for FOSC, one
/// prewarmed cache per dataset (paper trials share one).
struct TrialSetup {
  cvcp::DatasetResolver resolver;
  std::map<DatasetKey, std::unique_ptr<cvcp::DatasetCache>> caches;
  std::vector<const cvcp::Dataset*> job_data;
  std::vector<cvcp::DatasetCache*> job_cache;
};

bool SetUp(const std::vector<cvcp::JobSpec>& jobs, bool fosc,
           TrialSetup* setup) {
  for (const PaperDataset& dataset : TrialDatasets()) {
    cvcp::JobSpec ref;
    ref.dataset = dataset.name;
    ref.dataset_seed = kDatasetSeed;
    ref.dataset_index = dataset.index;
    cvcp::Result<const cvcp::Dataset*> data = setup->resolver.Resolve(ref);
    if (!data.ok() ||
        (*data)->NumClasses() != dataset.classes) {
      std::fprintf(stderr, "dataset %s does not match the job list\n",
                   dataset.name.c_str());
      return false;
    }
    if (fosc) {
      auto cache = std::make_unique<cvcp::DatasetCache>((*data)->points());
      cvcp::ExecutionContext exec;
      exec.threads = kHeavyWidth;
      cache->Prewarm(cvcp::Metric::kEuclidean, cvcp::DefaultMinPtsGrid(), exec);
      setup->caches[KeyOf(ref)] = std::move(cache);
    }
  }
  for (const cvcp::JobSpec& spec : jobs) {
    setup->job_data.push_back(setup->resolver.Resolve(spec).value());
    setup->job_cache.push_back(fosc ? setup->caches.at(KeyOf(spec)).get()
                                    : nullptr);
  }
  return true;
}

uint64_t Digest(const std::vector<std::string>& reports) {
  uint64_t hash = kFnvBasis;
  for (const std::string& bytes : reports) {
    hash = Fnv1a64(std::to_string(bytes.size()) + ":", hash);
    hash = Fnv1a64(bytes, hash);
  }
  return hash;
}

/// The pinned digest for (workload, seed), if the file has one.
bool PinnedDigest(const std::string& path, const std::string& workload,
                  uint64_t seed, uint64_t* digest) {
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream fields(line);
    std::string name, hex;
    uint64_t pinned_seed = 0;
    if (fields >> name >> pinned_seed >> hex && name == workload &&
        pinned_seed == seed) {
      *digest = std::stoull(hex, nullptr, 16);
      return true;
    }
  }
  return false;
}

/// One phase of the closed loop: its fan-out width, its position in the
/// cycled job list, and its samples.
struct Phase {
  int width = 1;
  size_t next = 0;
  double busy_ms = 0.0;          ///< time spent in this phase's blocks
  std::vector<double> job_ms;    ///< wall
  std::vector<double> cpu_ms;    ///< process CPU
  uint64_t failed = 0;
};

/// Runs `phase`'s next jobs for at least `min_ms` and `min_jobs`. The first
/// run of each job fills `reports`; every later run must reproduce it.
void RunBlock(const std::vector<cvcp::JobSpec>& jobs, const TrialSetup& setup,
              double min_ms, size_t min_jobs, Phase* phase,
              std::vector<std::string>* reports, RunResult* out) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < min_jobs || MsSince(start) < min_ms; ++i) {
    const size_t slot = phase->next++ % jobs.size();
    cvcp::JobContext context;
    context.cache = setup.job_cache[slot];
    context.exec.threads = phase->width;
    const double cpu_start = ProcessCpuMs();
    const Clock::time_point job_start = Clock::now();
    cvcp::Result<cvcp::CvcpReport> report =
        cvcp::RunJob(*setup.job_data[slot], jobs[slot], context);
    const double ms = MsSince(job_start);
    phase->cpu_ms.push_back(ProcessCpuMs() - cpu_start);
    if (!report.ok()) {
      ++phase->failed;
      phase->job_ms.push_back(std::numeric_limits<double>::infinity());
      out->Fail("job " + std::to_string(slot) + ": " +
                report.status().ToString());
      continue;
    }
    phase->job_ms.push_back(ms);
    std::string bytes = cvcp::EncodeCvcpReport(report.value());
    std::string& first = (*reports)[slot];
    if (first.empty()) {
      first = std::move(bytes);
    } else if (bytes != first) {
      ++phase->failed;
      out->Fail("job " + std::to_string(slot) +
                ": report bytes differ between runs of the same spec");
    }
  }
  phase->busy_ms += MsSince(start);
}

}  // namespace

uint64_t ReferenceDigest(const std::string& clusterer, uint64_t seed) {
  const std::vector<cvcp::JobSpec> jobs = TrialJobs(clusterer, seed);
  cvcp::DatasetResolver resolver;
  std::vector<std::string> reports;
  for (const cvcp::JobSpec& spec : jobs) {
    cvcp::Result<const cvcp::Dataset*> data = resolver.Resolve(spec);
    if (!data.ok()) return 0;
    cvcp::JobContext context;
    context.exec = cvcp::ExecutionContext::Serial();
    cvcp::Result<cvcp::CvcpReport> report = cvcp::RunJob(**data, spec, context);
    if (!report.ok()) {
      std::fprintf(stderr, "reference %s seed %" PRIu64 ": %s\n",
                   clusterer.c_str(), seed, report.status().ToString().c_str());
      return 0;
    }
    reports.push_back(cvcp::EncodeCvcpReport(report.value()));
  }
  return Digest(reports);
}

RunResult RunTrials(const Options& options, const std::string& clusterer) {
  RunResult out;
  const bool fosc = clusterer == "fosc";
  const std::vector<cvcp::JobSpec> jobs = TrialJobs(clusterer, options.seed);

  // Set-up, repeated; the median of its CPU time is reported and the last
  // one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<TrialSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    const double start = ProcessCpuMs();
    setup = std::make_unique<TrialSetup>();
    if (!SetUp(jobs, fosc, setup.get())) {
      out.Fail("set-up failed");
      return out;
    }
    setup_s.push_back((ProcessCpuMs() - start) / 1000.0);
  }

  if (options.trace) {
    ReplayAndReport(jobs, fosc ? kFoscTraceRounds : kMpckTraceRounds,
                    options.workdir + "/replay",
                    options.workdir + "/" + options.workload + ".trace.json",
                    nullptr, &out);
    out.attempted = jobs.size();
    out.failed = out.correct ? 0 : 1;
    return out;
  }

  // One untimed pass over the list first: it fills the reference reports
  // and lets the allocator and page tables reach their steady state.
  std::vector<std::string> reports(jobs.size());
  Phase warmup, light, heavy;
  heavy.width = kHeavyWidth;
  RunBlock(jobs, *setup, 0.0, jobs.size(), &warmup, &reports, &out);
  const double total_ms = options.seconds * 1000.0;
  const size_t min_jobs = std::max(kMinPhaseJobs, jobs.size());
  while (light.busy_ms + heavy.busy_ms < total_ms ||
         light.job_ms.size() < min_jobs || heavy.job_ms.size() < min_jobs) {
    RunBlock(jobs, *setup, kBlockMs, 0, &light, &reports, &out);
    RunBlock(jobs, *setup, kBlockMs, 0, &heavy, &reports, &out);
  }
  const double heap_mb = HeapInUseMb();

  const uint64_t digest = Digest(reports);
  uint64_t pinned = 0;
  if (PinnedDigest(options.digests, options.workload, options.seed, &pinned)) {
    if (digest != pinned) {
      out.Fail("report digest differs from the pinned digest for this seed");
    }
    std::printf("digest %016" PRIx64 " (pinned)\n", digest);
  } else {
    const uint64_t reference = ReferenceDigest(clusterer, options.seed);
    if (digest != reference) {
      out.Fail("report digest differs from a serial cache-less RunJob");
    }
    std::printf("digest %016" PRIx64
                " (no pin for this seed; checked against serial cache-less "
                "RunJob)\n",
                digest);
  }

  out.attempted =
      warmup.job_ms.size() + light.job_ms.size() + heavy.job_ms.size();
  out.failed = warmup.failed + light.failed + heavy.failed;
  PrintTiming("light.job_ms", light.job_ms);
  PrintTiming("light.job_cpu_ms", light.cpu_ms);
  PrintTiming("job_ms", heavy.job_ms);
  PrintTiming("job_cpu_ms", heavy.cpu_ms);
  std::printf("wall jobs/s: light %.2f, heavy %.2f; passes over the %zu-job "
              "list: light %zu, heavy %zu; set-up CPU median of %d\n",
              light.job_ms.size() / (light.busy_ms / 1000.0),
              heavy.job_ms.size() / (heavy.busy_ms / 1000.0), jobs.size(),
              light.cpu_ms.size() / jobs.size(),
              heavy.cpu_ms.size() / jobs.size(), kSetupReps);
  out.Add("setup_s", Percentile(setup_s, 50), "s");
  // Both widths run the same code, so their passes pool: twice the passes
  // for the median, in the same run time.
  std::vector<double> pass_rates = PassRates(light.cpu_ms, jobs.size());
  for (double rate : PassRates(heavy.cpu_ms, jobs.size())) {
    pass_rates.push_back(rate);
  }
  out.Add("jobs_per_cpu_s", Percentile(pass_rates, 50), "1/s");
  out.Add("ok_frac", 1.0 - static_cast<double>(out.failed) / out.attempted,
          "ratio");
  out.Add("heap_mb", heap_mb, "MB");
  return out;
}

}  // namespace perfbench
