#include "replay.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "cluster/dendrogram.h"
#include "cluster/fosc.h"
#include "cluster/mpckmeans.h"
#include "cluster/optics.h"
#include "common/distance.h"
#include "core/artifact_store.h"
#include "core/cross_validation.h"
#include "core/dataset_cache.h"
#include "core/fmeasure.h"
#include "service/dataset_resolver.h"
#include "service/result_store.h"

namespace perfbench {

namespace {

using cvcp::JobSpec;

/// RunCvcp's final-clustering stream id (core/cvcp.cc). The replay of the
/// final stage is checked against the report's partition, so a change of
/// this stream shows up as a fidelity failure, never as silently wrong
/// timings.
constexpr uint64_t kFinalStreamId = 0xF17A1ULL;

/// Per-layer stages, in report order. `joiner` separates the stage name
/// from the metric suffix ("ms", "calls", "share").
struct Stage {
  const char* name;
  char joiner;
};
constexpr Stage kStages[] = {
    {"data.resolve", '.'},
    {"constraints.supervision", '.'},
    {"constraints.folds", '.'},
    {"common.distance", '.'},
    {"cluster.optics", '.'},
    {"cluster.dendrogram", '.'},
    {"cluster.fosc", '.'},
    {"cluster.mpck", '.'},
    {"core.fmeasure", '.'},
    {"core.final", '.'},
    {"core.codec", '.'},
    {"core.artifact_store.save", '_'},
    {"core.artifact_store.load", '_'},
    {"service.publish", '.'},
};

/// Stages that make up one job's replay (core.overhead is RunJob's wall
/// minus their sum).
constexpr const char* kJobStages[] = {
    "constraints.supervision", "constraints.folds", "cluster.fosc",
    "cluster.mpck", "core.fmeasure", "core.final"};

struct Counts {
  uint64_t train_constraints = 0;
  uint64_t distance_pairs = 0;
  uint64_t fosc_constraints = 0;
  uint64_t mpck_iterations = 0;
  uint64_t mpck_runs = 0;
  uint64_t mpck_converged = 0;
};

using DatasetKey = std::tuple<std::string, uint64_t, uint64_t>;

DatasetKey KeyOf(const JobSpec& spec) {
  return {spec.dataset, spec.dataset_seed, spec.dataset_index};
}

/// One dataset's replay state: the dataset, its OPTICSDend models by
/// MinPts (built through the timed layer calls), and the prewarmed cache
/// the untraced RunJob reference and the final stage use.
struct DatasetState {
  const cvcp::Dataset* data = nullptr;
  std::map<int, cvcp::Result<cvcp::FoscOpticsModel>> models;
  std::unique_ptr<cvcp::DatasetCache> cache;
};

class Replayer {
 public:
  Replayer(Tracer* tracer, const std::string& workdir)
      : tracer_(tracer),
        artifacts_(workdir + "/artifacts"),
        results_(workdir + "/results") {}

  /// Resolves the dataset and builds its geometry for every MinPts any
  /// FOSC job on it uses (timed), then prewarms the reference cache
  /// (untimed).
  bool Prepare(const std::vector<JobSpec>& jobs) {
    std::map<DatasetKey, std::vector<int>> fosc_grids;
    for (const JobSpec& spec : jobs) {
      DatasetState& state = datasets_[KeyOf(spec)];
      if (state.data == nullptr) {
        const Clock::time_point start = Clock::now();
        cvcp::Result<const cvcp::Dataset*> data =
            tracer_->Time("data.resolve", [&] { return resolver_.Resolve(spec); });
        traced_ms_ += MsSince(start);
        if (!data.ok()) {
          std::fprintf(stderr, "resolve %s: %s\n", spec.dataset.c_str(),
                       data.status().ToString().c_str());
          return false;
        }
        state.data = data.value();
      }
      if (spec.clusterer == "fosc") {
        std::vector<int>& grid = fosc_grids[KeyOf(spec)];
        grid.insert(grid.end(), spec.param_grid.begin(), spec.param_grid.end());
      }
    }
    for (auto& [key, grid] : fosc_grids) {
      DatasetState& state = datasets_[key];
      BuildGeometry(&state, grid);
      state.cache = std::make_unique<cvcp::DatasetCache>(state.data->points());
      cvcp::ExecutionContext exec;
      exec.threads = 2;
      state.cache->Prewarm(cvcp::Metric::kEuclidean, grid, exec);
    }
    return true;
  }

  /// Replays one job and checks it against RunJob; false on a fidelity
  /// failure.
  bool ReplayJob(int64_t job, const JobSpec& spec, bool publish) {
    DatasetState& state = datasets_.at(KeyOf(spec));
    tracer_->set_job(job);
    // The untraced reference, RunJob at one thread on the prewarmed cache,
    // runs before the replay for odd jobs and after it for even ones, so
    // neither side keeps the benefit of caches the other warmed.
    std::string reference;
    if (job % 2 == 1 && !RunReference(spec, state, &reference)) return false;
    const Clock::time_point start = Clock::now();
    std::string replayed;
    const bool ok = ReplayStages(job, spec, state, &replayed);
    const double replay_ms = MsSince(start);
    traced_ms_ += replay_ms;
    job_replay_ms_ += replay_ms;
    if (job % 2 == 0 && !RunReference(spec, state, &reference)) return false;
    if (!ok) return false;
    if (replayed != reference) {
      return Mismatch(job, "replayed report differs from RunJob's (grid "
                           "scores, best_param or final partition)");
    }
    if (publish) published_.emplace_back(spec, std::move(replayed));
    return true;
  }

  /// Saves then loads every OPTICS model the replay built, and publishes
  /// one result record per job of the first round (timed).
  bool Persist() {
    const Clock::time_point start = Clock::now();
    bool ok = true;
    for (auto& [key, state] : datasets_) {
      const uint64_t hash = Fnv1a64(std::get<0>(key) + "/" +
                                    std::to_string(std::get<1>(key)) + "/" +
                                    std::to_string(std::get<2>(key)));
      for (auto& [min_pts, model] : state.models) {
        if (!model.ok()) continue;
        const cvcp::OpticsResult& optics = model.value().optics;
        const cvcp::Status saved =
            tracer_->Time("core.artifact_store.save", [&] {
              return artifacts_.SaveOpticsModel(hash, cvcp::Metric::kEuclidean,
                                                min_pts, optics);
            });
        cvcp::Result<cvcp::OpticsResult> loaded =
            tracer_->Time("core.artifact_store.load", [&] {
              return artifacts_.LoadOpticsModel(hash, cvcp::Metric::kEuclidean,
                                                min_pts);
            });
        if (!saved.ok() || !loaded.ok() ||
            loaded.value().order != optics.order ||
            loaded.value().reachability.size() != optics.reachability.size() ||
            std::memcmp(loaded.value().reachability.data(),
                        optics.reachability.data(),
                        optics.reachability.size() * sizeof(double)) != 0) {
          std::fprintf(stderr, "artifact store round trip failed (MinPts %d)\n",
                       min_pts);
          ok = false;
        }
      }
    }
    for (const auto& [spec, bytes] : published_) {
      cvcp::StoredResult record;
      record.job_id = results_.AllocateJobId();
      record.spec_hash = cvcp::JobSpecHash(spec);
      record.version = results_.AllocateVersion(record.spec_hash);
      record.spec_bytes = cvcp::EncodeJobSpec(spec);
      record.report_bytes = bytes;
      const cvcp::Status put = tracer_->Time(
          "service.publish", [&] { return results_.Put(record); });
      if (!put.ok()) {
        std::fprintf(stderr, "publish: %s\n", put.ToString().c_str());
        ok = false;
      }
    }
    traced_ms_ += MsSince(start);
    return ok;
  }

  const Counts& counts() const { return counts_; }
  double traced_ms() const { return traced_ms_; }
  double runjob_ms() const { return runjob_ms_; }
  double job_replay_ms() const { return job_replay_ms_; }

 private:
  bool RunReference(const JobSpec& spec, const DatasetState& state,
                    std::string* bytes) {
    cvcp::JobContext context;
    context.cache = state.cache.get();
    context.exec = cvcp::ExecutionContext::Serial();
    const Clock::time_point start = Clock::now();
    cvcp::Result<cvcp::CvcpReport> report =
        cvcp::RunJob(*state.data, spec, context);
    runjob_ms_ += MsSince(start);
    if (!report.ok()) {
      std::fprintf(stderr, "RunJob: %s\n", report.status().ToString().c_str());
      return false;
    }
    *bytes = cvcp::EncodeCvcpReport(report.value());
    return true;
  }

  void BuildGeometry(DatasetState* state, const std::vector<int>& grid) {
    const Clock::time_point start = Clock::now();
    const cvcp::Matrix& points = state->data->points();
    const cvcp::DistanceMatrix distances = tracer_->Time("common.distance", [&] {
      return cvcp::DistanceMatrix::Compute(points, cvcp::Metric::kEuclidean,
                                           cvcp::ExecutionContext::Serial());
    });
    const uint64_t n = points.rows();
    counts_.distance_pairs += n * (n - 1) / 2;
    for (int min_pts : grid) {
      if (state->models.contains(min_pts)) continue;
      cvcp::OpticsConfig config;
      config.min_pts = min_pts;
      cvcp::Result<cvcp::OpticsResult> optics = tracer_->Time(
          "cluster.optics", [&] { return cvcp::RunOptics(distances, config); });
      if (!optics.ok()) {
        state->models.emplace(min_pts, optics.status());
        continue;
      }
      cvcp::FoscOpticsModel model;
      model.optics = std::move(optics).value();
      model.dendrogram = tracer_->Time("cluster.dendrogram", [&] {
        return cvcp::Dendrogram::FromReachability(model.optics);
      });
      state->models.emplace(min_pts, std::move(model));
    }
    traced_ms_ += MsSince(start);
  }

  /// The stages of one job; `bytes` receives the encoded report they
  /// produce.
  bool ReplayStages(int64_t job, const JobSpec& spec, DatasetState& state,
                    std::string* bytes) {
    const cvcp::Dataset& data = *state.data;
    const bool fosc = spec.clusterer == "fosc";
    cvcp::Result<cvcp::Supervision> supervision = tracer_->Time(
        "constraints.supervision",
        [&] { return cvcp::BuildJobSupervision(data, spec); });
    if (!supervision.ok()) return Mismatch(job, "supervision failed");

    cvcp::CvConfig cv;
    cv.n_folds = spec.n_folds;
    cv.stratified = spec.stratified;
    const cvcp::Rng rng(spec.cvcp_seed);
    cvcp::Rng fold_rng = rng.Fork(cvcp::kFoldStreamId);
    cvcp::Result<std::vector<cvcp::FoldSplit>> folds =
        tracer_->Time("constraints.folds", [&] {
          return cvcp::MakeSupervisionFolds(data, supervision.value(), cv,
                                            &fold_rng);
        });
    if (!folds.ok()) return Mismatch(job, "fold construction failed");
    const cvcp::Rng score_rng = rng.Fork(cvcp::kScoreStreamId);

    cvcp::CvcpReport report;
    bool have_best = false;
    for (size_t g = 0; g < spec.param_grid.size(); ++g) {
      const int param = spec.param_grid[g];
      double sum = 0.0;
      int valid = 0;
      for (size_t f = 0; f < folds.value().size(); ++f) {
        const cvcp::FoldSplit& fold = folds.value()[f];
        cvcp::Rng cell_rng =
            score_rng.Fork((static_cast<uint64_t>(param) << 20) | f);
        const cvcp::Supervision train =
            supervision.value().kind() == cvcp::SupervisionKind::kLabels
                ? cvcp::Supervision::FromLabelArray(fold.train_labels)
                : cvcp::Supervision::FromConstraints(fold.train_constraints);
        const cvcp::ConstraintSet& constraints = train.constraints();
        counts_.train_constraints += constraints.size();
        cvcp::Clustering clustering;
        if (fosc) {
          const auto& model = state.models.at(param);
          if (!model.ok()) return Mismatch(job, "OPTICS model failed");
          counts_.fosc_constraints += constraints.size();
          cvcp::Result<cvcp::FoscResult> extracted =
              tracer_->Time("cluster.fosc", [&] {
                return cvcp::ExtractClusters(model.value().dendrogram,
                                             constraints, cvcp::FoscConfig{});
              });
          if (!extracted.ok()) return Mismatch(job, "FOSC extraction failed");
          clustering = std::move(extracted).value().clustering;
        } else {
          cvcp::MpckMeansConfig config;
          config.k = param;
          cvcp::Result<cvcp::MpckMeansResult> run =
              tracer_->Time("cluster.mpck", [&] {
                return cvcp::RunMpckMeans(data.points(), constraints, config,
                                          &cell_rng);
              });
          if (!run.ok()) return Mismatch(job, "MPCKMeans failed");
          counts_.mpck_iterations += static_cast<uint64_t>(run.value().iterations);
          counts_.mpck_runs += 1;
          counts_.mpck_converged += run.value().converged ? 1 : 0;
          clustering = std::move(run).value().clustering;
        }
        const double score = tracer_->Time("core.fmeasure", [&] {
          return cvcp::EvaluateConstraintClassification(clustering,
                                                        fold.test_constraints)
              .average;
        });
        if (!std::isnan(score)) {
          sum += score;
          ++valid;
        }
      }
      const double mean = valid > 0 ? sum / valid : std::nan("");
      report.scores.push_back({param, mean, valid});
      if (!std::isnan(mean) && (!have_best || mean > report.best_score)) {
        report.best_param = param;
        report.best_score = mean;
        have_best = true;
      }
    }
    if (!have_best) return Mismatch(job, "no valid grid score");

    cvcp::Result<std::unique_ptr<cvcp::SemiSupervisedClusterer>> clusterer =
        cvcp::MakeClusterer(spec.clusterer);
    if (!clusterer.ok()) return Mismatch(job, "unknown clusterer");
    cvcp::Rng final_rng = rng.Fork(kFinalStreamId);
    cvcp::Result<cvcp::Clustering> final_clustering =
        tracer_->Time("core.final", [&] {
          return clusterer.value()->Cluster(
              data, supervision.value(), report.best_param, &final_rng,
              cvcp::ClusterContext{state.cache.get(),
                                   cvcp::ExecutionContext::Serial()});
        });
    if (!final_clustering.ok()) return Mismatch(job, "final clustering failed");
    report.final_clustering = std::move(final_clustering).value();

    *bytes = tracer_->Time("core.codec",
                           [&] { return cvcp::EncodeCvcpReport(report); });
    cvcp::Result<cvcp::CvcpReport> decoded = tracer_->Time(
        "core.codec", [&] { return cvcp::DecodeCvcpReport(*bytes); });
    if (!decoded.ok() || cvcp::EncodeCvcpReport(decoded.value()) != *bytes) {
      return Mismatch(job, "report codec round trip failed");
    }
    return true;
  }

  bool Mismatch(int64_t job, const char* what) {
    std::fprintf(stderr, "replay fidelity: job %lld: %s\n",
                 static_cast<long long>(job), what);
    return false;
  }

  Tracer* tracer_;
  cvcp::DatasetResolver resolver_;
  cvcp::ArtifactStore artifacts_;
  cvcp::ResultStore results_;
  std::map<DatasetKey, DatasetState> datasets_;
  std::vector<std::pair<JobSpec, std::string>> published_;
  Counts counts_;
  double traced_ms_ = 0.0;
  double runjob_ms_ = 0.0;
  double job_replay_ms_ = 0.0;
};

}  // namespace

void ReplayAndReport(const std::vector<JobSpec>& jobs, int rounds,
                     const std::string& workdir, const std::string& trace_path,
                     const ServiceLayerSamples* service, RunResult* out) {
  Tracer tracer;
  std::filesystem::remove_all(workdir);
  Replayer replayer(&tracer, workdir);
  bool ok = replayer.Prepare(jobs);
  int64_t job = 0;
  for (int r = 0; ok && r < rounds; ++r) {
    for (const JobSpec& spec : jobs) {
      if (!replayer.ReplayJob(job++, spec, /*publish=*/r == 0)) {
        ok = false;
        break;
      }
    }
  }
  // Only the service persists models and results; the trial workloads'
  // caches live in memory.
  if (service != nullptr) ok = ok && replayer.Persist();
  if (!ok) {
    out->Fail("replay fidelity check failed; per-layer numbers are void");
  }

  const double wall = replayer.traced_ms();
  for (const Stage& stage : kStages) {
    const std::string base = std::string(stage.name) + stage.joiner;
    const double ms = tracer.StageMs(stage.name);
    out->Add(base + "ms", ms, "ms");
    out->Add(base + "calls", static_cast<double>(tracer.StageCalls(stage.name)),
             "count");
    out->Add(base + "share", wall > 0 ? ms / wall : 0.0, "ratio");
  }
  double job_stages_ms = 0.0;
  for (const char* stage : kJobStages) job_stages_ms += tracer.StageMs(stage);
  const double overhead = replayer.runjob_ms() - job_stages_ms;
  out->Add("core.overhead.ms", overhead, "ms");
  out->Add("core.overhead.calls", static_cast<double>(job), "count");
  out->Add("core.overhead.share", wall > 0 ? overhead / wall : 0.0, "ratio");

  const Counts& counts = replayer.counts();
  out->Add("constraints.train_constraints",
           static_cast<double>(counts.train_constraints), "count");
  out->Add("common.distance.pairs", static_cast<double>(counts.distance_pairs),
           "count");
  out->Add("cluster.fosc.constraints",
           static_cast<double>(counts.fosc_constraints), "count");
  out->Add("cluster.mpck.iterations",
           static_cast<double>(counts.mpck_iterations), "count");
  out->Add("cluster.mpck.converged_frac",
           counts.mpck_runs > 0 ? static_cast<double>(counts.mpck_converged) /
                                      static_cast<double>(counts.mpck_runs)
                                : 0.0,
           "ratio");

  const ServiceLayerSamples none;
  const ServiceLayerSamples& s = service != nullptr ? *service : none;
  auto add_percentiles = [out](const std::string& name,
                               const std::vector<double>& samples) {
    out->Add(name + ".p50",
             samples.empty() ? 0.0 : WindowedPercentile(samples, 50), "ms");
    out->Add(name + ".p90",
             samples.empty() ? 0.0 : WindowedPercentile(samples, 90), "ms");
  };
  add_percentiles("service.submit.ms", s.submit_ms);
  add_percentiles("service.fetch.ms", s.fetch_ms);
  add_percentiles("service.queue.ms", s.queue_ms);
  out->Add("service.rejected", static_cast<double>(s.rejected), "count");
  out->Add("service.errors", static_cast<double>(s.errors), "count");
  out->Add("service.backlog.max", static_cast<double>(s.backlog_max), "count");
  out->Add("gen.late_ms.p90",
           s.late_ms.empty() ? 0.0 : WindowedPercentile(s.late_ms, 90), "ms");

  out->Add("trace.jobs", static_cast<double>(job), "count");
  out->Add("trace.wall_ms", wall, "ms");
  out->Add("trace.overhead_ms", replayer.job_replay_ms() - replayer.runjob_ms(),
           "ms");
  out->Add("trace.overhead_frac",
           replayer.runjob_ms() > 0
               ? (replayer.job_replay_ms() - replayer.runjob_ms()) /
                     replayer.runjob_ms()
               : 0.0,
           "ratio");
  std::printf("traced: %lld job replays, traced wall %.1f ms, untraced RunJob "
              "wall %.1f ms for the same jobs\n",
              static_cast<long long>(job), wall, replayer.runjob_ms());
  if (tracer.WriteChromeTrace(trace_path)) {
    std::printf("spans: %s\n", trace_path.c_str());
  }
  std::filesystem::remove_all(workdir);
}

}  // namespace perfbench
