#include "jobs.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bench_util.h"
#include "data/paper_suites.h"

namespace perfbench {

namespace {

// Stream ids of the seed's independent input streams.
constexpr uint64_t kTrialStream = 0x7219;
constexpr uint64_t kServiceStream = 0x5E21;

BenchRng Stream(uint64_t seed, uint64_t stream) {
  BenchRng mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return BenchRng(mix.Next());
}

/// Base of the ALOI member indices cold service jobs draw from; far above
/// the members the warm specs use, so a cold job never finds its dataset
/// resident.
constexpr uint64_t kColdAloiBase = 1u << 20;

cvcp::JobSpec BaseSpec(const PaperDataset& dataset,
                       const std::string& clusterer) {
  cvcp::JobSpec spec;
  spec.dataset = dataset.name;
  spec.dataset_seed = kDatasetSeed;
  spec.dataset_index = dataset.index;
  spec.clusterer = clusterer;
  spec.pool_fraction = dataset.pool_fraction;
  spec.n_folds = kFolds;
  spec.param_grid = clusterer == "mpck" ? cvcp::MakeKGrid(dataset.classes)
                                        : cvcp::DefaultMinPtsGrid();
  return spec;
}

/// Sets scenario and level: `level` 0-2 are the label levels, 3-5 the
/// constraint levels.
void SetLevel(int level, cvcp::JobSpec* spec) {
  if (level < 3) {
    spec->scenario = cvcp::SupervisionKind::kLabels;
    spec->label_fraction = kLabelLevels[level];
  } else {
    spec->scenario = cvcp::SupervisionKind::kConstraints;
    spec->constraint_fraction = kConstraintLevels[level - 3];
  }
}

void DrawSeeds(BenchRng* rng, cvcp::JobSpec* spec) {
  spec->supervision_seed = rng->Next();
  spec->cvcp_seed = rng->Next();
}

template <typename T>
void Shuffle(std::vector<T>* items, BenchRng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Index(i)]);
  }
}

/// MPCK jobs run on the four smaller datasets only (iris, wine, zyeast,
/// ALOI member 0): the larger two cost 10x more per job and would turn the
/// service mix into an MPCK census.
constexpr size_t kMpckDatasets[] = {0, 1, 4, 5};

/// One round of the service mix: 1 cold FOSC job, 10 resubmissions, 4 MPCK
/// jobs and 5 fetches. Cold jobs stay rare: each persists nine fsync'd
/// artifacts, and with one in five operations cold the open loop's
/// latencies followed the shared disk more than the program.
std::vector<ServiceOp::Kind> MixRound() {
  std::vector<ServiceOp::Kind> round;
  round.insert(round.end(), 1, ServiceOp::Kind::kColdFosc);
  round.insert(round.end(), 10, ServiceOp::Kind::kResubmit);
  round.insert(round.end(), 4, ServiceOp::Kind::kMpck);
  round.insert(round.end(), 5, ServiceOp::Kind::kFetch);
  return round;
}

}  // namespace

std::vector<PaperDataset> TrialDatasets() {
  return {{"iris", 0, 3, kSmallPoolFraction},
          {"wine", 0, 3, kSmallPoolFraction},
          {"ionosphere", 0, 2},
          {"ecoli", 0, 8},
          {"zyeast", 0, 4, kSmallPoolFraction},
          {"aloi", 0, 5, kAloiPoolFraction},
          {"aloi", 1, 5, kAloiPoolFraction}};
}

std::vector<cvcp::JobSpec> TrialJobs(const std::string& clusterer,
                                     uint64_t seed) {
  BenchRng rng = Stream(seed, kTrialStream);
  std::vector<cvcp::JobSpec> jobs;
  for (const PaperDataset& dataset : TrialDatasets()) {
    for (int level = 0; level < 6; ++level) {
      for (int copy = 0; copy < kJobsPerCell; ++copy) {
        cvcp::JobSpec spec = BaseSpec(dataset, clusterer);
        SetLevel(level, &spec);
        jobs.push_back(std::move(spec));
      }
    }
  }
  Shuffle(&jobs, &rng);
  for (cvcp::JobSpec& spec : jobs) DrawSeeds(&rng, &spec);
  return jobs;
}

size_t ServiceMix::ShuffledCycle::Next(BenchRng* rng) {
  if (pos_ == 0) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Shuffle(&order_, rng);
  }
  const size_t out = order_[pos_];
  pos_ = (pos_ + 1) % order_.size();
  return out;
}

ServiceMix::ServiceMix(uint64_t seed)
    : rng_(Stream(seed, kServiceStream)),
      datasets_(TrialDatasets()),
      round_(MixRound()),
      kinds_(round_.size()),
      resubmits_(2 * (datasets_.size() - 1)),
      cold_levels_(6),
      mpck_cells_(std::size(kMpckDatasets) * 6) {
  for (size_t d = 0; d + 1 < datasets_.size(); ++d) {
    for (int level : {1, 4}) {
      cvcp::JobSpec spec = BaseSpec(datasets_[d], "fosc");
      SetLevel(level, &spec);
      DrawSeeds(&rng_, &spec);
      base_.push_back(std::move(spec));
    }
  }
  cold_index_ = kColdAloiBase + rng_.Index(kColdAloiBase);
}

ServiceOp ServiceMix::Next() {
  ServiceOp op;
  op.kind = round_[kinds_.Next(&rng_)];
  switch (op.kind) {
    case ServiceOp::Kind::kColdFosc: {
      const PaperDataset member{"aloi", cold_index_++, 5, kAloiPoolFraction};
      op.spec = BaseSpec(member, "fosc");
      SetLevel(static_cast<int>(cold_levels_.Next(&rng_)), &op.spec);
      DrawSeeds(&rng_, &op.spec);
      break;
    }
    case ServiceOp::Kind::kResubmit:
      op.spec = base_[resubmits_.Next(&rng_)];
      break;
    case ServiceOp::Kind::kMpck: {
      const size_t cell = mpck_cells_.Next(&rng_);
      op.spec = BaseSpec(datasets_[kMpckDatasets[cell / 6]], "mpck");
      SetLevel(static_cast<int>(cell % 6), &op.spec);
      DrawSeeds(&rng_, &op.spec);
      break;
    }
    case ServiceOp::Kind::kFetch:
      op.pick = rng_.Next();
      break;
  }
  return op;
}

std::vector<ServiceOp> ServiceMix::Schedule(double light_rate,
                                            double heavy_rate, double total_ms,
                                            double block_ms) {
  std::vector<ServiceOp> ops;
  for (int block = 0; block * block_ms < total_ms; ++block) {
    const bool heavy = block % 2 == 1;
    const double start_ms = block * block_ms;
    const double end_ms = std::min(total_ms, start_ms + block_ms);
    // A Poisson process conditioned on its count: the block's expected
    // number of arrivals, at independent uniform times. Every run of a
    // given length then offers the same load, with Poisson-like bursts.
    const size_t count = static_cast<size_t>(std::lround(
        (heavy ? heavy_rate : light_rate) * (end_ms - start_ms) / 1000.0));
    std::vector<double> due_ms(count);
    for (double& due : due_ms) {
      due = start_ms + rng_.Uniform01() * (end_ms - start_ms);
    }
    std::sort(due_ms.begin(), due_ms.end());
    for (const double due : due_ms) {
      ServiceOp op = Next();
      op.heavy = heavy;
      op.due_ms = due;
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

}  // namespace perfbench
