#include "harness/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/distance.h"
#include "common/strings.h"

namespace cvcp::bench {

namespace {

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// "nested" / "split" → policy; anything else keeps `fallback`.
NestingPolicy ParseScheduler(const char* v, NestingPolicy fallback) {
  if (v == nullptr) return fallback;
  if (std::strcmp(v, "nested") == 0) return NestingPolicy::kNested;
  if (std::strcmp(v, "split") == 0) return NestingPolicy::kSplit;
  return fallback;
}

/// "on"/"1" → true, "off"/"0" → false; anything else keeps `fallback`.
bool ParseOnOff(const char* v, bool fallback) {
  if (v == nullptr) return fallback;
  if (std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0) return true;
  if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) return false;
  return fallback;
}

/// Storage spellings via the library parser; anything unrecognized
/// keeps `fallback`.
DistanceStorage ParseStorage(const char* v, DistanceStorage fallback) {
  DistanceStorage out = fallback;
  if (v != nullptr) ParseDistanceStorage(v, &out);
  return out;
}

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions o;
  o.trials = static_cast<int>(EnvLong("CVCP_TRIALS", o.trials));
  o.aloi_datasets = static_cast<std::size_t>(
      EnvLong("CVCP_ALOI_DATASETS", static_cast<long>(o.aloi_datasets)));
  o.n_folds = static_cast<int>(EnvLong("CVCP_FOLDS", o.n_folds));
  o.seed = static_cast<uint64_t>(EnvLong("CVCP_SEED",
                                         static_cast<long>(o.seed)));
  o.threads = static_cast<int>(EnvLong("CVCP_THREADS", o.threads));
  o.trial_threads =
      static_cast<int>(EnvLong("CVCP_TRIAL_THREADS", o.trial_threads));
  o.nesting = ParseScheduler(std::getenv("CVCP_SCHEDULER"), o.nesting);
  o.cache = ParseOnOff(std::getenv("CVCP_CACHE"), o.cache);
  if (const char* v = std::getenv("CVCP_TIMINGS_FILE");
      v != nullptr && *v != '\0') {
    o.timings_file = v;
  }
  if (const char* v = std::getenv("CVCP_STORE"); v != nullptr && *v != '\0') {
    o.store_dir = v;
  }
  o.store_capacity_mb = static_cast<int>(
      EnvLong("CVCP_STORE_CAPACITY_MB", o.store_capacity_mb));
  o.distance_storage =
      ParseStorage(std::getenv("CVCP_DISTANCE_STORAGE"), o.distance_storage);
  for (int i = 1; i < argc; ++i) {
    auto next_long = [&](long fallback) {
      return i + 1 < argc ? std::strtol(argv[++i], nullptr, 10) : fallback;
    };
    if (std::strcmp(argv[i], "--paper") == 0) {
      o.trials = 50;
      o.aloi_datasets = 100;
      o.n_folds = 10;
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      o.trials = static_cast<int>(next_long(o.trials));
    } else if (std::strcmp(argv[i], "--aloi") == 0) {
      o.aloi_datasets = static_cast<std::size_t>(next_long(
          static_cast<long>(o.aloi_datasets)));
    } else if (std::strcmp(argv[i], "--folds") == 0) {
      o.n_folds = static_cast<int>(next_long(o.n_folds));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      o.seed = static_cast<uint64_t>(next_long(static_cast<long>(o.seed)));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      o.threads = static_cast<int>(next_long(o.threads));
    } else if (std::strcmp(argv[i], "--trial-threads") == 0) {
      o.trial_threads = static_cast<int>(next_long(o.trial_threads));
    } else if (std::strcmp(argv[i], "--scheduler") == 0) {
      if (i + 1 < argc) o.nesting = ParseScheduler(argv[++i], o.nesting);
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      if (i + 1 < argc) o.cache = ParseOnOff(argv[++i], o.cache);
    } else if (std::strcmp(argv[i], "--timings-file") == 0) {
      if (i + 1 < argc) o.timings_file = argv[++i];
    } else if (std::strcmp(argv[i], "--store") == 0) {
      if (i + 1 < argc) o.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-capacity-mb") == 0) {
      o.store_capacity_mb = static_cast<int>(next_long(o.store_capacity_mb));
    } else if (std::strcmp(argv[i], "--distance-storage") == 0) {
      if (i + 1 < argc) o.distance_storage = ParseStorage(argv[++i],
                                                          o.distance_storage);
    }
  }
  if (o.trials < 2) o.trials = 2;  // paired t-test needs >= 2
  if (o.n_folds < 2) o.n_folds = 2;
  if (o.aloi_datasets < 1) o.aloi_datasets = 1;
  if (o.threads < 0) o.threads = 0;  // 0 = all hardware threads
  if (o.trial_threads < 0) o.trial_threads = 0;  // 0 = automatic split
  if (o.store_capacity_mb < 1) o.store_capacity_mb = 1;
  return o;
}

void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s (Pourrajabi et al., EDBT 2014)\n",
              paper_ref.c_str());
  char threads[64];
  if (options.threads > 0) {
    std::snprintf(threads, sizeof(threads), "%d threads", options.threads);
  } else {
    std::snprintf(threads, sizeof(threads), "all hardware threads");
  }
  char lanes[64];
  if (options.trial_threads == 0) {
    std::snprintf(lanes, sizeof(lanes), "auto trial lanes");
  } else if (options.trial_threads == 1) {
    std::snprintf(lanes, sizeof(lanes), "serial trials");
  } else {
    std::snprintf(lanes, sizeof(lanes), "%d trial lanes",
                  options.trial_threads);
  }
  const char* scheduler =
      options.nesting == NestingPolicy::kNested ? "nested" : "split";
  std::printf(
      "scale: %d trials, %zu ALOI sets, %d-fold CV, seed %llu, %s, %s, "
      "%s scheduler, cache %s, %s distances "
      "(--paper for full scale)\n\n",
      options.trials, options.aloi_datasets, options.n_folds,
      static_cast<unsigned long long>(options.seed), threads, lanes,
      scheduler, options.cache ? "on" : "off",
      DistanceStorageName(options.distance_storage));
}

Result<std::vector<CvCellTiming>> LoadCellTimings(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound(Format("cannot open timings file %s",
                                   path.c_str()));
  }
  std::vector<CvCellTiming> timings;
  char line[256];
  int line_no = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    ++line_no;
    // Skip blank lines and comments.
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '\n' || *p == '#') continue;
    CvCellTiming timing;
    if (std::sscanf(p, "%d,%d,%lf", &timing.param, &timing.fold,
                    &timing.wall_ms) != 3) {
      std::fclose(file);
      return Status::InvalidArgument(
          Format("malformed timings line %d in %s", line_no, path.c_str()));
    }
    timings.push_back(timing);
  }
  std::fclose(file);
  return timings;
}

Status SaveCellTimings(const std::string& path,
                       const std::vector<CvCellTiming>& timings) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument(
        Format("cannot write timings file %s", path.c_str()));
  }
  std::fprintf(file, "# param,fold,wall_ms (CvcpReport::cell_timings)\n");
  for (const CvCellTiming& timing : timings) {
    // %.17g round-trips doubles, so reload == save exactly.
    std::fprintf(file, "%d,%d,%.17g\n", timing.param, timing.fold,
                 timing.wall_ms);
  }
  const bool write_failed = std::ferror(file) != 0;
  std::fclose(file);
  if (write_failed) {
    return Status::Internal(Format("short write to %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace cvcp::bench
