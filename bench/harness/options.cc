#include "harness/options.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/strings.h"

namespace cvcp::bench {

namespace {

// The parsers below write `*out` only on success, so a malformed
// environment value leaves the default in place.

/// Whole-string base-10 long. False for null or empty text, trailing
/// characters ("4x") and out-of-range values.
bool ParseLong(const char* text, long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = parsed;
  return true;
}

/// ParseLong, also refusing values outside the int range.
bool ParseInt(const char* text, int* out) {
  long parsed = 0;
  if (!ParseLong(text, &parsed) || parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

/// "on"/"1" → true, "off"/"0" → false; false for anything else.
bool ParseOnOff(const char* text, bool* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "on") == 0 || std::strcmp(text, "1") == 0) {
    *out = true;
    return true;
  }
  if (std::strcmp(text, "off") == 0 || std::strcmp(text, "0") == 0) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

Result<BenchOptions> TryParseBenchOptions(int argc, char** argv) {
  BenchOptions o;
  // Read as longs and converted after the flags: aloi clamps to >= 1 and
  // the seed casts to u64.
  long aloi = static_cast<long>(o.aloi_datasets);
  long seed = static_cast<long>(o.seed);
  ParseInt(std::getenv("CVCP_TRIALS"), &o.trials);
  ParseLong(std::getenv("CVCP_ALOI_DATASETS"), &aloi);
  ParseInt(std::getenv("CVCP_FOLDS"), &o.n_folds);
  ParseLong(std::getenv("CVCP_SEED"), &seed);
  ParseInt(std::getenv("CVCP_THREADS"), &o.threads);
  ParseOnOff(std::getenv("CVCP_CACHE"), &o.cache);
  if (const char* v = std::getenv("CVCP_STORE"); v != nullptr && *v != '\0') {
    o.store_dir = v;
  }
  ParseInt(std::getenv("CVCP_STORE_CAPACITY_MB"), &o.store_capacity_mb);

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--paper") {
      o.trials = 50;
      aloi = 100;
      o.n_folds = 10;
      continue;
    }
    int* int_field = flag == "--trials"              ? &o.trials
                     : flag == "--folds"             ? &o.n_folds
                     : flag == "--threads"           ? &o.threads
                     : flag == "--store-capacity-mb" ? &o.store_capacity_mb
                                                     : nullptr;
    long* long_field = flag == "--aloi"   ? &aloi
                       : flag == "--seed" ? &seed
                                          : nullptr;
    const bool known = int_field != nullptr || long_field != nullptr ||
                       flag == "--cache" || flag == "--store";
    if (!known) {
      return Status::InvalidArgument(Format("unknown flag %s", argv[i]));
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(
          Format("flag %s needs a value", argv[i]));
    }
    const char* value = argv[++i];
    bool parsed = true;
    if (int_field != nullptr) {
      parsed = ParseInt(value, int_field);
    } else if (long_field != nullptr) {
      parsed = ParseLong(value, long_field);
    } else if (flag == "--cache") {
      parsed = ParseOnOff(value, &o.cache);
    } else {
      o.store_dir = value;
    }
    if (!parsed) {
      return Status::InvalidArgument(
          Format("malformed value '%s' for flag %s", value, flag.c_str()));
    }
  }
  if (o.trials < 2) o.trials = 2;  // paired t-test needs >= 2
  if (o.n_folds < 2) o.n_folds = 2;
  o.aloi_datasets = aloi < 1 ? 1 : static_cast<std::size_t>(aloi);
  o.seed = static_cast<uint64_t>(seed);
  if (o.threads < 0) o.threads = 0;  // 0 = all hardware threads
  if (o.store_capacity_mb < 1) o.store_capacity_mb = 1;
  return o;
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  Result<BenchOptions> options = TryParseBenchOptions(argc, argv);
  if (options.ok()) return std::move(options).value();
  const char* program = argc > 0 ? argv[0] : "bench";
  std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program,
               options.status().message().c_str(), program, kBenchUsage);
  std::exit(2);
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
  std::printf(
      "scale: %d trials, %zu ALOI sets, %d-fold CV, seed %llu, %s, "
      "cache %s (--paper for full scale)\n\n",
      options.trials, options.aloi_datasets, options.n_folds,
      static_cast<unsigned long long>(options.seed), threads,
      options.cache ? "on" : "off");
}

}  // namespace cvcp::bench
