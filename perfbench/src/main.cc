// cvcp_perfbench: runs one workload of the CVCP benchmark and prints its
// metrics; the last line of stdout is the JSON result. See README.md.
//
//   cvcp_perfbench --workload fosc-trials|mpck-trials|service-mix
//                  --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--digests FILE]
//   cvcp_perfbench --print-digest fosc-trials|mpck-trials --seed N

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fosc-trials|mpck-trials|service-mix "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--digests FILE]\n"
               "       %s --print-digest fosc-trials|mpck-trials --seed N\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string print_digest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--digests" && has_value) {
      options.digests = argv[++i];
    } else if (arg == "--print-digest" && has_value) {
      print_digest = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.seconds < 1) return Usage(argv[0]);

  if (!print_digest.empty()) {
    const char* clusterer = print_digest == "fosc-trials"   ? "fosc"
                            : print_digest == "mpck-trials" ? "mpck"
                                                            : nullptr;
    if (clusterer == nullptr) return Usage(argv[0]);
    const uint64_t digest = perfbench::ReferenceDigest(clusterer, options.seed);
    if (digest == 0) return 1;
    std::printf("%s %" PRIu64 " %016" PRIx64 "\n", print_digest.c_str(),
                options.seed, digest);
    return 0;
  }

  std::filesystem::create_directories(options.workdir);

  perfbench::RunResult result;
  if (options.workload == "fosc-trials") {
    result = perfbench::RunTrials(options, "fosc");
  } else if (options.workload == "mpck-trials") {
    result = perfbench::RunTrials(options, "mpck");
  } else if (options.workload == "service-mix") {
    result = perfbench::RunServiceMix(options);
  } else {
    return Usage(argv[0]);
  }
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
