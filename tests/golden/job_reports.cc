// Golden job-report matrix: runs one small JobSpec per (clusterer,
// scenario) under every execution setting the determinism contract
// covers, and writes each encoded CvcpReport to `<out>/<row>`:
//
//   job_reports --out DIR [--clusterer fosc|mpck|copk|kmeans]
//
// Rows are named `<clusterer>.<scenario>.t<threads>.<cache>.<mode>` with
// scenario in {labels, constraints}, threads in {1, 8}, cache in {off,
// memory, store} and mode in {direct, served}. `store` runs against an
// artifact store that a cold run filled first; `served` submits to an
// in-process Server over its socket. Each row name is printed on stdout;
// check_digests.cmake hashes the files against job_reports.sha256.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/artifact_store.h"
#include "core/dataset_cache.h"
#include "core/job.h"
#include "service/client.h"
#include "service/dataset_resolver.h"
#include "service/server.h"

namespace cvcp {
namespace {

constexpr int kThreadWidths[] = {1, 8};

/// The smallest spec that still runs the whole pipeline: Iris, a 3-value
/// grid, 3 folds.
JobSpec GoldenSpec(const std::string& clusterer, SupervisionKind scenario) {
  JobSpec spec;
  spec.dataset = "iris";
  spec.clusterer = clusterer;
  spec.scenario = scenario;
  spec.param_grid = clusterer == "fosc" ? std::vector<int>{3, 6, 9}
                                        : std::vector<int>{2, 3, 4};
  spec.n_folds = 3;
  return spec;
}

const char* ScenarioName(SupervisionKind scenario) {
  return scenario == SupervisionKind::kLabels ? "labels" : "constraints";
}

void WriteRow(const std::string& out_dir, const std::string& row,
              const std::string& bytes) {
  std::ofstream file(out_dir + "/" + row, std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CVCP_CHECK(file.good());
  std::printf("%s\n", row.c_str());
}

std::string DirectBytes(const Dataset& data, const JobSpec& spec, int threads,
                        DatasetCache* cache) {
  JobContext context;
  context.cache = cache;
  context.exec.threads = threads;
  auto report = RunJob(data, spec, context);
  CVCP_CHECK(report.ok());
  return EncodeCvcpReport(report.value());
}

std::string ServedBytes(const std::string& socket, const JobSpec& spec) {
  auto client = Client::Connect(socket);
  CVCP_CHECK(client.ok());
  auto submitted = client->Submit(spec);
  CVCP_CHECK(submitted.ok());
  auto reply = client->Wait(submitted->job_id);
  CVCP_CHECK(reply.ok());
  return reply->report_bytes;
}

void RunClusterer(const std::string& clusterer, const std::string& out_dir) {
  char tmpl[] = "/tmp/cvcp_golden.XXXXXX";  // short: AF_UNIX path cap
  const char* base_dir = ::mkdtemp(tmpl);
  CVCP_CHECK(base_dir != nullptr);
  const std::string base = base_dir;
  const std::string store_dir = base + "/store";

  const std::vector<SupervisionKind> scenarios = {
      SupervisionKind::kLabels, SupervisionKind::kConstraints};
  DatasetResolver resolver;
  const Dataset& data =
      *resolver.Resolve(GoldenSpec(clusterer, scenarios[0])).value();
  std::vector<JobSpec> specs;
  std::vector<std::string> prefixes;
  for (SupervisionKind scenario : scenarios) {
    specs.push_back(GoldenSpec(clusterer, scenario));
    prefixes.push_back(clusterer + "." + ScenarioName(scenario) + ".t");
  }

  // A cold run fills the store every `store` row then reads from.
  {
    ArtifactStore store(store_dir);
    DatasetCache cache(data.points(), DatasetCacheTiers{nullptr, &store});
    for (const JobSpec& spec : specs) DirectBytes(data, spec, 1, &cache);
  }

  for (size_t s = 0; s < specs.size(); ++s) {
    for (int threads : kThreadWidths) {
      const std::string row = prefixes[s] + std::to_string(threads);
      WriteRow(out_dir, row + ".off.direct",
               DirectBytes(data, specs[s], threads, nullptr));
      DatasetCache memory(data.points());
      WriteRow(out_dir, row + ".memory.direct",
               DirectBytes(data, specs[s], threads, &memory));
      ArtifactStore store(store_dir);
      DatasetCache warm(data.points(), DatasetCacheTiers{nullptr, &store});
      WriteRow(out_dir, row + ".store.direct",
               DirectBytes(data, specs[s], threads, &warm));
    }
  }

  int server_index = 0;
  for (int threads : kThreadWidths) {
    for (const std::string cache : {"off", "memory", "store"}) {
      const std::string dir = base + "/s" + std::to_string(server_index++);
      ServerConfig config;
      config.socket_path = dir + ".sock";
      config.results_dir = dir;
      config.threads = threads;
      if (cache == "off") config.cache_capacity_bytes = 0;
      if (cache == "store") config.store_dir = store_dir;
      Server server(config);
      CVCP_CHECK(server.Start().ok());
      for (size_t s = 0; s < specs.size(); ++s) {
        WriteRow(out_dir,
                 prefixes[s] + std::to_string(threads) + "." + cache + ".served",
                 ServedBytes(config.socket_path, specs[s]));
      }
      server.Stop(/*drain=*/true);
    }
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace cvcp

int main(int argc, char** argv) {
  std::string out_dir;
  std::vector<std::string> clusterers = {"fosc", "mpck", "copk", "kmeans"};
  bool usage_error = argc % 2 == 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--out") {
      out_dir = argv[i + 1];
    } else if (flag == "--clusterer") {
      clusterers = {argv[i + 1]};
    } else {
      usage_error = true;
    }
  }
  if (usage_error || out_dir.empty()) {
    std::fprintf(stderr, "usage: %s --out DIR [--clusterer NAME]\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(out_dir);
  for (const std::string& clusterer : clusterers) {
    cvcp::RunClusterer(clusterer, out_dir);
  }
  return 0;
}
