// Golden MPCKMeans result matrix: runs RunMpckMeans directly (no folds,
// no selection) over every metric mode, dimension and initialization, and
// writes each MpckMeansResult to `<out>/<row>`:
//
//   mpck_results --out DIR
//
// Rows are named `mpck.<mode>.d<dims>.<init>` with mode in {none, single,
// cluster}, dims in {1, 4, 8, 13, 20} (tail-only, exact-block and mixed
// fixed-lane kernels) and init in {hood, kpp}, plus `mpck.<mode>.reseed`,
// where duplicate centroids leave a cluster empty so it is re-seeded. The
// constraint sets repeat pairs in both orientations and share endpoints.
// A row's file holds the assignment, the raw bits of every centroid,
// weight and the objective, the iteration count and the converged flag;
// each row name is printed on stdout and check_digests.cmake hashes the
// files against mpck_results.sha256.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/mpckmeans.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/generators.h"

namespace cvcp {
namespace {

constexpr size_t kDims[] = {1, 4, 8, 13, 20};

struct Mode {
  MetricMode mode;
  const char* name;
};
constexpr Mode kModes[] = {{MetricMode::kNone, "none"},
                           {MetricMode::kSingleDiagonal, "single"},
                           {MetricMode::kPerClusterDiagonal, "cluster"}};

template <typename T>
void Append(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string EncodeResult(const MpckMeansResult& result) {
  std::string out;
  const std::vector<int>& assignment = result.clustering.assignment();
  Append(&out, static_cast<uint64_t>(assignment.size()));
  for (int label : assignment) Append(&out, static_cast<int32_t>(label));
  for (const Matrix* m : {&result.centroids, &result.metric_weights}) {
    Append(&out, static_cast<uint64_t>(m->rows()));
    Append(&out, static_cast<uint64_t>(m->cols()));
    for (double v : m->data()) Append(&out, v);
  }
  Append(&out, result.objective);
  Append(&out, static_cast<int32_t>(result.iterations));
  Append(&out, static_cast<uint8_t>(result.converged));
  return out;
}

void WriteRow(const std::string& out_dir, const std::string& row,
              const MpckMeansResult& result) {
  const std::string bytes = EncodeResult(result);
  std::ofstream file(out_dir + "/" + row, std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CVCP_CHECK(file.good());
  std::printf("%s\n", row.c_str());
}

void Add(ConstraintSet* constraints, size_t a, size_t b, ConstraintType type) {
  CVCP_CHECK(constraints->Add(a, b, type).ok());
}

/// Three overlapping blobs of 20 points (labels in blocks of 20), with
/// all-pairs label constraints among every 4th object (shared endpoints),
/// a cross-class must-link chain 1-21-42 and cannot-links inside class 0,
/// so both penalty terms are violated. Pairs are added again in both
/// orientations.
Dataset PinData(size_t dims, ConstraintSet* constraints) {
  Rng rng(dims);
  Dataset data = MakeBlobs("mpck_pin", 3, 20, dims, 6.0, 1.5, &rng);
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 4) objects.push_back(i);
  *constraints = ConstraintSet::FromLabels(data.labels(), objects);
  Add(constraints, 1, 21, ConstraintType::kMustLink);
  Add(constraints, 42, 21, ConstraintType::kMustLink);
  Add(constraints, 2, 3, ConstraintType::kCannotLink);
  Add(constraints, 5, 2, ConstraintType::kCannotLink);
  Add(constraints, 21, 1, ConstraintType::kMustLink);
  Add(constraints, 3, 2, ConstraintType::kCannotLink);
  Add(constraints, 4, 0, ConstraintType::kMustLink);
  return data;
}

MpckMeansResult Run(const Matrix& points, const ConstraintSet& constraints,
                    const MpckMeansConfig& config, uint64_t seed) {
  Rng rng(seed);
  auto result = RunMpckMeans(points, constraints, config, &rng);
  CVCP_CHECK(result.ok());
  return result.value();
}

void RunMatrix(const std::string& out_dir) {
  for (const Mode& mode : kModes) {
    for (size_t dims : kDims) {
      ConstraintSet constraints;
      const Dataset data = PinData(dims, &constraints);
      for (bool hood : {true, false}) {
        MpckMeansConfig config;
        config.k = 3;
        config.metric_mode = mode.mode;
        config.neighborhood_init = hood;
        WriteRow(out_dir,
                 std::string("mpck.") + mode.name + ".d" +
                     std::to_string(dims) + (hood ? ".hood" : ".kpp"),
                 Run(data.points(), constraints, config, 100 + dims));
      }
    }
  }

  // Two sites of 6 identical points and k = 4: once both sites hold a
  // centroid, k-means++ has zero D^2 mass left and repeats a site, and
  // ICM's strict argmin leaves the later duplicate centroid empty.
  Matrix sites(12, 2);
  for (size_t i = 0; i < 12; ++i) {
    sites.At(i, 0) = i < 6 ? 0.0 : 5.0;
    sites.At(i, 1) = i < 6 ? 1.0 : -2.0;
  }
  ConstraintSet constraints;
  Add(&constraints, 0, 6, ConstraintType::kCannotLink);
  Add(&constraints, 1, 2, ConstraintType::kMustLink);
  for (const Mode& mode : kModes) {
    MpckMeansConfig config;
    config.k = 4;
    config.metric_mode = mode.mode;
    config.neighborhood_init = false;
    WriteRow(out_dir, std::string("mpck.") + mode.name + ".reseed",
             Run(sites, constraints, config, 7));
  }
}

}  // namespace
}  // namespace cvcp

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--out") {
    std::fprintf(stderr, "usage: %s --out DIR\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(argv[2]);
  cvcp::RunMatrix(argv[2]);
  return 0;
}
