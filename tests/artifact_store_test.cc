// Unit tests for the persistent artifact store: bit-exact round trips of
// every artifact kind, the full damage taxonomy (truncation, flipped
// bits, version skew, key mismatch via renamed files) degrading to
// counted misses, concurrent same-key writers, and List/Purge. Every
// defect must surface as a classified miss — the store never crashes on,
// or serves, bad bytes.

#include "core/artifact_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/block_format.h"
#include "common/hash.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace cvcp {
namespace {

namespace fs = std::filesystem;

// A fresh store directory per test, under the gtest scratch dir.
std::string FreshDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "cvcp_store" / name;
  fs::remove_all(dir);
  return dir.string();
}

Matrix FixturePoints() {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 12; ++i) {
    const double x = i;
    rows.push_back({x, 0.5 * x - 3.0, x * x * 0.1});
  }
  return Matrix::FromRows(rows);
}

OpticsResult FixtureOptics() {
  OpticsResult optics;
  optics.order = {2, 0, 1, 3};
  const double inf = std::numeric_limits<double>::infinity();
  optics.reachability = {inf, 0.25, 1.5, std::nan("")};
  optics.core_distance = {0.5, inf, 0.75, 2.0};
  return optics;
}

// The one *.cvcp file in `dir` (fails the test if there are several).
std::string OnlyFile(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".cvcp") continue;
    EXPECT_TRUE(found.empty());
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty());
  return found;
}

// An optics block of the live kind whose arrays are followed by one more
// u32 record, as older versions wrote for models kept under an
// "-optics-f32.cvcp" filename.
std::string OpticsBlockWithTrailingRecord(uint64_t hash, int min_pts) {
  const OpticsResult optics = FixtureOptics();
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kOpticsModel));
  builder.AppendU64(hash);
  builder.AppendU32(static_cast<uint32_t>(Metric::kEuclidean));
  builder.AppendU32(static_cast<uint32_t>(min_pts));
  builder.AppendSizes(optics.order);
  builder.AppendDoubles(optics.reachability);
  builder.AppendDoubles(optics.core_distance);
  builder.AppendU32(1);
  return builder.Finish();
}

TEST(ArtifactStoreTest, DistanceMatrixRoundTripsBitExact) {
  ArtifactStore store(FreshDir("dist"));
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);

  ASSERT_TRUE(store.SaveDistances(hash, Metric::kEuclidean, dm).ok());
  auto loaded = store.LoadDistances(hash, Metric::kEuclidean);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->n(), dm.n());
  ASSERT_EQ(loaded->condensed().size(), dm.condensed().size());
  for (size_t i = 0; i < dm.condensed().size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->condensed()[i]),
              std::bit_cast<uint64_t>(dm.condensed()[i]));
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
}

TEST(ArtifactStoreTest, OpticsModelRoundTripsBitExact) {
  ArtifactStore store(FreshDir("optics"));
  const OpticsResult optics = FixtureOptics();
  ASSERT_TRUE(
      store.SaveOpticsModel(0xABCDEF01u, Metric::kEuclidean, 5, optics).ok());
  auto loaded = store.LoadOpticsModel(0xABCDEF01u, Metric::kEuclidean, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order, optics.order);
  for (size_t i = 0; i < optics.reachability.size(); ++i) {
    // Bit equality keeps the +infinity sentinels and NaN payloads.
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->reachability[i]),
              std::bit_cast<uint64_t>(optics.reachability[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->core_distance[i]),
              std::bit_cast<uint64_t>(optics.core_distance[i]));
  }
}

TEST(ArtifactStoreTest, ColdKeyIsNotFoundMiss) {
  ArtifactStore store(FreshDir("cold"));
  auto loaded = store.LoadOpticsModel(1, Metric::kEuclidean, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  const auto stats = store.stats();
  EXPECT_EQ(stats.disk_misses, 1u);
  EXPECT_EQ(stats.corrupt_misses, 0u);
}

TEST(ArtifactStoreTest, TruncatedFileIsCountedCorruptMiss) {
  const std::string dir = FreshDir("truncated");
  ArtifactStore store(dir);
  ASSERT_TRUE(
      store.SaveOpticsModel(7, Metric::kEuclidean, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  const auto full_size = fs::file_size(file);
  fs::resize_file(file, full_size / 2);

  auto loaded = store.LoadOpticsModel(7, Metric::kEuclidean, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, FlippedBitIsCountedCorruptMiss) {
  const std::string dir = FreshDir("flipped");
  ArtifactStore store(dir);
  ASSERT_TRUE(
      store.SaveOpticsModel(8, Metric::kEuclidean, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    io.seekg(30);
    char byte = 0;
    io.get(byte);
    io.seekp(30);
    io.put(static_cast<char>(byte ^ 0x04));
  }
  auto loaded = store.LoadOpticsModel(8, Metric::kEuclidean, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, RenamedFileFailsTheEmbeddedKeyCheck) {
  const std::string dir = FreshDir("renamed");
  ArtifactStore store(dir);
  // Save under MinPts 4, then move the file onto MinPts 9's name: the
  // frame is intact, but the embedded key must refuse to serve it.
  ASSERT_TRUE(
      store.SaveOpticsModel(9, Metric::kEuclidean, 4, FixtureOptics()).ok());
  const std::string mp4_file = OnlyFile(dir);
  std::string mp9_file = mp4_file;
  const size_t pos = mp9_file.find("mp004");
  ASSERT_NE(pos, std::string::npos);
  mp9_file.replace(pos, 5, "mp009");
  fs::rename(mp4_file, mp9_file);

  auto loaded = store.LoadOpticsModel(9, Metric::kEuclidean, 9);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, VersionSkewIsCountedVersionMiss) {
  const std::string dir = FreshDir("version");
  ArtifactStore store(dir);
  ASSERT_TRUE(
      store.SaveOpticsModel(10, Metric::kEuclidean, 4, FixtureOptics()).ok());
  // Re-seal the file as a future format version (patch version field,
  // recompute the CRC) — a downgrade scenario.
  const std::string file = OnlyFile(dir);
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 24u);
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = store.LoadOpticsModel(10, Metric::kEuclidean, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.stats().version_misses, 1u);
  EXPECT_EQ(store.stats().corrupt_misses, 0u);
}

TEST(ArtifactStoreTest, ConcurrentSameKeyWritersConverge) {
  const std::string dir = FreshDir("racing");
  ArtifactStore store(dir);
  const OpticsResult optics = FixtureOptics();
  ExecutionContext exec;
  exec.threads = 8;
  // Deterministic artifacts: racing writers produce byte-identical files,
  // so whichever rename lands last, the stored bytes decode identically.
  ParallelFor(exec, 16, [&](size_t) {
    ASSERT_TRUE(
        store.SaveOpticsModel(11, Metric::kEuclidean, 4, optics).ok());
  });
  auto loaded = store.LoadOpticsModel(11, Metric::kEuclidean, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order, optics.order);
  EXPECT_EQ(store.stats().writes, 16u);
  // No temp files left behind.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".cvcp") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(ArtifactStoreTest, ListReportsKindsAndValidity) {
  const std::string dir = FreshDir("list");
  ArtifactStore store(dir);
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  ASSERT_TRUE(store.SaveDistances(hash, Metric::kEuclidean, dm).ok());
  ASSERT_TRUE(
      store.SaveOpticsModel(hash, Metric::kEuclidean, 4, FixtureOptics())
          .ok());
  const std::string prefix = Format(
      "%016llx-euc", static_cast<unsigned long long>(hash));
  auto write_raw = [&](const std::string& name, const std::string& bytes) {
    std::ofstream out(fs::path(dir) / name, std::ios::binary);
    out << bytes;
  };
  // Blocks of the retired kinds 3 (cell timings) and 4 (f32 distances),
  // as an older store directory may still hold: valid frames of kinds
  // this build no longer knows.
  BlockBuilder retired_timings(3);
  retired_timings.AppendU64(hash);
  retired_timings.AppendString("t");
  write_raw("0000000000000063-t-timings.cvcp", retired_timings.Finish());
  BlockBuilder retired_f32(4);
  retired_f32.AppendU64(hash);
  retired_f32.AppendU32(static_cast<uint32_t>(Metric::kEuclidean));
  retired_f32.AppendU64(points.rows());
  const std::vector<std::byte> floats(dm.condensed().size() * 4);
  retired_f32.AppendRecord(floats);
  write_raw(prefix + "-dist-f32.cvcp", retired_f32.Finish());
  // Damage the optics file so List flags exactly one invalid entry.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find("optics") == std::string::npos) continue;
    fs::resize_file(entry.path(), fs::file_size(entry.path()) - 1);
  }
  // An f32-derived optics model of an older version: the live kind with
  // a trailing record, under a name no key produces any more.
  write_raw(prefix + "-mp004-optics-f32.cvcp",
            OpticsBlockWithTrailingRecord(hash, 4));

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 5u);
  size_t valid = 0;
  size_t unknown = 0;
  for (const ArtifactFileInfo& file : *listed) {
    EXPECT_GT(file.bytes, 0u);
    if (file.kind == 3 || file.kind == 4) {
      ++unknown;
      EXPECT_TRUE(file.valid) << file.detail;
      EXPECT_STREQ(ArtifactKindName(static_cast<ArtifactKind>(file.kind)),
                   "unknown");
      EXPECT_TRUE(file.decoded_key.empty());
    }
    if (file.filename.find("-optics-f32.cvcp") != std::string::npos) {
      EXPECT_TRUE(file.valid) << file.detail;
      EXPECT_EQ(file.kind, static_cast<uint32_t>(ArtifactKind::kOpticsModel));
      EXPECT_FALSE(file.decoded_key.empty());
    }
    if (file.valid) {
      ++valid;
    } else {
      EXPECT_EQ(file.filename.find("-f32"), std::string::npos);
      EXPECT_EQ(file.kind,
                static_cast<uint32_t>(ArtifactKind::kOpticsModel));
      EXPECT_FALSE(file.detail.empty());
    }
  }
  EXPECT_EQ(valid, 4u);
  EXPECT_EQ(unknown, 2u);
  // The stray blocks do not disturb the keys this build does know: the
  // distances still hit with the saved bits, and the damaged optics key
  // is still a corrupt miss, never served from the "-f32" file.
  auto distances = store.LoadDistances(hash, Metric::kEuclidean);
  ASSERT_TRUE(distances.ok());
  EXPECT_EQ(distances->condensed(), dm.condensed());
  auto optics = store.LoadOpticsModel(hash, Metric::kEuclidean, 4);
  ASSERT_FALSE(optics.ok());
  EXPECT_EQ(optics.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().disk_hits, 1u);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);

  auto purged = store.Purge();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(purged.value(), 5u);
  auto after = store.List();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(ArtifactStoreTest, CrossModeRenamedOpticsIsRefused) {
  const std::string dir = FreshDir("cross-mode");
  ArtifactStore store(dir);
  // Older versions appended a trailing record to some optics models and
  // kept them under another filename. Such bytes renamed onto the live
  // name have an intact frame and CRC, but the trailing record must
  // refuse the decode: never served, always a counted corrupt miss.
  ASSERT_TRUE(
      store.SaveOpticsModel(22, Metric::kEuclidean, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << OpticsBlockWithTrailingRecord(22, 4);
  }

  auto loaded = store.LoadOpticsModel(22, Metric::kEuclidean, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, ListOnAbsentDirectoryIsEmpty) {
  ArtifactStore store(FreshDir("absent"));
  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());
  auto purged = store.Purge();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(purged.value(), 0u);
}

}  // namespace
}  // namespace cvcp
