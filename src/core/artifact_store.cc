#include "core/artifact_store.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/block_format.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "common/strings.h"

namespace cvcp {

namespace {

namespace fs = std::filesystem;

/// Filesystem-safe tag for a metric, part of every artifact filename.
const char* MetricTag(Metric metric) {
  switch (metric) {
    case Metric::kEuclidean:
      return "euc";
    case Metric::kSquaredEuclidean:
      return "sqeuc";
    case Metric::kManhattan:
      return "man";
    case Metric::kCosine:
      return "cos";
  }
  return "unknown";
}

/// "-f32" on every float32-family filename keeps the two storage modes in
/// disjoint key spaces within one directory; f64 names are unchanged from
/// earlier versions.
const char* StorageSuffix(DistanceStorage storage) {
  return storage == DistanceStorage::kF32 ? "-f32" : "";
}

std::string DistanceFileName(uint64_t hash, Metric metric,
                             DistanceStorage storage) {
  return Format("%016llx-%s-dist%s.cvcp",
                static_cast<unsigned long long>(hash), MetricTag(metric),
                StorageSuffix(storage));
}

std::string OpticsFileName(uint64_t hash, Metric metric, int min_pts,
                           DistanceStorage storage) {
  return Format("%016llx-%s-mp%03d-optics%s.cvcp",
                static_cast<unsigned long long>(hash), MetricTag(metric),
                min_pts, StorageSuffix(storage));
}

/// Trailing record of an f32-derived optics block; f64 blocks have no
/// trailing record at all, so neither decodes as the other.
constexpr uint32_t kOpticsF32Marker = 1;

/// Fills `storage` + `decoded_key` of a listed file from its validated
/// block records, and cross-checks the filename's "-f32" suffix against
/// what the payload actually is — a renamed file surfaces as invalid here
/// (`store_inspect verify` fails on it). Record-level read failures mean
/// encoder/decoder schema drift and also mark the file invalid.
void DescribeArtifact(BlockReader* reader, ArtifactFileInfo* info) {
  const bool name_f32 = info->filename.find("-f32.cvcp") != std::string::npos;
  auto fail = [&](std::string why) {
    info->valid = false;
    info->detail = std::move(why);
  };
  switch (static_cast<ArtifactKind>(info->kind)) {
    case ArtifactKind::kDistanceMatrix:
    case ArtifactKind::kDistanceMatrixF32: {
      const bool f32 = static_cast<ArtifactKind>(info->kind) ==
                       ArtifactKind::kDistanceMatrixF32;
      Result<uint64_t> hash = reader->ReadU64();
      Result<uint32_t> metric = reader->ReadU32();
      Result<uint64_t> n = reader->ReadU64();
      if (!hash.ok() || !metric.ok() || !n.ok()) {
        return fail("undecodable distance key records");
      }
      info->storage = f32 ? "f32" : "f64";
      info->decoded_key =
          Format("hash=%016llx metric=%s n=%llu",
                 static_cast<unsigned long long>(*hash),
                 MetricTag(static_cast<Metric>(*metric)),
                 static_cast<unsigned long long>(*n));
      if (f32 != name_f32) {
        fail("filename storage suffix disagrees with block kind");
      }
      break;
    }
    case ArtifactKind::kOpticsModel: {
      Result<uint64_t> hash = reader->ReadU64();
      Result<uint32_t> metric = reader->ReadU32();
      Result<uint32_t> min_pts = reader->ReadU32();
      Result<std::vector<size_t>> order = reader->ReadSizes();
      Result<std::vector<double>> reach = reader->ReadDoubles();
      Result<std::vector<double>> core = reader->ReadDoubles();
      if (!hash.ok() || !metric.ok() || !min_pts.ok() || !order.ok() ||
          !reach.ok() || !core.ok()) {
        return fail("undecodable optics records");
      }
      bool f32 = false;
      if (reader->remaining() > 0) {
        Result<uint32_t> marker = reader->ReadU32();
        if (!marker.ok() || *marker != kOpticsF32Marker) {
          return fail("unrecognized optics trailing record");
        }
        f32 = true;
      }
      info->storage = f32 ? "f32" : "f64";
      info->decoded_key = Format(
          "hash=%016llx metric=%s mp=%03u n=%zu",
          static_cast<unsigned long long>(*hash),
          MetricTag(static_cast<Metric>(*metric)), *min_pts, order->size());
      if (f32 != name_f32) {
        fail("filename storage suffix disagrees with payload storage marker");
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kDistanceMatrix:
      return "distances";
    case ArtifactKind::kOpticsModel:
      return "optics";
    case ArtifactKind::kDistanceMatrixF32:
      return "distances-f32";
  }
  return "unknown";
}

uint64_t HashMatrixContent(const Matrix& points) {
  const uint64_t rows = points.rows();
  const uint64_t cols = points.cols();
  uint64_t h = Hash64(&rows, sizeof(rows));
  h = Hash64(&cols, sizeof(cols), h);
  const std::vector<double>& data = points.data();
  return Hash64(data.data(), data.size() * sizeof(double), h);
}

std::string EncodeDistanceMatrix(uint64_t dataset_hash, Metric metric,
                                 const DistanceMatrix& matrix) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kDistanceMatrix));
  builder.AppendU64(dataset_hash);
  builder.AppendU32(static_cast<uint32_t>(metric));
  builder.AppendU64(matrix.n());
  builder.AppendDoubles(matrix.condensed());
  return builder.Finish();
}

Result<DistanceMatrix> DecodeDistanceMatrix(std::string bytes,
                                            uint64_t dataset_hash,
                                            Metric metric) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes),
                        static_cast<uint32_t>(ArtifactKind::kDistanceMatrix)));
  CVCP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_metric, reader.ReadU32());
  if (stored_hash != dataset_hash ||
      stored_metric != static_cast<uint32_t>(metric)) {
    return Status::Corruption(
        "distance block is keyed to a different (dataset, metric)");
  }
  CVCP_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(std::vector<double> condensed, reader.ReadDoubles());
  const uint64_t expected = n < 2 ? 0 : n * (n - 1) / 2;
  if (condensed.size() != expected) {
    return Status::Corruption(
        Format("distance block for n=%llu has %zu entries, expected %llu",
               static_cast<unsigned long long>(n), condensed.size(),
               static_cast<unsigned long long>(expected)));
  }
  return DistanceMatrix::FromCondensed(static_cast<size_t>(n),
                                       std::move(condensed));
}

std::string EncodeDistanceMatrix32(uint64_t dataset_hash, Metric metric,
                                   const DistanceMatrix& matrix) {
  BlockBuilder builder(
      static_cast<uint32_t>(ArtifactKind::kDistanceMatrixF32));
  builder.AppendU64(dataset_hash);
  builder.AppendU32(static_cast<uint32_t>(metric));
  builder.AppendU64(matrix.n());
  builder.AppendFloats(matrix.condensed32());
  return builder.Finish();
}

Result<DistanceMatrix> DecodeDistanceMatrix32(std::string bytes,
                                              uint64_t dataset_hash,
                                              Metric metric) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(
          std::move(bytes),
          static_cast<uint32_t>(ArtifactKind::kDistanceMatrixF32)));
  CVCP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_metric, reader.ReadU32());
  if (stored_hash != dataset_hash ||
      stored_metric != static_cast<uint32_t>(metric)) {
    return Status::Corruption(
        "f32 distance block is keyed to a different (dataset, metric)");
  }
  CVCP_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(std::vector<float> condensed, reader.ReadFloats());
  const uint64_t expected = n < 2 ? 0 : n * (n - 1) / 2;
  if (condensed.size() != expected) {
    return Status::Corruption(
        Format("f32 distance block for n=%llu has %zu entries, expected %llu",
               static_cast<unsigned long long>(n), condensed.size(),
               static_cast<unsigned long long>(expected)));
  }
  return DistanceMatrix::FromCondensed32(static_cast<size_t>(n),
                                         std::move(condensed));
}

std::string EncodeOpticsModel(uint64_t dataset_hash, Metric metric,
                              int min_pts, const OpticsResult& optics,
                              DistanceStorage storage) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kOpticsModel));
  builder.AppendU64(dataset_hash);
  builder.AppendU32(static_cast<uint32_t>(metric));
  builder.AppendU32(static_cast<uint32_t>(min_pts));
  builder.AppendSizes(optics.order);
  builder.AppendDoubles(optics.reachability);
  builder.AppendDoubles(optics.core_distance);
  if (storage == DistanceStorage::kF32) builder.AppendU32(kOpticsF32Marker);
  return builder.Finish();
}

Result<OpticsResult> DecodeOpticsModel(std::string bytes,
                                       uint64_t dataset_hash, Metric metric,
                                       int min_pts, DistanceStorage storage) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes),
                        static_cast<uint32_t>(ArtifactKind::kOpticsModel)));
  CVCP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_metric, reader.ReadU32());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_min_pts, reader.ReadU32());
  if (stored_hash != dataset_hash ||
      stored_metric != static_cast<uint32_t>(metric) ||
      stored_min_pts != static_cast<uint32_t>(min_pts)) {
    return Status::Corruption(
        "optics block is keyed to a different (dataset, metric, MinPts)");
  }
  OpticsResult optics;
  CVCP_ASSIGN_OR_RETURN(optics.order, reader.ReadSizes());
  CVCP_ASSIGN_OR_RETURN(optics.reachability, reader.ReadDoubles());
  CVCP_ASSIGN_OR_RETURN(optics.core_distance, reader.ReadDoubles());
  if (optics.reachability.size() != optics.order.size() ||
      optics.core_distance.size() != optics.order.size()) {
    return Status::Corruption(
        Format("optics block arrays disagree on n: order %zu, "
               "reachability %zu, core %zu",
               optics.order.size(), optics.reachability.size(),
               optics.core_distance.size()));
  }
  if (storage == DistanceStorage::kF32) {
    CVCP_ASSIGN_OR_RETURN(uint32_t marker, reader.ReadU32());
    if (marker != kOpticsF32Marker) {
      return Status::Corruption(
          Format("optics block trailing marker is %u, expected the f32 "
                 "marker %u",
                 marker, kOpticsF32Marker));
    }
  } else if (reader.remaining() != 0) {
    return Status::Corruption(
        "f64 optics key resolved to a block with trailing records "
        "(f32-derived model)");
  }
  return optics;
}

ArtifactStore::ArtifactStore(std::string directory)
    : directory_(std::move(directory)) {}

Status ArtifactStore::ClassifyMiss(Status status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      disk_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kFailedPrecondition:
      version_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      corrupt_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return status;
}

Result<std::string> ArtifactStore::ReadFile(const std::string& filename) {
  const fs::path path = fs::path(directory_) / filename;
  Result<std::string> bytes = ReadFileToString(path.string());
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound(Format("no artifact %s", filename.c_str()));
    }
    return bytes.status();
  }
  bytes_read_.fetch_add(bytes->size(), std::memory_order_relaxed);
  return bytes;
}

Status ArtifactStore::WriteFileAtomic(const std::string& filename,
                                      const std::string& bytes) {
  const uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  const Status written =
      cvcp::WriteFileAtomic(directory_, filename, bytes, seq);
  if (!written.ok()) {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return Status::OK();
}

Result<DistanceMatrix> ArtifactStore::LoadDistances(uint64_t dataset_hash,
                                                    Metric metric,
                                                    DistanceStorage storage) {
  Result<std::string> bytes =
      ReadFile(DistanceFileName(dataset_hash, metric, storage));
  if (!bytes.ok()) return ClassifyMiss(bytes.status());
  Result<DistanceMatrix> decoded =
      storage == DistanceStorage::kF32
          ? DecodeDistanceMatrix32(std::move(bytes).value(), dataset_hash,
                                   metric)
          : DecodeDistanceMatrix(std::move(bytes).value(), dataset_hash,
                                 metric);
  if (!decoded.ok()) return ClassifyMiss(decoded.status());
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

Status ArtifactStore::SaveDistances(uint64_t dataset_hash, Metric metric,
                                    const DistanceMatrix& matrix) {
  // The matrix's own storage mode picks the artifact family; encoder and
  // filename always agree.
  if (matrix.storage() == DistanceStorage::kF32) {
    return WriteFileAtomic(
        DistanceFileName(dataset_hash, metric, DistanceStorage::kF32),
        EncodeDistanceMatrix32(dataset_hash, metric, matrix));
  }
  return WriteFileAtomic(
      DistanceFileName(dataset_hash, metric, DistanceStorage::kF64),
      EncodeDistanceMatrix(dataset_hash, metric, matrix));
}

Result<OpticsResult> ArtifactStore::LoadOpticsModel(uint64_t dataset_hash,
                                                    Metric metric, int min_pts,
                                                    DistanceStorage storage) {
  Result<std::string> bytes =
      ReadFile(OpticsFileName(dataset_hash, metric, min_pts, storage));
  if (!bytes.ok()) return ClassifyMiss(bytes.status());
  Result<OpticsResult> decoded = DecodeOpticsModel(
      std::move(bytes).value(), dataset_hash, metric, min_pts, storage);
  if (!decoded.ok()) return ClassifyMiss(decoded.status());
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

Status ArtifactStore::SaveOpticsModel(uint64_t dataset_hash, Metric metric,
                                      int min_pts, const OpticsResult& optics,
                                      DistanceStorage storage) {
  return WriteFileAtomic(
      OpticsFileName(dataset_hash, metric, min_pts, storage),
      EncodeOpticsModel(dataset_hash, metric, min_pts, optics, storage));
}

Result<std::vector<ArtifactFileInfo>> ArtifactStore::List() const {
  std::vector<ArtifactFileInfo> out;
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return out;  // lazily-born store: empty
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 5 || name.substr(name.size() - 5) != ".cvcp") continue;
    ArtifactFileInfo info;
    info.filename = name;
    info.bytes = entry.file_size();

    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    Result<uint32_t> kind = PeekBlockKind(bytes);
    if (kind.ok()) {
      info.kind = *kind;
      Result<BlockReader> reader = BlockReader::Open(std::move(bytes), *kind);
      info.valid = reader.ok();
      if (!reader.ok()) {
        info.detail = reader.status().ToString();
      } else {
        DescribeArtifact(&*reader, &info);
      }
    } else {
      info.detail = kind.status().ToString();
    }
    out.push_back(std::move(info));
  }
  if (ec) {
    return Status::Internal(Format("cannot list %s: %s", directory_.c_str(),
                                   ec.message().c_str()));
  }
  std::sort(out.begin(), out.end(),
            [](const ArtifactFileInfo& a, const ArtifactFileInfo& b) {
              return a.filename < b.filename;
            });
  return out;
}

Result<size_t> ArtifactStore::Purge() {
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return size_t{0};
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool artifact =
        name.size() >= 5 && name.substr(name.size() - 5) == ".cvcp";
    const bool leftover_temp = name.find(".tmp.") != std::string::npos;
    if (artifact || leftover_temp) doomed.push_back(entry.path());
  }
  if (ec) {
    return Status::Internal(Format("cannot list %s: %s", directory_.c_str(),
                                   ec.message().c_str()));
  }
  size_t removed = 0;
  for (const fs::path& path : doomed) {
    if (fs::remove(path, ec)) ++removed;
  }
  return removed;
}

Result<uint64_t> ArtifactStore::SweepOrphanTemps() {
  CVCP_ASSIGN_OR_RETURN(uint64_t removed, RemoveOrphanTempFiles(directory_));
  temps_swept_.fetch_add(removed, std::memory_order_relaxed);
  return removed;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  Stats out;
  out.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  out.disk_misses = disk_misses_.load(std::memory_order_relaxed);
  out.corrupt_misses = corrupt_misses_.load(std::memory_order_relaxed);
  out.version_misses = version_misses_.load(std::memory_order_relaxed);
  out.writes = writes_.load(std::memory_order_relaxed);
  out.write_errors = write_errors_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.temps_swept = temps_swept_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cvcp
