#ifndef CVCP_CORE_ARTIFACT_STORE_H_
#define CVCP_CORE_ARTIFACT_STORE_H_

/// \file
/// The persistent (disk) tier of the compute-cache stack: serialized
/// supervision-independent artifacts — condensed distance matrices and
/// OPTICS models — in one block-format file each
/// (common/block_format.h), so bench invocations and separate processes
/// warm-start each other instead of recomputing identical geometry.
///
/// Key scheme: every artifact is addressed by
///
///   dataset content hash (Hash64 over dims + raw point bytes)
///   × metric × artifact kind [× MinPts]
///
/// and the key is both the filename (`<hash>-<metric>-...cvcp`) and
/// embedded in the payload, so a renamed or cross-linked file can never
/// satisfy the wrong key. The format version lives in every block
/// header; a version bump turns the whole store into misses, never into
/// misreads.
///
/// Write discipline: serialize to `<name>.tmp.<pid>.<seq>`, then
/// atomically rename over the final name. Readers therefore only ever
/// see complete files; concurrent same-key writers (racing threads or
/// processes) last-write-win with bitwise-identical bytes, because every
/// artifact is a deterministic function of its key.
///
/// Read discipline: *any* defect — missing file, short read, bad magic,
/// CRC mismatch, version skew, key mismatch — is classified, counted,
/// and surfaced as a non-OK Status that callers treat as a cache miss
/// and fall back to recompute. The store never returns partially-decoded
/// or stale bytes.
///
/// Determinism: encoders store doubles as IEEE-754 bit patterns, so a
/// loaded artifact is bit-for-bit the artifact that was saved, and every
/// report computed from it is byte-identical to the computed-from-scratch
/// one (pinned by tests/store_determinism_test.cc).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/optics.h"
#include "common/distance.h"
#include "common/matrix.h"
#include "common/status.h"

namespace cvcp {

/// What a stored block encodes (the block header's `kind` field).
enum class ArtifactKind : uint32_t {
  kDistanceMatrix = 1,      ///< condensed distances, f64 payload
  kOpticsModel = 2,
  // 3 is retired (measured cell timings, no longer written). Never reuse
  // it: old store directories may still hold such files, which List
  // reports as "unknown" and Purge removes.
  kDistanceMatrixF32 = 4,   ///< condensed distances, f32 payload
};

/// Stable display name for a kind ("distances", "optics",
/// "distances-f32"; "unknown" for any other value).
const char* ArtifactKindName(ArtifactKind kind);

/// Content hash of a point matrix: dims + every coordinate's bit
/// pattern. Two datasets share artifacts iff they are bitwise the same
/// point set.
uint64_t HashMatrixContent(const Matrix& points);

/// Serializers (exposed for tests and tools; the store wraps them in
/// file IO). Encoded bytes are a sealed block; decoding validates the
/// frame and the embedded key fields.
std::string EncodeDistanceMatrix(uint64_t dataset_hash, Metric metric,
                                 const DistanceMatrix& matrix);
Result<DistanceMatrix> DecodeDistanceMatrix(std::string bytes,
                                            uint64_t dataset_hash,
                                            Metric metric);
/// float32-storage variant: a distinct block kind (kDistanceMatrixF32)
/// with an f32 payload. The f64 encoding above is untouched — mixed-mode
/// store directories can never serve one mode's bytes for the other
/// (distinct kind AND distinct filename).
std::string EncodeDistanceMatrix32(uint64_t dataset_hash, Metric metric,
                                   const DistanceMatrix& matrix);
Result<DistanceMatrix> DecodeDistanceMatrix32(std::string bytes,
                                              uint64_t dataset_hash,
                                              Metric metric);
/// Optics blocks share one kind for both storage modes; an f32-derived
/// model carries a trailing u32 marker record (=1) and an "-f32" filename,
/// while the f64 encoding stays byte-identical to what earlier versions
/// wrote (its decoder requires zero trailing records, so neither mode can
/// decode as the other).
std::string EncodeOpticsModel(uint64_t dataset_hash, Metric metric,
                              int min_pts, const OpticsResult& optics,
                              DistanceStorage storage = DistanceStorage::kF64);
Result<OpticsResult> DecodeOpticsModel(std::string bytes,
                                       uint64_t dataset_hash, Metric metric,
                                       int min_pts,
                                       DistanceStorage storage =
                                           DistanceStorage::kF64);

/// One file of a store directory, as seen by `List` (tools/store_inspect).
struct ArtifactFileInfo {
  std::string filename;
  uint64_t bytes = 0;
  /// Raw kind field (0 when the header is unreadable).
  uint32_t kind = 0;
  bool valid = false;   ///< full frame validation passed
  std::string detail;   ///< error text when !valid
  /// Distance storage mode decoded from the payload ("f64" or "f32";
  /// empty for kinds that carry no distances).
  std::string storage;
  /// Human-readable decoded key fields, e.g.
  /// "hash=41c3... metric=euc mp=005". Empty when the payload is
  /// undecodable.
  std::string decoded_key;
};

/// The disk tier. Thread-safe; one instance may be shared by every
/// dataset cache, trial lane, and process (cross-process coordination is
/// the filesystem's atomic rename).
///
/// Deliberately mutex-free: every mutable member is a std::atomic
/// counter (relaxed — counters feed stats, never control flow) and all
/// cross-thread coordination happens through the filesystem's atomic
/// rename, so there is nothing for a `GUARDED_BY` annotation to guard
/// and the class stays trivially deadlock-free under the
/// help-while-waiting scheduler. Keep it that way: a mutex added here
/// would be held across file IO on the compute hot path.
class ArtifactStore {
 public:
  /// Uses `directory` (created on first save) for all artifacts.
  explicit ArtifactStore(std::string directory);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  const std::string& directory() const { return directory_; }

  /// Loads the condensed distance matrix for (dataset, metric). Errors:
  /// kNotFound (cold key), kCorruption (damaged bytes, key mismatch),
  /// kFailedPrecondition (format-version skew) — all counted and all
  /// meaning "recompute".
  /// `storage` selects which of the two disjoint artifact families is
  /// addressed; the key (filename and block kind) differs per mode, so a
  /// mixed-mode directory never serves cross-mode bytes.
  Result<DistanceMatrix> LoadDistances(uint64_t dataset_hash, Metric metric,
                                       DistanceStorage storage =
                                           DistanceStorage::kF64);
  Status SaveDistances(uint64_t dataset_hash, Metric metric,
                       const DistanceMatrix& matrix);

  /// Loads / saves the supervision-independent OPTICS stage of a
  /// FOSC-OPTICSDend model. Only the OPTICS result is stored: the
  /// dendrogram is a deterministic pure function of it
  /// (Dendrogram::FromReachability), so the reader rebuilds it and the
  /// bytes stay minimal.
  Result<OpticsResult> LoadOpticsModel(uint64_t dataset_hash, Metric metric,
                                       int min_pts,
                                       DistanceStorage storage =
                                           DistanceStorage::kF64);
  Status SaveOpticsModel(uint64_t dataset_hash, Metric metric, int min_pts,
                         const OpticsResult& optics,
                         DistanceStorage storage = DistanceStorage::kF64);

  /// Every `*.cvcp` file in the directory with its validation outcome.
  /// An absent directory lists as empty (a store is born lazily).
  Result<std::vector<ArtifactFileInfo>> List() const;

  /// Deletes every `*.cvcp` file (and any leftover `*.tmp.*`); returns
  /// how many were removed.
  Result<size_t> Purge();

  /// Removes orphaned `*.tmp.*` files left by crashed writers; returns
  /// how many were removed (also counted under `temps_swept`). Only safe
  /// when no other process is writing to the directory — an in-flight
  /// tmp file is indistinguishable from an orphan. cvcp_serve owns its
  /// store directory and sweeps at Start; `store_inspect purge-tmp` is
  /// the operator's manual path.
  Result<uint64_t> SweepOrphanTemps();

  /// Read/write outcome counters. `disk_hits` are successful loads;
  /// every load failure increments exactly one miss counter.
  struct Stats {
    uint64_t disk_hits = 0;
    uint64_t disk_misses = 0;      ///< cold key (no file)
    uint64_t corrupt_misses = 0;   ///< CRC/framing damage or key mismatch
    uint64_t version_misses = 0;   ///< format-version skew
    uint64_t writes = 0;
    uint64_t write_errors = 0;
    uint64_t bytes_written = 0;
    uint64_t bytes_read = 0;
    uint64_t temps_swept = 0;      ///< orphans removed by SweepOrphanTemps
  };
  Stats stats() const;

 private:
  /// Increments the miss counter matching a load failure and passes the
  /// status through.
  Status ClassifyMiss(Status status);

  Result<std::string> ReadFile(const std::string& filename);
  Status WriteFileAtomic(const std::string& filename,
                         const std::string& bytes);

  std::string directory_;
  std::atomic<uint64_t> temp_seq_{0};

  std::atomic<uint64_t> disk_hits_{0};
  std::atomic<uint64_t> disk_misses_{0};
  std::atomic<uint64_t> corrupt_misses_{0};
  std::atomic<uint64_t> version_misses_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_errors_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> temps_swept_{0};
};

}  // namespace cvcp

#endif  // CVCP_CORE_ARTIFACT_STORE_H_
