#include "core/dataset_cache.h"

#include <chrono>
#include <limits>
#include <string>

#include "common/strings.h"

namespace cvcp {

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t DistanceCharge(const DistanceMatrix& dm) {
  return dm.MemoryBytes() + sizeof(DistanceMatrix);
}

/// "-f32" on every float32-mode memory key keeps the two storage modes
/// in disjoint key spaces within one shared LRU.
const char* StorageKeySuffix(DistanceStorage storage) {
  return storage == DistanceStorage::kF32 ? "-f32" : "";
}

size_t ModelCharge(const FoscOpticsModel& model) {
  // order + reachability + core_distance, plus a per-point estimate for
  // the dendrogram's nodes (exact size is private to Dendrogram; the
  // charge only has to be the right order of magnitude for eviction).
  const size_t n = model.optics.order.size();
  return n * 3 * sizeof(double) + n * 80 + sizeof(FoscOpticsModel);
}

}  // namespace

DatasetCache::DatasetCache(const Matrix& points, DatasetCacheTiers tiers)
    : points_(&points),
      content_hash_(HashMatrixContent(points)),
      memory_(tiers.memory),
      store_(tiers.store),
      storage_(tiers.storage) {
  if (memory_ == nullptr) {
    // Private unbounded tier: the original per-dataset memo semantics.
    owned_memory_ = std::make_unique<ShardedLruCache>(
        std::numeric_limits<size_t>::max(), /*num_shards=*/4);
    memory_ = owned_memory_.get();
  }
}

std::string DatasetCache::DistanceKey(Metric metric) const {
  return Format("%016llx-m%d-dist%s",
                static_cast<unsigned long long>(content_hash_),
                static_cast<int>(metric), StorageKeySuffix(storage_));
}

std::string DatasetCache::ModelKey(Metric metric, int min_pts) const {
  return Format("%016llx-m%d-mp%d-model%s",
                static_cast<unsigned long long>(content_hash_),
                static_cast<int>(metric), min_pts,
                StorageKeySuffix(storage_));
}

std::shared_ptr<const DistanceMatrix> DatasetCache::Distances(
    Metric metric, const ExecutionContext& exec) {
  const std::string key = DistanceKey(metric);
  if (auto resident = memory_->LookupAs<DistanceMatrix>(key)) {
    distance_hits_.fetch_add(1, std::memory_order_relaxed);
    return resident;
  }
  // Key not resident: resolve without holding any lock (the build may fan
  // out on the pool) and without ever waiting on another thread's
  // in-flight resolution — see the deadlock rationale in the header.
  // First publisher wins; a racing duplicate is bitwise-identical and
  // discarded.
  if (store_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    Result<DistanceMatrix> loaded =
        store_->LoadDistances(content_hash_, metric, storage_);
    if (loaded.ok()) {
      auto value = std::make_shared<const DistanceMatrix>(
          std::move(loaded).value());
      const size_t charge = DistanceCharge(*value);
      auto published = std::static_pointer_cast<const DistanceMatrix>(
          memory_->InsertOrGet(key, value, charge));
      const double ms = MsSince(start);
      distance_loads_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(&mu_);
      distance_load_ms_ += ms;
      return published;
    }
    // Any load failure (cold key, corruption, version skew) was counted
    // by the store; fall through to compute.
  }
  const auto start = std::chrono::steady_clock::now();
  auto built = std::make_shared<const DistanceMatrix>(
      DistanceMatrix::Compute(*points_, metric, exec, storage_));
  const double ms = MsSince(start);
  const size_t charge = DistanceCharge(*built);
  auto published = std::static_pointer_cast<const DistanceMatrix>(
      memory_->InsertOrGet(key, built, charge));
  distance_builds_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    distance_build_ms_ += ms;
  }
  // Persist only from the winning publisher, so racing builders do not
  // queue redundant (byte-identical) writes.
  if (store_ != nullptr && published == built) {
    store_->SaveDistances(content_hash_, metric, *published);
  }
  return published;
}

Result<std::shared_ptr<const FoscOpticsModel>> DatasetCache::FoscModel(
    Metric metric, int min_pts, const ExecutionContext& exec) {
  const std::string key = ModelKey(metric, min_pts);
  if (auto resident = memory_->LookupAs<FoscOpticsModel>(key)) {
    model_hits_.fetch_add(1, std::memory_order_relaxed);
    return ModelPtr(resident);
  }
  const std::pair<int, int> error_key{static_cast<int>(metric), min_pts};
  {
    MutexLock lock(&mu_);
    auto it = model_errors_memo_.find(error_key);
    if (it != model_errors_memo_.end()) {
      model_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (store_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    Result<OpticsResult> loaded =
        store_->LoadOpticsModel(content_hash_, metric, min_pts, storage_);
    if (loaded.ok()) {
      auto model = std::make_shared<FoscOpticsModel>();
      model->optics = std::move(loaded).value();
      // The dendrogram is a deterministic pure function of the OPTICS
      // result, so rebuilding it here reproduces the computed-path bytes.
      model->dendrogram = Dendrogram::FromReachability(model->optics);
      ModelPtr value(std::move(model));
      auto published = std::static_pointer_cast<const FoscOpticsModel>(
          memory_->InsertOrGet(key, value, ModelCharge(*value)));
      const double ms = MsSince(start);
      model_loads_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(&mu_);
      model_load_ms_ += ms;
      return ModelPtr(published);
    }
  }
  // The distance build is *not* part of the model wall time: it is shared
  // by every param and reported as its own stage.
  const std::shared_ptr<const DistanceMatrix> distances =
      Distances(metric, exec);
  const auto start = std::chrono::steady_clock::now();
  OpticsConfig config;
  config.min_pts = min_pts;
  config.metric = metric;
  Result<OpticsResult> optics = RunOptics(*distances, config);
  if (!optics.ok()) {
    model_errors_.fetch_add(1, std::memory_order_relaxed);
    const double ms = MsSince(start);
    MutexLock lock(&mu_);
    model_build_ms_ += ms;
    // First publisher wins for errors too (identical statuses anyway).
    auto [it, inserted] =
        model_errors_memo_.emplace(error_key, optics.status());
    return it->second;
  }
  auto model = std::make_shared<FoscOpticsModel>();
  model->optics = std::move(optics).value();
  model->dendrogram = Dendrogram::FromReachability(model->optics);
  ModelPtr built(std::move(model));
  const double ms = MsSince(start);
  auto published = std::static_pointer_cast<const FoscOpticsModel>(
      memory_->InsertOrGet(key, built, ModelCharge(*built)));
  model_builds_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    model_build_ms_ += ms;
  }
  if (store_ != nullptr && published == built) {
    store_->SaveOpticsModel(content_hash_, metric, min_pts,
                            published->optics, storage_);
  }
  return ModelPtr(published);
}

void DatasetCache::Prewarm(Metric metric, std::span<const int> min_pts_grid,
                           const ExecutionContext& exec) {
  Distances(metric, exec);
  // Grid models are independent; build them on the pool. Each lane runs
  // serially inside (the distance matrix already exists), so nested
  // parallelism cannot oversubscribe. Only the thread budget drops to 1;
  // the rest of the context passes through unchanged.
  ExecutionContext serial = exec;
  serial.threads = 1;
  ParallelFor(exec, min_pts_grid.size(), [&](size_t i) {
    FoscModel(metric, min_pts_grid[i], serial);
  });
}

DatasetCache::Stats DatasetCache::stats() const {
  Stats out;
  out.distance_builds = distance_builds_.load(std::memory_order_relaxed);
  out.distance_loads = distance_loads_.load(std::memory_order_relaxed);
  out.distance_hits = distance_hits_.load(std::memory_order_relaxed);
  out.model_builds = model_builds_.load(std::memory_order_relaxed);
  out.model_loads = model_loads_.load(std::memory_order_relaxed);
  out.model_hits = model_hits_.load(std::memory_order_relaxed);
  out.model_errors = model_errors_.load(std::memory_order_relaxed);
  MutexLock lock(&mu_);
  out.distance_build_ms = distance_build_ms_;
  out.distance_load_ms = distance_load_ms_;
  out.model_build_ms = model_build_ms_;
  out.model_load_ms = model_load_ms_;
  return out;
}

DatasetCachePool::DatasetCachePool(size_t memory_capacity_bytes,
                                   ArtifactStore* store,
                                   DistanceStorage storage)
    : memory_(memory_capacity_bytes), store_(store), storage_(storage) {}

DatasetCache* DatasetCachePool::For(const Matrix& points) {
  MutexLock lock(&mu_);
  auto it = caches_.find(&points);
  if (it == caches_.end()) {
    it = caches_
             .emplace(&points, std::make_unique<DatasetCache>(
                                   points, DatasetCacheTiers{
                                               &memory_, store_, storage_}))
             .first;
  }
  return it->second.get();
}

DatasetCache::Stats DatasetCachePool::AggregateStats() const {
  DatasetCache::Stats out;
  MutexLock lock(&mu_);
  for (const auto& [points, cache] : caches_) {
    const DatasetCache::Stats s = cache->stats();
    out.distance_builds += s.distance_builds;
    out.distance_loads += s.distance_loads;
    out.distance_hits += s.distance_hits;
    out.model_builds += s.model_builds;
    out.model_loads += s.model_loads;
    out.model_hits += s.model_hits;
    out.model_errors += s.model_errors;
    out.distance_build_ms += s.distance_build_ms;
    out.distance_load_ms += s.distance_load_ms;
    out.model_build_ms += s.model_build_ms;
    out.model_load_ms += s.model_load_ms;
  }
  return out;
}

}  // namespace cvcp
