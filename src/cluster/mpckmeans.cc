#include "cluster/mpckmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kmeans.h"
#include "common/distance.h"
#include "common/distance_kernels.h"
#include "common/strings.h"
#include "constraints/transitive_closure.h"

namespace cvcp {

namespace {

constexpr double kMinWeight = 1e-9;
constexpr double kMaxWeight = 1e9;

/// One endpoint's view of a must-link: the partner, and the must-link's
/// slot (its index in `Adjacency::must_links`), which picks its row of
/// MpckState's must-link distance table. Violation weights are per type
/// (`MpckMeansConfig`), so they are not stored per pair.
struct Pair {
  size_t other;
  size_t slot;
};

/// Constraint adjacency: for each object, its must-link and cannot-link
/// partners, plus every must-link by slot.
struct Adjacency {
  std::vector<std::vector<Pair>> must;
  std::vector<std::vector<size_t>> cannot;
  std::vector<Constraint> must_links;
};

Adjacency BuildAdjacency(const ConstraintSet& constraints, size_t n) {
  Adjacency adj;
  adj.must.resize(n);
  adj.cannot.resize(n);
  for (const Constraint& c : constraints.all()) {
    if (c.type == ConstraintType::kMustLink) {
      const size_t slot = adj.must_links.size();
      adj.must[c.a].push_back({c.b, slot});
      adj.must[c.b].push_back({c.a, slot});
      adj.must_links.push_back(c);
    } else {
      adj.cannot[c.a].push_back(c.b);
      adj.cannot[c.b].push_back(c.a);
    }
  }
  return adj;
}

/// Per-dimension squared data range: the separable stand-in for the
/// "maximally separated pair" in the cannot-link penalty.
std::vector<double> SquaredRanges(const Matrix& points) {
  const size_t d = points.cols();
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < points.rows(); ++i) {
    auto row = points.Row(i);
    for (size_t m = 0; m < d; ++m) {
      lo[m] = std::min(lo[m], row[m]);
      hi[m] = std::max(hi[m], row[m]);
    }
  }
  std::vector<double> out(d);
  for (size_t m = 0; m < d; ++m) {
    const double r = hi[m] - lo[m];
    out[m] = r * r;
  }
  return out;
}

class MpckState {
 public:
  MpckState(const Matrix& points, const ConstraintSet& constraints,
            const MpckMeansConfig& config)
      : points_(points),
        config_(config),
        n_(points.rows()),
        d_(points.cols()),
        k_(static_cast<size_t>(config.k)),
        weighted_(GetDistanceKernels().weighted_squared_euclidean),
        adj_(BuildAdjacency(constraints, n_)),
        sq_range_(SquaredRanges(points)),
        centroids_(k_, d_),
        weights_(k_, d_, 1.0),
        log_det_(k_, 0.0),
        assignment_(n_, 0),
        point_dist_(n_ * k_),
        must_dist_(adj_.must_links.size() * k_) {
    RecomputeMaxSeparations();
  }

  void SetCentroids(Matrix init) {
    centroids_ = std::move(init);
    RefreshDistances();
  }

  double WeightedDist(size_t i, size_t j, size_t cluster) const {
    return weighted_(points_.Row(i).data(), points_.Row(j).data(),
                     weights_.Row(cluster).data(), d_);
  }

  /// Cannot-link penalty scale for a cluster: metric-weighted squared
  /// range. The value only changes when the metric weights do (the
  /// M-step), so it is cached per cluster by RecomputeMaxSeparations and
  /// this is an O(1) read inside the per-pair cannot-link loops instead of
  /// an O(d) sum per violated pair.
  double MaxSeparation(size_t cluster) const { return max_sep_[cluster]; }

  /// Cost of putting object i into cluster h given current assignments.
  double AssignmentCost(size_t i, size_t h) const {
    double cost = point_dist_[i * k_ + h] - log_det_[h];
    for (const Pair& p : adj_.must[i]) {
      const size_t lj = static_cast<size_t>(assignment_[p.other]);
      if (lj != h) {
        // Violated must-link: average of the penalty under both metrics.
        const double* f = &must_dist_[p.slot * k_];
        cost += config_.must_link_weight * 0.5 * (f[h] + f[lj]);
      }
    }
    for (size_t j : adj_.cannot[i]) {
      if (static_cast<size_t>(assignment_[j]) == h) {
        // Violated cannot-link: the closer the pair, the larger the penalty.
        const double f = WeightedDist(i, j, h);
        cost +=
            config_.cannot_link_weight * std::max(0.0, MaxSeparation(h) - f);
      }
    }
    return cost;
  }

  /// Greedy ICM assignment pass in the given order. Returns #changes.
  size_t AssignStep(const std::vector<size_t>& order) {
    size_t changes = 0;
    for (size_t i : order) {
      double best = std::numeric_limits<double>::infinity();
      size_t best_h = 0;
      for (size_t h = 0; h < k_; ++h) {
        const double c = AssignmentCost(i, h);
        if (c < best) {
          best = c;
          best_h = h;
        }
      }
      if (assignment_[i] != static_cast<int>(best_h)) {
        assignment_[i] = static_cast<int>(best_h);
        ++changes;
      }
    }
    return changes;
  }

  /// M-step: new centroids, then new metrics, then the distance tables
  /// for both.
  void MStep(Rng* rng) {
    UpdateCentroids(rng);
    UpdateMetrics();
    RefreshDistances();
  }

  /// Full objective at the current state.
  double Objective() const {
    double obj = 0.0;
    for (size_t i = 0; i < n_; ++i) {
      const size_t h = static_cast<size_t>(assignment_[i]);
      obj += point_dist_[i * k_ + h] - log_det_[h];
    }
    for (size_t i = 0; i < n_; ++i) {
      const size_t li = static_cast<size_t>(assignment_[i]);
      for (const Pair& p : adj_.must[i]) {
        if (i > p.other) continue;
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        if (li == lj) continue;
        const double* f = &must_dist_[p.slot * k_];
        obj += config_.must_link_weight * 0.5 * (f[li] + f[lj]);
      }
      for (size_t j : adj_.cannot[i]) {
        if (i > j) continue;
        if (static_cast<size_t>(assignment_[j]) != li) continue;
        const double f = WeightedDist(i, j, li);
        obj += config_.cannot_link_weight *
               std::max(0.0, MaxSeparation(li) - f);
      }
    }
    return obj;
  }

  const std::vector<int>& assignment() const { return assignment_; }
  const Matrix& centroids() const { return centroids_; }
  const Matrix& weights() const { return weights_; }
  size_t n() const { return n_; }

 private:
  /// Recomputes centroids; empty clusters are re-seeded at a random point.
  void UpdateCentroids(Rng* rng) {
    Matrix sums(k_, d_, 0.0);
    std::vector<size_t> counts(k_, 0);
    for (size_t i = 0; i < n_; ++i) {
      const size_t h = static_cast<size_t>(assignment_[i]);
      auto row = points_.Row(i);
      auto acc = sums.MutableRow(h);
      for (size_t m = 0; m < d_; ++m) acc[m] += row[m];
      ++counts[h];
    }
    for (size_t h = 0; h < k_; ++h) {
      if (counts[h] == 0) {
        centroids_.SetRow(h, points_.Row(rng->Index(n_)));
        continue;
      }
      auto acc = sums.MutableRow(h);
      for (size_t m = 0; m < d_; ++m) acc[m] /= static_cast<double>(counts[h]);
      centroids_.SetRow(h, sums.Row(h));
    }
  }

  /// Re-estimates diagonal metric weights from scatter + violation terms.
  void UpdateMetrics() {
    if (config_.metric_mode == MetricMode::kNone) return;

    // Per-cluster, per-dimension denominators.
    Matrix denom(k_, d_, 0.0);
    std::vector<double> counts(k_, 0.0);
    for (size_t i = 0; i < n_; ++i) {
      const size_t h = static_cast<size_t>(assignment_[i]);
      auto row = points_.Row(i);
      auto mu = centroids_.Row(h);
      auto acc = denom.MutableRow(h);
      for (size_t m = 0; m < d_; ++m) {
        const double diff = row[m] - mu[m];
        acc[m] += diff * diff;
      }
      counts[h] += 1.0;
    }
    // Violation contributions (each constraint visited once via i < other).
    for (size_t i = 0; i < n_; ++i) {
      const size_t li = static_cast<size_t>(assignment_[i]);
      for (const Pair& p : adj_.must[i]) {
        if (i > p.other) continue;
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        if (li == lj) continue;
        auto xi = points_.Row(i);
        auto xj = points_.Row(p.other);
        for (size_t m = 0; m < d_; ++m) {
          const double diff = xi[m] - xj[m];
          const double contrib = config_.must_link_weight * 0.5 * diff * diff;
          denom.At(li, m) += 0.5 * contrib;
          denom.At(lj, m) += 0.5 * contrib;
        }
      }
      for (size_t j : adj_.cannot[i]) {
        if (i > j) continue;
        const size_t lj = static_cast<size_t>(assignment_[j]);
        if (li != lj) continue;
        auto xi = points_.Row(i);
        auto xj = points_.Row(j);
        for (size_t m = 0; m < d_; ++m) {
          const double diff = xi[m] - xj[m];
          denom.At(li, m) += config_.cannot_link_weight *
                             std::max(0.0, sq_range_[m] - diff * diff);
        }
      }
    }

    if (config_.metric_mode == MetricMode::kSingleDiagonal) {
      // Pool all clusters into one metric.
      std::vector<double> pooled(d_, 0.0);
      double total = 0.0;
      for (size_t h = 0; h < k_; ++h) {
        auto row = denom.Row(h);
        for (size_t m = 0; m < d_; ++m) pooled[m] += row[m];
        total += counts[h];
      }
      for (size_t m = 0; m < d_; ++m) {
        const double w =
            std::clamp(total / std::max(pooled[m], kMinWeight), kMinWeight,
                       kMaxWeight);
        for (size_t h = 0; h < k_; ++h) weights_.At(h, m) = w;
      }
    } else {
      for (size_t h = 0; h < k_; ++h) {
        auto dn = denom.Row(h);
        for (size_t m = 0; m < d_; ++m) {
          weights_.At(h, m) =
              std::clamp(counts[h] / std::max(dn[m], kMinWeight), kMinWeight,
                         kMaxWeight);
        }
      }
    }
    for (size_t h = 0; h < k_; ++h) {
      double ld = 0.0;
      auto w = weights_.Row(h);
      for (size_t m = 0; m < d_; ++m) ld += std::log(w[m]);
      log_det_[h] = ld;
    }
    RecomputeMaxSeparations();
  }

  /// Refills both distance tables from the current centroids and metric
  /// weights: point_dist_[i*k + h] = d_h(x_i, c_h), and must_dist_[s*k + h]
  /// = d_h(x_a, x_b) for must-link s = (a, b). Runs once the initial
  /// centroids are set and after every M-step, in every MetricMode (the
  /// centroids move even when the metric does not), so the assign step
  /// and Objective read values instead of calling the kernel. Each value
  /// is the kernel on the operands the on-demand call would pass; a
  /// must-link's value serves both endpoints because fl(a-b) = -fl(b-a)
  /// makes the kernel bitwise symmetric.
  void RefreshDistances() {
    for (size_t i = 0; i < n_; ++i) {
      const double* x = points_.Row(i).data();
      for (size_t h = 0; h < k_; ++h) {
        point_dist_[i * k_ + h] =
            weighted_(x, centroids_.Row(h).data(), weights_.Row(h).data(), d_);
      }
    }
    for (size_t s = 0; s < adj_.must_links.size(); ++s) {
      const Constraint& c = adj_.must_links[s];
      for (size_t h = 0; h < k_; ++h) {
        must_dist_[s * k_ + h] = WeightedDist(c.a, c.b, h);
      }
    }
  }

  /// Refreshes the cached per-cluster MaxSeparation values. Same loop,
  /// same summation order as the old per-call computation, so the cached
  /// doubles are bitwise-identical to computing on demand; it just runs
  /// once per M-step instead of once per violated cannot-link pair.
  void RecomputeMaxSeparations() {
    max_sep_.assign(k_, 0.0);
    for (size_t h = 0; h < k_; ++h) {
      double s = 0.0;
      auto w = weights_.Row(h);
      for (size_t m = 0; m < d_; ++m) s += w[m] * sq_range_[m];
      max_sep_[h] = s;
    }
  }

  const Matrix& points_;
  const MpckMeansConfig& config_;
  size_t n_, d_, k_;
  /// The dispatched weighted kernel, resolved once per run.
  double (*weighted_)(const double* a, const double* b, const double* w,
                      size_t n);
  Adjacency adj_;
  std::vector<double> sq_range_;
  Matrix centroids_;
  Matrix weights_;
  std::vector<double> log_det_;
  std::vector<double> max_sep_;  ///< cached MaxSeparation per cluster
  std::vector<int> assignment_;
  std::vector<double> point_dist_;  ///< n x k, see RefreshDistances
  std::vector<double> must_dist_;   ///< |ML| x k, see RefreshDistances
};

/// Neighborhood-based initialization: centroids of the lambda largest
/// must-link neighborhoods, topped up by D^2-weighted sampling.
Result<Matrix> NeighborhoodInit(const Matrix& points,
                                const ConstraintSet& constraints, int k,
                                Rng* rng) {
  CVCP_ASSIGN_OR_RETURN(ConstraintComponents comps,
                        BuildConstraintComponents(constraints));
  // Only multi-object components are informative neighborhoods.
  std::vector<const std::vector<size_t>*> hoods;
  for (const auto& members : comps.components) {
    if (members.size() >= 2) hoods.push_back(&members);
  }
  std::sort(hoods.begin(), hoods.end(),
            [](const auto* a, const auto* b) { return a->size() > b->size(); });

  const size_t uk = static_cast<size_t>(k);
  Matrix centroids(uk, points.cols());
  size_t filled = std::min(uk, hoods.size());
  for (size_t h = 0; h < filled; ++h) {
    std::vector<double> mean = points.ColumnMeans(*hoods[h]);
    centroids.SetRow(h, mean);
  }
  if (filled < uk) {
    // Top up with D^2 sampling relative to the centroids chosen so far.
    const size_t n = points.rows();
    std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
    if (filled == 0) {
      centroids.SetRow(0, points.Row(rng->Index(n)));
      filled = 1;
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t h = 0; h < filled; ++h) {
        const double d2 =
            SquaredEuclideanDistance(points.Row(i), centroids.Row(h));
        min_d2[i] = std::min(min_d2[i], d2);
      }
    }
    while (filled < uk) {
      double total = 0.0;
      for (double v : min_d2) total += v;
      size_t chosen;
      if (total <= 0.0) {
        chosen = rng->Index(n);
      } else {
        double r = rng->NextDouble() * total;
        chosen = n - 1;
        for (size_t i = 0; i < n; ++i) {
          r -= min_d2[i];
          if (r <= 0.0) {
            chosen = i;
            break;
          }
        }
      }
      centroids.SetRow(filled, points.Row(chosen));
      for (size_t i = 0; i < n; ++i) {
        const double d2 =
            SquaredEuclideanDistance(points.Row(i), points.Row(chosen));
        min_d2[i] = std::min(min_d2[i], d2);
      }
      ++filled;
    }
  }
  return centroids;
}

}  // namespace

Result<MpckMeansResult> RunMpckMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const MpckMeansConfig& config, Rng* rng) {
  if (config.k < 1) {
    return Status::InvalidArgument(Format("k must be >= 1, got %d", config.k));
  }
  if (static_cast<size_t>(config.k) > points.rows()) {
    return Status::InvalidArgument(
        Format("k=%d exceeds number of points (%zu)", config.k,
               points.rows()));
  }
  if (config.max_iters < 1) {
    return Status::InvalidArgument("max_iters must be >= 1");
  }
  for (const Constraint& c : constraints.all()) {
    if (c.a >= points.rows() || c.b >= points.rows()) {
      return Status::InvalidArgument(
          Format("constraint %s references object beyond dataset size %zu",
                 ConstraintToString(c).c_str(), points.rows()));
    }
  }

  MpckState state(points, constraints, config);
  if (config.neighborhood_init) {
    CVCP_ASSIGN_OR_RETURN(Matrix init,
                          NeighborhoodInit(points, constraints, config.k, rng));
    state.SetCentroids(std::move(init));
  } else {
    state.SetCentroids(KMeansPlusPlusInit(points, config.k, rng));
  }

  double prev_obj = std::numeric_limits<double>::infinity();
  double obj = prev_obj;
  int iter = 0;
  bool converged = false;
  for (iter = 0; iter < config.max_iters; ++iter) {
    std::vector<size_t> order = rng->Permutation(state.n());
    const size_t changes = state.AssignStep(order);
    state.MStep(rng);
    obj = state.Objective();
    const bool obj_converged =
        std::isfinite(prev_obj) &&
        std::fabs(prev_obj - obj) <=
            config.tol * std::max(std::fabs(prev_obj), 1.0);
    if (changes == 0 || obj_converged) {
      converged = true;
      ++iter;
      break;
    }
    prev_obj = obj;
  }

  MpckMeansResult result;
  result.clustering = Clustering(state.assignment());
  result.centroids = state.centroids();
  result.metric_weights = state.weights();
  result.objective = obj;
  result.iterations = iter;
  result.converged = converged;
  return result;
}

}  // namespace cvcp
