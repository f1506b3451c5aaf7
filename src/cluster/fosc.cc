#include "cluster/fosc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace cvcp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Replaces infinite merge heights (component boundaries in the
/// reachability plot) by a finite cap so lifetime stability stays finite.
double FiniteHeightCap(const Dendrogram& dg) {
  double max_finite = 0.0;
  for (size_t id = 0; id < dg.num_nodes(); ++id) {
    const double h = dg.node(static_cast<int>(id)).height;
    if (std::isfinite(h)) max_finite = std::max(max_finite, h);
  }
  return max_finite > 0.0 ? 1.5 * max_finite : 1.0;
}

/// Lowest common ancestor of two leaves in O(1). Every internal node splits
/// its plot span at its right child's `begin`, and each position in
/// [1, n) is the split of exactly one node, so the LCA of leaves pa < pb is
/// the node splitting in (pa, pb] that is nearest the root. Internal ids
/// are assigned pre-order (ancestors first), so that is the smallest split
/// owner id over (pa, pb]: a range minimum, answered by a sparse table.
class LcaIndex {
 public:
  explicit LcaIndex(const Dendrogram& dg) : n_(dg.num_objects()) {
    // Level k holds the minimum owner over positions [i, i + 2^k).
    const size_t levels = n_ > 1 ? std::bit_width(n_ - 1) : 0;
    min_owner_.assign(levels * n_, 0);
    for (size_t id = n_; id < dg.num_nodes(); ++id) {
      const int right = dg.node(static_cast<int>(id)).right;
      min_owner_[dg.node(right).begin] = static_cast<int>(id);
    }
    for (size_t k = 1; k < levels; ++k) {
      const int* below = &min_owner_[(k - 1) * n_];
      int* level = &min_owner_[k * n_];
      const size_t half = size_t{1} << (k - 1);
      for (size_t i = 0; i + half < n_; ++i) {
        level[i] = std::min(below[i], below[i + half]);
      }
    }
  }

  /// The LCA node id of the leaves at plot positions pa != pb.
  size_t Of(size_t pa, size_t pb) const {
    const size_t lo = std::min(pa, pb) + 1;
    const size_t hi = std::max(pa, pb) + 1;  // one past the range
    const size_t k = std::bit_width(hi - lo) - 1;
    const int* level = &min_owner_[k * n_];
    return static_cast<size_t>(
        std::min(level[lo], level[hi - (size_t{1} << k)]));
  }

 private:
  size_t n_;
  std::vector<int> min_owner_;  ///< `levels` rows of n entries
};

}  // namespace

Result<FoscResult> ExtractClusters(const Dendrogram& dendrogram,
                                   const ConstraintSet& constraints,
                                   const FoscConfig& config) {
  if (config.min_cluster_size < 1) {
    return Status::InvalidArgument("min_cluster_size must be >= 1");
  }
  if (config.alpha < 0.0 || config.alpha > 1.0) {
    return Status::InvalidArgument(
        Format("alpha must be in [0, 1], got %f", config.alpha));
  }
  const size_t n = dendrogram.num_objects();
  const size_t num_nodes = dendrogram.num_nodes();

  // Object id -> plot position (leaf node id).
  std::vector<size_t> pos_of(n, SIZE_MAX);
  for (size_t leaf = 0; leaf < n; ++leaf) {
    const size_t obj = dendrogram.LeafObject(static_cast<int>(leaf));
    if (obj >= n || pos_of[obj] != SIZE_MAX) {
      return Status::Internal("dendrogram leaf order is not a permutation");
    }
    pos_of[obj] = leaf;
  }

  // Bottom-up order: leaves (ids [0, n)) first — they have no children —
  // then internal nodes from high id to low. Internal nodes are created
  // pre-order, so every internal child has a larger id than its parent.
  std::vector<size_t> bottom_up;
  bottom_up.reserve(num_nodes);
  for (size_t id = 0; id < n; ++id) bottom_up.push_back(id);
  for (size_t id = num_nodes; id-- > n;) bottom_up.push_back(id);

  // --- Constraint objective J per node, from point masses. ---
  // J(v) = must-links with both endpoints under v, plus 1/2 per cannot-link
  // with exactly one endpoint under v. Both endpoints lie under v iff v
  // contains their lowest common ancestor (LCA), so the masses
  //   must-link:   +1 at the LCA,
  //   cannot-link: +1/2 at each endpoint leaf and -1 at the LCA
  // summed over each subtree give J. Every term is a multiple of 1/2, so
  // the double sums are exact in any order.
  const LcaIndex lca(dendrogram);
  std::vector<double> j_value(num_nodes, 0.0);
  for (const Constraint& c : constraints.all()) {
    if (c.a >= n || c.b >= n) {
      return Status::InvalidArgument(
          Format("constraint %s outside dendrogram of %zu objects",
                 ConstraintToString(c).c_str(), n));
    }
    const size_t pa = pos_of[c.a];
    const size_t pb = pos_of[c.b];
    const size_t ancestor = lca.Of(pa, pb);
    if (c.type == ConstraintType::kMustLink) {
      j_value[ancestor] += 1.0;
    } else {
      j_value[pa] += 0.5;
      j_value[pb] += 0.5;
      j_value[ancestor] -= 1.0;
    }
  }
  for (size_t id : bottom_up) {
    const int parent = dendrogram.node(static_cast<int>(id)).parent;
    if (parent >= 0) j_value[static_cast<size_t>(parent)] += j_value[id];
  }

  // --- Stability (lifetime) per node. ---
  std::vector<double> stability(num_nodes, 0.0);
  const double cap = FiniteHeightCap(dendrogram);
  for (size_t id = 0; id < num_nodes; ++id) {
    const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
    if (nd.parent < 0) continue;  // root has no lifetime
    double h_parent = dendrogram.node(nd.parent).height;
    double h_node = nd.is_leaf() ? 0.0 : nd.height;
    if (!std::isfinite(h_parent)) h_parent = cap;
    if (!std::isfinite(h_node)) h_node = cap;
    stability[id] =
        static_cast<double>(nd.size()) * std::max(0.0, h_parent - h_node);
  }

  const double j_scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());

  auto eligible = [&](int id) {
    const DendrogramNode& nd = dendrogram.node(id);
    if (nd.size() < config.min_cluster_size) return false;
    if (id == dendrogram.root() && !config.allow_root) return false;
    return true;
  };

  // Post-order DP. value[id] = best achievable in the subtree; selection
  // rule (incl. tie handling) is documented at the sweep below.
  std::vector<double> best(num_nodes, 0.0);
  std::vector<bool> take(num_nodes, false);

  // Normalize stability by the best unsupervised selection so alpha mixes
  // two [0, 1]-scale terms. First pass computes that normalizer.
  double stability_norm = 1.0;
  if (config.alpha < 1.0) {
    std::vector<double> sbest(num_nodes, 0.0);
    for (size_t id : bottom_up) {
      const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
      const double children = nd.is_leaf()
                                  ? 0.0
                                  : sbest[static_cast<size_t>(nd.left)] +
                                        sbest[static_cast<size_t>(nd.right)];
      const double own =
          eligible(static_cast<int>(id)) ? stability[id] : -kInf;
      sbest[id] = std::max(children, own);
    }
    if (sbest[static_cast<size_t>(dendrogram.root())] > 0.0) {
      stability_norm = sbest[static_cast<size_t>(dendrogram.root())];
    }
  }

  auto blended = [&](size_t id) {
    const double j_term = j_value[id] / j_scale;
    const double s_term = stability[id] / stability_norm;
    return config.alpha * j_term + (1.0 - config.alpha) * s_term;
  };

  // Tie-break: a node with the same value as its children's best selection
  // wins if it carries actual evidence (own > 0). Objects that are not
  // constraint endpoints contribute nothing to J, so without this rule the
  // DP would select the *minimal* subtrees containing the endpoints and
  // leave the rest of every natural cluster as noise; with it, selection
  // climbs to the maximal subtree whose merge does not lose objective value
  // (i.e. up to the first merge that traps a cannot-link or crosses
  // evidence boundaries). Zero-evidence subtrees still stay noise.
  constexpr double kTieEps = 1e-9;
  for (size_t id : bottom_up) {
    const DendrogramNode& nd = dendrogram.node(static_cast<int>(id));
    const double children = nd.is_leaf()
                                ? 0.0
                                : best[static_cast<size_t>(nd.left)] +
                                      best[static_cast<size_t>(nd.right)];
    double own = -kInf;
    if (eligible(static_cast<int>(id))) own = blended(id);
    const bool take_node =
        own > children + kTieEps ||
        (own > kTieEps && own >= children - kTieEps);
    if (take_node) {
      best[id] = std::max(own, children);
      take[id] = true;
    } else {
      best[id] = children;
      take[id] = false;
    }
  }

  // Backtrack the selection from the root.
  FoscResult result;
  std::vector<int> assignment(n, kNoise);
  std::vector<int> stack = {dendrogram.root()};
  double selected_j = 0.0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (take[static_cast<size_t>(id)]) {
      const int cluster = static_cast<int>(result.selected_nodes.size());
      result.selected_nodes.push_back(id);
      selected_j += j_value[static_cast<size_t>(id)];
      for (size_t obj : dendrogram.MembersOf(id)) {
        assignment[obj] = cluster;
      }
      continue;
    }
    const DendrogramNode& nd = dendrogram.node(id);
    if (!nd.is_leaf()) {
      stack.push_back(nd.right);
      stack.push_back(nd.left);
    }
  }

  result.clustering = Clustering(std::move(assignment));
  result.objective = best[static_cast<size_t>(dendrogram.root())];
  result.constraint_satisfaction =
      constraints.empty()
          ? std::numeric_limits<double>::quiet_NaN()
          : selected_j / static_cast<double>(constraints.size());
  return result;
}

}  // namespace cvcp
