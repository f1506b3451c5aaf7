#ifndef CVCP_CLUSTER_DENDROGRAM_H_
#define CVCP_CLUSTER_DENDROGRAM_H_

/// \file
/// OPTICSDend: converts an OPTICS reachability plot into a dendrogram
/// (Sander et al., PAKDD 2003 / Campello et al., DMKD 2013). The
/// reachability plot is recursively split at its highest reachability
/// value: the split position separates the plot into a left and a right
/// subtree, and the reachability value becomes the merge height. Leaves are
/// single objects. The resulting hierarchy is what FOSC extracts a flat
/// semi-supervised clustering from.

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/optics.h"
#include "common/check.h"

namespace cvcp {

/// One dendrogram node. Leaves are object singletons; internal nodes merge
/// exactly two children at `height`. Node ids: leaves occupy [0, n), in
/// *reachability-plot order* (leaf i covers plot position i); internal nodes
/// occupy [n, 2n-1) in pre-order, so an internal node's id is below its
/// internal children's.
struct DendrogramNode {
  int left = -1;    ///< child node id, -1 for leaves
  int right = -1;   ///< child node id, -1 for leaves
  int parent = -1;  ///< -1 for the root
  double height = 0.0;
  size_t begin = 0;  ///< first covered plot position
  size_t end = 0;    ///< one past the last covered plot position

  size_t size() const { return end - begin; }
  bool is_leaf() const { return left < 0; }
};

/// Binary hierarchy over the objects of a reachability plot.
class Dendrogram {
 public:
  /// Builds the dendrogram for an OPTICS result (n >= 1 objects).
  static Dendrogram FromReachability(const OpticsResult& optics);

  size_t num_objects() const { return n_; }
  size_t num_nodes() const { return nodes_.size(); }
  int root() const { return root_; }

  const DendrogramNode& node(int id) const {
    CVCP_DCHECK_LT(static_cast<size_t>(id), nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }

  /// Object ids (original dataset indices) covered by a node, i.e. the
  /// OPTICS-order slice [begin, end).
  std::span<const size_t> MembersOf(int id) const {
    const DendrogramNode& nd = node(id);
    return std::span<const size_t>(order_).subspan(nd.begin, nd.size());
  }

  /// The object id of a leaf node.
  size_t LeafObject(int leaf_id) const {
    CVCP_DCHECK(node(leaf_id).is_leaf());
    return order_[node(leaf_id).begin];
  }

  /// Cuts the tree at `height`: objects grouped by the maximal nodes whose
  /// merge height is <= the cut. Returns cluster ids per object (no noise).
  /// Mainly for tests and examples; FOSC does the real extraction.
  std::vector<int> CutAt(double height) const;

 private:
  size_t n_ = 0;
  int root_ = -1;
  std::vector<size_t> order_;          ///< plot position -> object id
  std::vector<DendrogramNode> nodes_;  ///< leaves [0,n), internal [n, 2n-1)
};

}  // namespace cvcp

#endif  // CVCP_CLUSTER_DENDROGRAM_H_
