#include "cluster/fosc.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/optics.h"
#include "common/rng.h"
#include "data/generators.h"
#include "eval/external_measures.h"

namespace cvcp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

OpticsResult FakePlot(std::vector<size_t> order, std::vector<double> reach) {
  OpticsResult r;
  r.order = std::move(order);
  r.reachability = std::move(reach);
  r.core_distance.assign(r.order.size(), 0.0);
  return r;
}

/// Two clear blobs in the plot: positions 0-2 and 3-5 separated by a big
/// jump. Objects in plot order are 0..5.
Dendrogram TwoBlobDendrogram() {
  return Dendrogram::FromReachability(
      FakePlot({0, 1, 2, 3, 4, 5}, {kInf, 1.0, 1.0, 10.0, 1.0, 1.0}));
}

TEST(FoscTest, ExtractsConstraintConsistentClusters) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(4, 5).ok());
  ASSERT_TRUE(constraints.AddCannotLink(2, 3).ok());
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  ASSERT_TRUE(result.ok());
  const Clustering& c = result->clustering;
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_TRUE(c.SameCluster(0, 2));
  EXPECT_TRUE(c.SameCluster(3, 4));
  EXPECT_FALSE(c.SameCluster(2, 3));
  EXPECT_NEAR(result->constraint_satisfaction, 1.0, 1e-12);
  EXPECT_EQ(result->selected_nodes.size(), 2u);
}

TEST(FoscTest, RootNeverSelectedByDefault) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // Only must-links across the two blobs: the root would satisfy them, but
  // it is excluded, so the best proper selection is chosen instead.
  ASSERT_TRUE(constraints.AddMustLink(0, 5).ok());
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  ASSERT_TRUE(result.ok());
  for (int id : result->selected_nodes) EXPECT_NE(id, dg.root());
}

TEST(FoscTest, AllowRootOptIn) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 5).ok());
  FoscConfig config;
  config.allow_root = true;
  auto result = ExtractClusters(dg, constraints, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->selected_nodes.size(), 1u);
  EXPECT_EQ(result->selected_nodes[0], dg.root());
  EXPECT_TRUE(result->clustering.SameCluster(0, 5));
}

TEST(FoscTest, UnselectedObjectsAreNoise) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // Constraints only inside the left blob: right blob earns nothing and
  // stays noise under the pure semi-supervised objective.
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clustering.IsNoise(0));
  EXPECT_TRUE(result->clustering.IsNoise(3));
  EXPECT_TRUE(result->clustering.IsNoise(4));
  EXPECT_TRUE(result->clustering.IsNoise(5));
}

TEST(FoscTest, MinClusterSizeFiltersSmallCandidates) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  FoscConfig config;
  config.min_cluster_size = 4;  // blobs have size 3 => nothing eligible
  auto result = ExtractClusters(dg, constraints, config);
  ASSERT_TRUE(result.ok());
  // Only nodes of size >= 4 are the top merge (5 or 6 objects) and root;
  // root excluded. The node covering positions {0..2,3} has size 4... in a
  // binary split of [inf,1,1,10,1,1] the root children have sizes 3 and 3,
  // so no eligible node exists and everything is noise.
  EXPECT_EQ(result->selected_nodes.size(), 0u);
  EXPECT_EQ(result->clustering.NumNoise(), 6u);
}

TEST(FoscTest, CannotLinkHalfCreditForNoisePartner) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  // CL(2,3) with only the left blob selectable-worthy: ML inside left blob
  // plus the CL. Left blob selected; 3 stays noise -> CL earns 1/2.
  ASSERT_TRUE(constraints.AddMustLink(0, 1).ok());
  ASSERT_TRUE(constraints.AddMustLink(1, 2).ok());
  ASSERT_TRUE(constraints.AddCannotLink(2, 3).ok());
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  ASSERT_TRUE(result.ok());
  // Best: select left blob (earns ML 2.0 + CL 0.5 = 2.5) and possibly the
  // right blob (adds CL's other half). Right blob has J = 0.5 > 0, so it IS
  // selected too: total = 3 constraints fully satisfied.
  EXPECT_NEAR(result->constraint_satisfaction, 1.0, 1e-12);
  EXPECT_FALSE(result->clustering.IsNoise(3));
}

/// Brute-force optimum over all valid (antichain, covering-free) selections
/// of eligible nodes, maximizing the same half-credit objective.
double BruteForceBest(const Dendrogram& dg, const ConstraintSet& constraints,
                      const FoscConfig& config) {
  const size_t num_nodes = dg.num_nodes();
  std::vector<int> eligible;
  for (size_t id = 0; id < num_nodes; ++id) {
    const DendrogramNode& nd = dg.node(static_cast<int>(id));
    if (nd.size() < config.min_cluster_size) continue;
    if (static_cast<int>(id) == dg.root() && !config.allow_root) continue;
    eligible.push_back(static_cast<int>(id));
  }
  auto j_of = [&](int id) {
    // Objects of the node.
    std::set<size_t> members;
    for (size_t o : dg.MembersOf(id)) members.insert(o);
    double j = 0.0;
    for (const Constraint& c : constraints.all()) {
      const bool a_in = members.count(c.a) > 0;
      const bool b_in = members.count(c.b) > 0;
      if (c.type == ConstraintType::kMustLink) {
        if (a_in && b_in) j += 1.0;
      } else {
        if (a_in && !b_in) j += 0.5;
        if (b_in && !a_in) j += 0.5;
      }
    }
    return j;
  };
  auto disjoint = [&](int a, int b) {
    const DendrogramNode& na = dg.node(a);
    const DendrogramNode& nb = dg.node(b);
    return na.end <= nb.begin || nb.end <= na.begin;
  };
  double best = 0.0;
  const size_t m = eligible.size();
  CVCP_CHECK_LE(m, 20u);
  for (size_t mask = 0; mask < (size_t{1} << m); ++mask) {
    std::vector<int> chosen;
    for (size_t b = 0; b < m; ++b) {
      if (mask & (size_t{1} << b)) chosen.push_back(eligible[b]);
    }
    bool valid = true;
    for (size_t i = 0; i < chosen.size() && valid; ++i) {
      for (size_t j = i + 1; j < chosen.size() && valid; ++j) {
        valid = disjoint(chosen[i], chosen[j]);
      }
    }
    if (!valid) continue;
    double total = 0.0;
    for (int id : chosen) total += j_of(id);
    best = std::max(best, total);
  }
  const double scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());
  return best / scale;
}

TEST(FoscTest, DynamicProgramMatchesBruteForceOnRandomInstances) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    // Random plot over 8 objects, random constraints.
    std::vector<size_t> order = rng.Permutation(8);
    std::vector<double> reach(8);
    reach[0] = kInf;
    for (size_t i = 1; i < 8; ++i) reach[i] = rng.Uniform(0.5, 10.0);
    Dendrogram dg = Dendrogram::FromReachability(FakePlot(order, reach));
    ConstraintSet constraints;
    for (int c = 0; c < 6; ++c) {
      const size_t a = rng.Index(8);
      const size_t b = rng.Index(8);
      if (a == b) continue;
      const ConstraintType type = rng.NextDouble() < 0.5
                                      ? ConstraintType::kMustLink
                                      : ConstraintType::kCannotLink;
      (void)constraints.Add(a, b, type);  // conflicts silently skipped
    }
    FoscConfig config;
    auto result = ExtractClusters(dg, constraints, config);
    ASSERT_TRUE(result.ok());
    const double brute = BruteForceBest(dg, constraints, config);
    EXPECT_NEAR(result->objective, brute, 1e-9) << "seed " << seed;
  }
}

/// Reference extraction that computes J per node by walking leaf-to-root
/// paths (+1 on every node holding both must-link endpoints, +1/2 on every
/// node holding exactly one cannot-link endpoint), then runs the same
/// selection DP and backtrack as ExtractClusters. Constraints must be in
/// range.
FoscResult PathWalkReference(const Dendrogram& dg,
                             const ConstraintSet& constraints,
                             const FoscConfig& config) {
  const size_t n = dg.num_objects();
  const size_t num_nodes = dg.num_nodes();
  std::vector<size_t> pos_of(n);
  for (size_t leaf = 0; leaf < n; ++leaf) {
    pos_of[dg.LeafObject(static_cast<int>(leaf))] = leaf;
  }
  std::vector<double> j_value(num_nodes, 0.0);
  auto contains = [&](int id, size_t pos) {
    return dg.node(id).begin <= pos && pos < dg.node(id).end;
  };
  for (const Constraint& c : constraints.all()) {
    const size_t pa = pos_of[c.a];
    const size_t pb = pos_of[c.b];
    if (c.type == ConstraintType::kMustLink) {
      int id = static_cast<int>(pa);
      while (!contains(id, pb)) id = dg.node(id).parent;
      for (; id >= 0; id = dg.node(id).parent) j_value[id] += 1.0;
    } else {
      for (auto [from, other] : {std::pair{pa, pb}, std::pair{pb, pa}}) {
        for (int id = static_cast<int>(from); !contains(id, other);
             id = dg.node(id).parent) {
          j_value[id] += 0.5;
        }
      }
    }
  }

  double max_finite = 0.0;
  for (size_t id = 0; id < num_nodes; ++id) {
    const double h = dg.node(static_cast<int>(id)).height;
    if (std::isfinite(h)) max_finite = std::max(max_finite, h);
  }
  const double cap = max_finite > 0.0 ? 1.5 * max_finite : 1.0;
  std::vector<double> stability(num_nodes, 0.0);
  for (size_t id = 0; id < num_nodes; ++id) {
    const DendrogramNode& nd = dg.node(static_cast<int>(id));
    if (nd.parent < 0) continue;
    double h_parent = dg.node(nd.parent).height;
    double h_node = nd.is_leaf() ? 0.0 : nd.height;
    if (!std::isfinite(h_parent)) h_parent = cap;
    if (!std::isfinite(h_node)) h_node = cap;
    stability[id] =
        static_cast<double>(nd.size()) * std::max(0.0, h_parent - h_node);
  }
  auto eligible = [&](size_t id) {
    return dg.node(static_cast<int>(id)).size() >= config.min_cluster_size &&
           (static_cast<int>(id) != dg.root() || config.allow_root);
  };
  std::vector<size_t> bottom_up;
  for (size_t id = 0; id < n; ++id) bottom_up.push_back(id);
  for (size_t id = num_nodes; id-- > n;) bottom_up.push_back(id);
  auto children_sum = [&](const std::vector<double>& v, size_t id) {
    const DendrogramNode& nd = dg.node(static_cast<int>(id));
    return nd.is_leaf() ? 0.0
                        : v[static_cast<size_t>(nd.left)] +
                              v[static_cast<size_t>(nd.right)];
  };

  double stability_norm = 1.0;
  if (config.alpha < 1.0) {
    std::vector<double> sbest(num_nodes, 0.0);
    for (size_t id : bottom_up) {
      sbest[id] = std::max(children_sum(sbest, id),
                           eligible(id) ? stability[id] : -kInf);
    }
    const double root_best = sbest[static_cast<size_t>(dg.root())];
    if (root_best > 0.0) stability_norm = root_best;
  }
  const double j_scale =
      constraints.empty() ? 1.0 : static_cast<double>(constraints.size());
  std::vector<double> best(num_nodes, 0.0);
  std::vector<bool> take(num_nodes, false);
  for (size_t id : bottom_up) {
    const double children = children_sum(best, id);
    const double own =
        eligible(id) ? config.alpha * (j_value[id] / j_scale) +
                           (1.0 - config.alpha) *
                               (stability[id] / stability_norm)
                     : -kInf;
    take[id] = own > children + 1e-9 || (own > 1e-9 && own >= children - 1e-9);
    best[id] = take[id] ? std::max(own, children) : children;
  }

  FoscResult result;
  std::vector<int> assignment(n, kNoise);
  std::vector<int> stack = {dg.root()};
  double selected_j = 0.0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (take[static_cast<size_t>(id)]) {
      const int cluster = static_cast<int>(result.selected_nodes.size());
      result.selected_nodes.push_back(id);
      selected_j += j_value[static_cast<size_t>(id)];
      for (size_t obj : dg.MembersOf(id)) assignment[obj] = cluster;
    } else if (!dg.node(id).is_leaf()) {
      stack.push_back(dg.node(id).right);
      stack.push_back(dg.node(id).left);
    }
  }
  result.clustering = Clustering(std::move(assignment));
  result.objective = best[static_cast<size_t>(dg.root())];
  result.constraint_satisfaction =
      constraints.empty()
          ? std::numeric_limits<double>::quiet_NaN()
          : selected_j / static_cast<double>(constraints.size());
  return result;
}

TEST(FoscTest, PointMassObjectiveBitwiseEqualsPathWalkReference) {
  for (size_t n : {2, 3, 17, 200}) {
    for (uint64_t seed = 0; seed < 25; ++seed) {
      Rng rng(1000 * n + seed);
      // Reachability quantized to three levels, so interior ties are the
      // rule, plus interior +inf: several OPTICS components per plot.
      std::vector<double> reach(n);
      reach[0] = kInf;
      for (size_t i = 1; i < n; ++i) {
        reach[i] = rng.NextDouble() < 0.1
                       ? kInf
                       : 0.5 * static_cast<double>(1 + rng.Index(3));
      }
      Dendrogram dg =
          Dendrogram::FromReachability(FakePlot(rng.Permutation(n), reach));

      // Must- and cannot-links, about a third reusing the previous
      // constraint's endpoint. Conflicting additions are skipped.
      ConstraintSet constraints;
      size_t a = rng.Index(n);
      for (size_t c = 0; c < 2 * n; ++c) {
        if (rng.NextDouble() >= 0.3) a = rng.Index(n);
        const size_t b = rng.Index(n);
        if (a == b) continue;
        (void)constraints.Add(a, b,
                              rng.NextDouble() < 0.5
                                  ? ConstraintType::kMustLink
                                  : ConstraintType::kCannotLink);
      }

      for (double alpha : {1.0, 0.5}) {
        for (size_t min_size : {size_t{1}, size_t{2}, size_t{5}}) {
          FoscConfig config;
          config.alpha = alpha;
          config.min_cluster_size = min_size;
          config.allow_root = seed % 2 == 1;
          auto result = ExtractClusters(dg, constraints, config);
          ASSERT_TRUE(result.ok());
          const FoscResult expected =
              PathWalkReference(dg, constraints, config);
          const std::string where =
              "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
              " alpha=" + std::to_string(alpha) +
              " min_size=" + std::to_string(min_size);
          EXPECT_EQ(std::bit_cast<uint64_t>(result->objective),
                    std::bit_cast<uint64_t>(expected.objective))
              << where;
          EXPECT_EQ(std::bit_cast<uint64_t>(result->constraint_satisfaction),
                    std::bit_cast<uint64_t>(expected.constraint_satisfaction))
              << where;
          EXPECT_EQ(result->selected_nodes, expected.selected_nodes) << where;
          EXPECT_EQ(result->clustering.assignment(),
                    expected.clustering.assignment())
              << where;
        }
      }
    }
  }
}

TEST(FoscTest, StabilityObjectiveSelectsBothBlobsUnsupervised) {
  Dendrogram dg = TwoBlobDendrogram();
  FoscConfig config;
  config.alpha = 0.0;  // pure stability
  auto result = ExtractClusters(dg, ConstraintSet{}, config);
  ASSERT_TRUE(result.ok());
  // Lifetime stability of the two tight blobs dominates: both selected.
  EXPECT_EQ(result->selected_nodes.size(), 2u);
  EXPECT_TRUE(result->clustering.SameCluster(0, 2));
  EXPECT_TRUE(result->clustering.SameCluster(3, 5));
  EXPECT_FALSE(result->clustering.SameCluster(2, 3));
}

TEST(FoscTest, AlphaBlendStillWorksWithConstraints) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddCannotLink(2, 3).ok());
  FoscConfig config;
  config.alpha = 0.5;
  auto result = ExtractClusters(dg, constraints, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clustering.SameCluster(2, 3));
  EXPECT_EQ(result->clustering.NumClusters(), 2);
}

TEST(FoscTest, RejectsInvalidConfig) {
  Dendrogram dg = TwoBlobDendrogram();
  FoscConfig bad;
  bad.min_cluster_size = 0;
  EXPECT_FALSE(ExtractClusters(dg, ConstraintSet{}, bad).ok());
  bad = FoscConfig{};
  bad.alpha = 1.5;
  EXPECT_FALSE(ExtractClusters(dg, ConstraintSet{}, bad).ok());
}

TEST(FoscTest, ConstraintBeyondDendrogramRejected) {
  Dendrogram dg = TwoBlobDendrogram();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints.AddMustLink(0, 99).ok());
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FoscTest, EndToEndWithOpticsOnBlobs) {
  Rng rng(42);
  Dataset data = MakeBlobs("blobs", 3, 25, 2, 30.0, 0.6, &rng);
  OpticsConfig optics_config;
  optics_config.min_pts = 4;
  auto optics = RunOptics(data.points(), optics_config);
  ASSERT_TRUE(optics.ok());
  Dendrogram dg = Dendrogram::FromReachability(optics.value());

  // Ground-truth constraints from 15 labeled objects.
  std::vector<size_t> objects;
  for (size_t i = 0; i < data.size(); i += 5) objects.push_back(i);
  ConstraintSet constraints =
      ConstraintSet::FromLabels(data.labels(), objects);
  auto result = ExtractClusters(dg, constraints, FoscConfig{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 3);
  EXPECT_GT(OverallFMeasure(data.labels(), result->clustering), 0.9);
}

}  // namespace
}  // namespace cvcp
