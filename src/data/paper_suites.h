#ifndef CVCP_DATA_PAPER_SUITES_H_
#define CVCP_DATA_PAPER_SUITES_H_

/// \file
/// Simulated stand-ins for the paper's evaluation datasets (§4.1). The
/// real ALOI image collection, UCI Wine/Ionosphere/Ecoli and the Zyeast
/// gene-expression set are not available offline; each generator below
/// matches its original's object count, dimensionality, class structure
/// and — most importantly — the *clusterability regime* that drives the
/// paper's results: whether CVCP's internal scores track external quality
/// depends on that regime, so a stand-in that reproduces it exercises the
/// same behavior.
/// Iris is genuine (iris.h).

#include <cstdint>
#include <string>
#include <vector>

#include "common/dataset.h"

namespace cvcp {

/// One ALOI-k5-like set: 125 objects, 5 classes x 25, 144 bounded
/// colour-moment-style attributes. `index` selects the collection member;
/// difficulty (cluster spread/overlap) varies deterministically with it.
Dataset MakeAloiK5Like(uint64_t master_seed, size_t index);

/// The whole collection (paper: 100 sets).
std::vector<Dataset> MakeAloiK5Collection(uint64_t master_seed, size_t count);

/// Wine-like: 178 objects, 13 attributes with strongly skewed scales,
/// 3 classes (59/71/48). Convex but scale-distorted: centroid methods with
/// metric learning cope, raw-Euclidean density methods score lower — the
/// paper's Wine inversion.
Dataset MakeWineLike(uint64_t seed);

/// Ionosphere-like: 351 objects, 34 attributes, 2 classes (225 "good"
/// compact vs 126 "bad" diffuse/multi-modal).
Dataset MakeIonosphereLike(uint64_t seed);

/// Ecoli-like: 336 objects, 7 attributes, 8 classes with the original's
/// heavy imbalance (143/77/52/35/20/5/2/2).
Dataset MakeEcoliLike(uint64_t seed);

/// Zyeast-like: 205 genes x 20 conditions, 4 phase classes of sinusoidal
/// expression profiles with widely varying amplitudes — non-convex
/// elongated clusters where k-means mis-models the structure (the paper's
/// negative-correlation case) while density methods excel.
Dataset MakeZyeastLike(uint64_t seed);

/// The paper's parameter grids (§4.1).
std::vector<int> DefaultMinPtsGrid();               ///< {3,6,9,...,24}
std::vector<int> MakeKGrid(int num_classes);        ///< {2..M}, small M

/// One dataset of the evaluation suite with its grids.
struct SuiteEntry {
  Dataset data;
  std::vector<int> minpts_grid;
  std::vector<int> k_grid;
};

/// The five non-ALOI datasets (Iris real, the rest simulated), in the
/// paper's order: Iris, Wine, Ionosphere, Ecoli, Zyeast.
std::vector<SuiteEntry> MakePaperSuite(uint64_t seed);

}  // namespace cvcp

#endif  // CVCP_DATA_PAPER_SUITES_H_
