// Algorithm 1 of the paper: Selection of Path Sets.
//
// Goal: form the minimum number of Eq. 1 equations whose matrix has the
// highest achievable rank, without enumerating all 2^|P*| path sets.
//
//   1. Seed Pˆ with one path set per correlation subset E:
//      P = Paths(E) \ Paths(Ē)   (paths that see E but avoid the rest
//      of E's correlation set).
//   2. N <- null space of Matrix(Pˆ, Ê).
//   3. Repeat: walk the correlation subsets ordered by the Hamming
//      weight of their null-space row (SortByHammingWeight — rows with
//      many non-zeros are most likely to yield ||r x N|| > 0), enumerate
//      path sets P ⊆ Paths(E) \ Paths(Ē), and append the first whose row
//      increases the system rank; shrink N with the incremental
//      NullSpaceUpdate (Algorithm 2). Stop when N runs out of columns or
//      no candidate adds rank.
//
// The `usable` predicate lets the caller reject path sets that cannot
// produce a finite measured log-probability (empirical count 0).
#pragma once

#include <functional>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/tomo/equations.hpp"

namespace ntom {

struct pathset_selection_params {
  /// Cap on the number of paths of Paths(E)\Paths(Ē) considered when
  /// enumerating subsets (the 2^n2 term of the complexity bound is
  /// exponential; the cap bounds work per correlation subset). Values
  /// above 63 act as 63.
  std::size_t max_subset_paths = 14;

  /// Cap on enumerated candidate path sets per correlation subset: only
  /// the first this-many masks of the subset's popcount-then-value walk
  /// are ever tried. The walk resumes across augmentation rounds, so
  /// the cap bounds the subset's work over the whole selection.
  std::size_t max_candidates_per_subset = 4096;

  /// Ablation knob: disable the SortByHammingWeight ordering (the
  /// selected system rank must not change; only the search order does).
  bool sort_by_hamming_weight = true;

  double rank_tolerance = 1e-9;
};

/// Accepts a candidate path set; return false to skip it (e.g., its
/// empirical all-good count is zero).
using pathset_predicate = std::function<bool(const bitvec&)>;

/// Output: the ordered list Pˆ plus the final system state.
struct pathset_selection {
  std::vector<bitvec> path_sets;                ///< Pˆ, over paths.
  std::vector<std::vector<std::size_t>> rows;   ///< sparse rows, aligned.
  matrix null_space;                            ///< final N (n1 x nullity).
  std::size_t seed_equations = 0;               ///< |Pˆ| after step 1.
  std::size_t added_equations = 0;              ///< appended in step 3.
};

/// Runs Algorithm 1. `usable` may be empty (accept everything).
[[nodiscard]] pathset_selection select_path_sets(
    const topology& t, const subset_catalog& catalog, const bitvec& potcong,
    const pathset_selection_params& params = {},
    const pathset_predicate& usable = {});

}  // namespace ntom
