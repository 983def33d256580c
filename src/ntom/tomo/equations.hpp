// Eq. 1 in row form (§5.1, §5.2).
//
// For a path set P, Separability gives
//   P(∩_{p∈P} Y_p = 0) = Π_{C∈C*} P(∩_{e ∈ Links(P)∩C} X_e = 0),
// which is linear in the logs: one unknown log g(Links(P)∩C) per
// intersected correlation set. Row(P, Ê) marks those unknowns with a 1.
// A row is expressible only if every intersection is in the enumerated
// catalog (size caps can exclude large unions — the paper's resource
// knob); inexpressible path sets are skipped by Algorithm 1.
#pragma once

#include <optional>
#include <vector>

#include "ntom/corr/subsets.hpp"
#include "ntom/graph/topology.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Builds Eq. 1 rows against a fixed catalog Ê.
///
/// Not thread-safe: row() reuses internal scratch buffers. The batch
/// engine constructs one builder per run (= per worker), never shared.
class equation_builder {
 public:
  equation_builder(const topology& t, const subset_catalog& catalog,
                   const bitvec& potcong);

  /// Sparse Row(P, Ê): ascending catalog indices of the unknowns
  /// appearing in the equation for `path_set`. nullopt when some
  /// intersection Links(P) ∩ C is not in the catalog. An empty result
  /// means the path set touches no potentially congested link.
  [[nodiscard]] std::optional<std::vector<std::size_t>> row(
      const bitvec& path_set) const;

  /// Links(P) ∩ potcong: the only input of Row(P, Ê) that depends on
  /// P, so path sets with equal link sets share one row.
  [[nodiscard]] bitvec congestible_links(const bitvec& path_set) const;

  /// row() for a link set as returned by congestible_links.
  [[nodiscard]] std::optional<std::vector<std::size_t>> row_of_links(
      const bitvec& links) const;

  /// Dense 0/1 vector of length catalog.size() for a sparse row.
  [[nodiscard]] std::vector<double> dense_row(
      const std::vector<std::size_t>& sparse) const;

 private:
  const topology* topo_;
  const subset_catalog* catalog_;
  bitvec potcong_;

  /// Scratch for row(): slot_of_as_[a] = group index of AS a in the
  /// row being built (npos between calls); touched_as_ lists the ASes
  /// to reset. Avoids an O(num_ases) clear per row.
  mutable std::vector<std::size_t> slot_of_as_;
  mutable std::vector<as_id> touched_as_;
  mutable std::vector<bitvec> groups_;
};

}  // namespace ntom
