#include "ntom/tomo/pathset_select.hpp"

#include <gtest/gtest.h>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

bitvec full_potcong(const topology& t) {
  bitvec b(t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) b.set(e);
  return b;
}

matrix selection_matrix(const pathset_selection& sel, std::size_t n1) {
  matrix m;
  for (const auto& sparse : sel.rows) {
    std::vector<double> dense(n1, 0.0);
    for (const auto i : sparse) dense[i] = 1.0;
    m.append_row(dense);
  }
  return m;
}

TEST(PathsetSelectTest, ToyCase1FullRank) {
  // §5.3: with Identifiability++ holding, the seed equations alone give
  // a full-column-rank system — all 5 unknowns identifiable.
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  EXPECT_EQ(catalog.size(), 5u);
  EXPECT_EQ(sel.null_space.cols(), 0u);
  const bitvec identifiable = identifiable_coordinates(sel.null_space);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_TRUE(identifiable.test(i)) << "subset " << i;
  }
  const matrix m = selection_matrix(sel, catalog.size());
  EXPECT_EQ(matrix_rank(m), 5u);
}

TEST(PathsetSelectTest, ToyCase1SeedPathSetsMatchPaper) {
  // The §5.3 table: seeds are {p1,p2}, {p1}, {p2,p3}, {p3}, {p1,p2,p3}.
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  ASSERT_GE(sel.seed_equations, 5u);
  std::vector<std::vector<std::size_t>> expected = {
      {toy_p1, toy_p2},          // E = {e1}
      {toy_p1},                  // E = {e2}
      {toy_p2, toy_p3},          // E = {e3}
      {toy_p3},                  // E = {e4}
      {toy_p1, toy_p2, toy_p3},  // E = {e2,e3}
  };
  for (const auto& want : expected) {
    bool found = false;
    for (const auto& got : sel.path_sets) {
      if (got.to_indices() == want) found = true;
    }
    EXPECT_TRUE(found) << "missing seed path set";
  }
}

TEST(PathsetSelectTest, ToyCase2DetectsUnidentifiable) {
  // Fig. 1 Case 2: {e1,e4} and {e2,e3} are traversed by the same paths;
  // their probabilities cannot both be determined.
  const topology t = make_toy(toy_case::case2);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);

  EXPECT_EQ(catalog.size(), 6u);
  EXPECT_GT(sel.null_space.cols(), 0u);

  bitvec e14(t.num_links()), e23(t.num_links());
  e14.set(toy_e1);
  e14.set(toy_e4);
  e23.set(toy_e2);
  e23.set(toy_e3);
  const bitvec identifiable = identifiable_coordinates(sel.null_space);
  EXPECT_FALSE(identifiable.test(catalog.find(e14)));
  EXPECT_FALSE(identifiable.test(catalog.find(e23)));
}

TEST(PathsetSelectTest, UsablePredicateFiltersPathSets) {
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  // Refuse every path set containing p3.
  const auto sel = select_path_sets(
      t, catalog, potcong, {},
      [&](const bitvec& pset) { return !pset.test(toy_p3); });
  for (const auto& pset : sel.path_sets) {
    EXPECT_FALSE(pset.test(toy_p3));
  }
  // e4 is only observable through p3: must be unidentifiable now.
  bitvec e4(t.num_links());
  e4.set(toy_e4);
  EXPECT_FALSE(
      identifiable_coordinates(sel.null_space).test(catalog.find(e4)));
}

TEST(PathsetSelectTest, HammingOrderingDoesNotChangeRank) {
  // The ablation property: ordering is a speed heuristic only.
  topogen::brite_params p;
  p.seed = 21;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);

  pathset_selection_params sorted;
  sorted.sort_by_hamming_weight = true;
  pathset_selection_params unsorted;
  unsorted.sort_by_hamming_weight = false;

  const auto a = select_path_sets(t, catalog, potcong, sorted);
  const auto b = select_path_sets(t, catalog, potcong, unsorted);
  const auto rank_a = matrix_rank(selection_matrix(a, catalog.size()));
  const auto rank_b = matrix_rank(selection_matrix(b, catalog.size()));
  EXPECT_EQ(rank_a, rank_b);
}

TEST(PathsetSelectTest, RowsAreConsistentWithPathSets) {
  const topology t = make_toy(toy_case::case1);
  const bitvec potcong = full_potcong(t);
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const equation_builder builder(t, catalog, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);
  ASSERT_EQ(sel.path_sets.size(), sel.rows.size());
  for (std::size_t i = 0; i < sel.path_sets.size(); ++i) {
    const auto row = builder.row(sel.path_sets[i]);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(*row, sel.rows[i]);
  }
}

TEST(PathsetSelectTest, NoDuplicatePathSets) {
  topogen::brite_params p;
  p.seed = 23;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);
  for (std::size_t i = 0; i < sel.path_sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sel.path_sets.size(); ++j) {
      EXPECT_FALSE(sel.path_sets[i] == sel.path_sets[j]);
    }
  }
}

TEST(PathsetSelectTest, MinimalityEquationsAtMostRankPlusSeeds) {
  // Step 3 only ever adds rank-increasing equations, so
  // |Pˆ| <= seeds + rank gain; in particular added <= catalog size.
  topogen::brite_params p;
  p.seed = 25;
  const topology t = topogen::generate_brite(p);
  const bitvec potcong = t.covered_links();
  const subset_catalog catalog = subset_catalog::build(t, potcong);
  const auto sel = select_path_sets(t, catalog, potcong);
  EXPECT_EQ(sel.path_sets.size(), sel.seed_equations + sel.added_equations);
  EXPECT_LE(sel.added_equations, catalog.size());
}

}  // namespace
}  // namespace ntom
