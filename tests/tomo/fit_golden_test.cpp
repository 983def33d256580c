// Golden exactness pins for Algorithm 1 and the three probability fits.
//
// The fixtures are micro_pathset's (Brite and Sparse, seed 3, the
// no_independence scenario, T = 200). Every value below is an exact bit
// pattern or count: the path-set scan and the least-squares core may be
// restructured for speed, but they must keep selecting the same path
// sets in the same order and produce the same floating-point results.
#include <gtest/gtest.h>

#include <cstdint>

#include "../support/golden_digest.hpp"
#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/correlation_heuristic.hpp"
#include "ntom/tomo/independence.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"

namespace ntom {
namespace {

using test_support::golden_digest;

struct fixture {
  topology topo;
  experiment_data data;
  bitvec potcong;
  subset_catalog catalog;
};

fixture make_fixture(bool sparse) {
  fixture f;
  if (sparse) {
    topogen::sparse_params params;
    params.seed = 3;
    f.topo = topogen::generate_sparse(params);
  } else {
    topogen::brite_params params;
    params.seed = 3;
    f.topo = topogen::generate_brite(params);
  }
  scenario_params sp;
  sp.seed = 5;
  const congestion_model model = make_scenario(f.topo, "no_independence", sp);
  sim_params sim;
  sim.intervals = 200;
  f.data = run_experiment(f.topo, model, sim);
  f.potcong = potentially_congested_links(
      f.topo, path_observations(f.data).always_good_paths());
  f.catalog = subset_catalog::build(f.topo, f.potcong);
  return f;
}

struct selection_golden {
  std::size_t seed_equations = 0;
  std::size_t added_equations = 0;
  std::uint64_t path_sets = 0;     ///< digest of Pˆ in order.
  std::uint64_t rows = 0;          ///< digest of the sparse rows.
  std::uint64_t null_space = 0;    ///< digest of the final N's bits.
  std::uint64_t identifiable = 0;  ///< digest of the identifiable set.
};

/// Algorithm 1 under Correlation-complete's usable predicate (at least
/// min_all_good_count all-good intervals).
void expect_selection(const fixture& f, const selection_golden& want) {
  const path_observations obs(f.data);
  const std::size_t min_count =
      correlation_complete_params{}.min_all_good_count;
  const auto usable = [&](const bitvec& pset) {
    return obs.count_all_good(pset) >= min_count;
  };
  const pathset_selection sel =
      select_path_sets(f.topo, f.catalog, f.potcong, {}, usable);

  golden_digest path_sets, rows, null_space, identifiable;
  for (const bitvec& p : sel.path_sets) path_sets.add(p);
  for (const auto& r : sel.rows) rows.add(r);
  null_space.add(sel.null_space);
  identifiable.add(identifiable_coordinates(sel.null_space));

  EXPECT_EQ(sel.seed_equations, want.seed_equations);
  EXPECT_EQ(sel.added_equations, want.added_equations);
  EXPECT_EQ(path_sets.value(), want.path_sets);
  EXPECT_EQ(rows.value(), want.rows);
  EXPECT_EQ(null_space.value(), want.null_space);
  EXPECT_EQ(identifiable.value(), want.identifiable);
}

/// Digests of each fit's full output (rank, estimates, flags).
struct fit_golden {
  std::uint64_t independence = 0;
  std::uint64_t heuristic = 0;
  std::uint64_t complete = 0;
};

std::uint64_t estimates_digest(const probability_estimates& est) {
  golden_digest d;
  for (std::size_t i = 0; i < est.num_subsets(); ++i) {
    d.add(est.good_probability(i));
    d.add(static_cast<std::uint64_t>(est.identifiable(i)));
  }
  return d.value();
}

void expect_fits(const fixture& f, const fit_golden& want) {
  const independence_result ind = compute_independence(f.topo, f.data);
  golden_digest d_ind;
  d_ind.add(static_cast<std::uint64_t>(ind.system_rank));
  d_ind.add(ind.log_good);
  d_ind.add(ind.links.congestion);
  d_ind.add(ind.links.estimated);

  const correlation_heuristic_result heur =
      compute_correlation_heuristic(f.topo, f.data);
  golden_digest d_heur;
  d_heur.add(static_cast<std::uint64_t>(heur.system_rank));
  d_heur.add(estimates_digest(heur.estimates));

  const correlation_complete_result comp =
      compute_correlation_complete(f.topo, f.data);
  golden_digest d_comp;
  d_comp.add(static_cast<std::uint64_t>(comp.system_rank));
  d_comp.add(comp.residual_norm);
  d_comp.add(estimates_digest(comp.estimates));

  EXPECT_EQ(d_ind.value(), want.independence);
  EXPECT_EQ(d_heur.value(), want.heuristic);
  EXPECT_EQ(d_comp.value(), want.complete);
}

TEST(PathsetGoldenTest, BriteSeed3SelectionIsPinned) {
  selection_golden want;
  want.seed_equations = 142;
  want.added_equations = 31;
  want.path_sets = 0xc0ba4905282ea5bcull;
  want.rows = 0xe49b21fc5467b6e3ull;
  want.null_space = 0xff2101128cba6487ull;
  want.identifiable = 0x62c6aedcb76a84e5ull;
  expect_selection(make_fixture(false), want);
}

TEST(PathsetGoldenTest, SparseSeed3SelectionIsPinned) {
  selection_golden want;
  want.seed_equations = 224;
  want.added_equations = 107;
  want.path_sets = 0xc40c0648f3734466ull;
  want.rows = 0xdaec715c7b59041eull;
  want.null_space = 0xc4ad90d9bc2150ffull;
  want.identifiable = 0x13716e947c269b4dull;
  expect_selection(make_fixture(true), want);
}

TEST(FitGoldenTest, BriteSeed3FitsArePinned) {
  fit_golden want;
  want.independence = 0xb21508d5cbbe45e3ull;
  want.heuristic = 0x7f15ee5320ae4ae9ull;
  want.complete = 0x36bec0f7f63fc4c1ull;
  expect_fits(make_fixture(false), want);
}

TEST(FitGoldenTest, SparseSeed3FitsArePinned) {
  fit_golden want;
  want.independence = 0xcb77e1743a4dda79ull;
  want.heuristic = 0xe29934f3bf2ea5d1ull;
  want.complete = 0x1b563f1591bfb659ull;
  expect_fits(make_fixture(true), want);
}

}  // namespace
}  // namespace ntom
