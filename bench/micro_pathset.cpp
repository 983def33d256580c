// Microbenchmarks for Algorithm 1 (path-set selection), including the
// SortByHammingWeight ablation: the ordering is a search-speed
// optimization, so disabling it must not change the achieved rank —
// only the time to reach it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "ntom/corr/correlation.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"

namespace {

struct fixture {
  ntom::topology topo;
  ntom::bitvec potcong;
  ntom::subset_catalog catalog;
};

/// Micro assertion: abort loudly if a benchmarked property breaks — a
/// benchmark that silently measures a wrong result is worthless.
void micro_assert(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "micro assertion failed: %s\n", what);
    std::abort();
  }
}

fixture make_fixture(bool sparse) {
  fixture f;
  if (sparse) {
    ntom::topogen::sparse_params params;
    params.seed = 3;
    f.topo = ntom::topogen::generate_sparse(params);
  } else {
    ntom::topogen::brite_params params;
    params.seed = 3;
    f.topo = ntom::topogen::generate_brite(params);
  }
  ntom::scenario_params sp;
  sp.seed = 5;
  const auto model = ntom::make_scenario(
      f.topo, "no_independence", sp);
  ntom::sim_params sim;
  sim.intervals = 200;
  const auto data = ntom::run_experiment(f.topo, model, sim);
  f.potcong = ntom::potentially_congested_links(
      f.topo, ntom::path_observations(data).always_good_paths());
  f.catalog = ntom::subset_catalog::build(f.topo, f.potcong);
  return f;
}

void bm_select_sorted(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  ntom::pathset_selection_params params;
  params.sort_by_hamming_weight = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::select_path_sets(f.topo, f.catalog, f.potcong, params));
  }
}
BENCHMARK(bm_select_sorted)->Arg(0)->Arg(1);  // 0 = Brite, 1 = Sparse.

void bm_select_unsorted(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  ntom::pathset_selection_params params;
  params.sort_by_hamming_weight = false;
  // The ablation's premise: the order changes the search, not the rank.
  const std::size_t unsorted_nullity =
      ntom::select_path_sets(f.topo, f.catalog, f.potcong, params)
          .null_space.cols();
  const std::size_t sorted_nullity =
      ntom::select_path_sets(f.topo, f.catalog, f.potcong).null_space.cols();
  micro_assert(unsorted_nullity == sorted_nullity,
               "sorted and unsorted selections reach different ranks");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::select_path_sets(f.topo, f.catalog, f.potcong, params));
  }
}
BENCHMARK(bm_select_unsorted)->Arg(0)->Arg(1);

void bm_catalog_build(benchmark::State& state) {
  const fixture f = make_fixture(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ntom::subset_catalog::build(f.topo, f.potcong));
  }
}
BENCHMARK(bm_catalog_build)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
