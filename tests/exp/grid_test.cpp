// The sharded grid scheduler's contract: the topology cache reuses one
// generated instance per (spec, topo_seed); caching and thread count
// never change a single aggregate bit, and every run splits into one
// cell per estimator.
#include "ntom/exp/grid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/evals.hpp"

namespace ntom {
namespace {

experiment small_grid() {
  experiment e;
  e.with_topology("brite,n=10,hosts=30,paths=60")
      .with_scenario("random_congestion")
      .with_scenario("srlg")
      .with_scenario("gilbert")
      .with_estimators({"sparsity", "independence"})
      .replicas(2)
      .intervals(30);
  return e;
}

void expect_reports_identical(const batch_report& a, const batch_report& b) {
  const auto ca = a.summarize();
  const auto cb = b.summarize();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].label, cb[i].label);
    EXPECT_EQ(ca[i].series, cb[i].series);
    EXPECT_EQ(ca[i].metric, cb[i].metric);
    EXPECT_EQ(ca[i].runs, cb[i].runs);
    EXPECT_EQ(ca[i].mean, cb[i].mean) << ca[i].label << "/" << ca[i].series
                                      << "/" << ca[i].metric;  // bitwise.
    EXPECT_EQ(ca[i].stddev, cb[i].stddev);
    EXPECT_EQ(ca[i].min, cb[i].min);
    EXPECT_EQ(ca[i].max, cb[i].max);
  }
  // Per-run rows too: same order, same values, run by run.
  ASSERT_EQ(a.runs().size(), b.runs().size());
  for (std::size_t r = 0; r < a.runs().size(); ++r) {
    const run_result& ra = a.runs()[r];
    const run_result& rb = b.runs()[r];
    EXPECT_EQ(ra.index, rb.index);
    EXPECT_EQ(ra.label, rb.label);
    ASSERT_EQ(ra.measurements.size(), rb.measurements.size());
    for (std::size_t m = 0; m < ra.measurements.size(); ++m) {
      EXPECT_EQ(ra.measurements[m].series, rb.measurements[m].series);
      EXPECT_EQ(ra.measurements[m].metric, rb.measurements[m].metric);
      EXPECT_EQ(ra.measurements[m].value, rb.measurements[m].value);
    }
  }
}

TEST(TopologyCacheTest, SameKeySharesOneInstance) {
  topology_cache cache;
  const auto a = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const auto b = cache.get("brite,n=6,hosts=10,paths=20", 5);
  EXPECT_EQ(a.get(), b.get());  // the same generated instance.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TopologyCacheTest, SeedAndSpecAreBothPartOfTheKey) {
  topology_cache cache;
  const auto a = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const auto other_seed = cache.get("brite,n=6,hosts=10,paths=20", 6);
  const auto other_spec = cache.get("brite,n=7,hosts=10,paths=20", 5);
  EXPECT_NE(a.get(), other_seed.get());
  EXPECT_NE(a.get(), other_spec.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TopologyCacheTest, CachedInstanceEqualsRegeneration) {
  topology_cache cache;
  const auto cached = cache.get("brite,n=6,hosts=10,paths=20", 5);
  const topology fresh = make_topology("brite,n=6,hosts=10,paths=20", 5);
  EXPECT_EQ(cached->num_links(), fresh.num_links());
  EXPECT_EQ(cached->num_paths(), fresh.num_paths());
  EXPECT_EQ(cached->covered_links(), fresh.covered_links());
}

TEST(GridSchedulerTest, KnobsAndThreadsNeverChangeResults) {
  const experiment exp = small_grid();
  grid_stats reference_stats;
  const batch_report reference =
      exp.run({.threads = 1}, &reference_stats);
  ASSERT_FALSE(reference.summarize().empty());

  for (const bool cache : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      experiment e = small_grid();
      e.cache_topologies(cache);
      grid_stats stats;
      const batch_report report = e.run({.threads = threads}, &stats);
      expect_reports_identical(reference, report);
      EXPECT_EQ(stats.runs, 6u);    // 3 scenarios x 2 replicas.
      EXPECT_EQ(stats.cells, 12u);  // one cell per estimator.
      if (cache) {
        // One topology per replica; the scenario arms hit the cache.
        EXPECT_EQ(stats.topo_cache_misses, 2u);
        EXPECT_EQ(stats.topo_cache_hits, 4u);
      } else {
        EXPECT_EQ(stats.topo_cache_misses, 0u);
        EXPECT_EQ(stats.topo_cache_hits, 0u);
      }
    }
  }
}

TEST(GridSchedulerTest, FacadeRunIsRunGridOverEstimatorCells) {
  const experiment exp = small_grid();
  const batch_report via_facade = exp.run({.threads = 4});
  const batch_report via_grid = run_grid(
      exp.specs(),
      estimator_cells({"sparsity", "independence"},
                      {.boolean_metrics = true, .link_error_metrics = true}),
      {.threads = 4});
  expect_reports_identical(via_facade, via_grid);
}

TEST(GridSchedulerTest, EvalExceptionsPropagate) {
  struct throwing_eval final : cell_evaluator {
    [[nodiscard]] std::size_t shards(const run_config&) const override {
      return 2;
    }
    [[nodiscard]] std::vector<measurement> eval_cell(
        const run_config&, const run_artifacts&, void* /*run_state*/,
        std::size_t shard) const override {
      if (shard == 1) throw std::runtime_error("cell boom");
      return {};
    }
  };
  const experiment exp = small_grid();
  const throwing_eval eval;
  EXPECT_THROW((void)run_grid(exp.specs(), eval, {.threads = 4}),
               std::runtime_error);
  EXPECT_THROW((void)run_grid(exp.specs(), eval, {.threads = 1}),
               std::runtime_error);
}

TEST(GridSchedulerTest, EmptySpecsYieldEmptyReport) {
  const estimator_cells cells({"sparsity"});
  grid_stats stats;
  const batch_report report = run_grid({}, cells, {}, &stats);
  EXPECT_TRUE(report.runs().empty());
  EXPECT_EQ(stats.cells, 0u);
  EXPECT_EQ(stats.runs, 0u);
}

}  // namespace
}  // namespace ntom
