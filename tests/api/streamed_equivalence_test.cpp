// Estimator fits streamed from a live simulation (the O(chunk) library
// path) must be bit-identical to the materialized store for the same
// seeds, and grid results must not depend on the chunk size — streaming
// is an execution strategy, never a different estimator.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/infer/bayes_correlation.hpp"
#include "ntom/infer/bayes_independence.hpp"
#include "ntom/infer/observation.hpp"
#include "ntom/infer/sparsity.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/tomo/correlation_heuristic.hpp"
#include "ntom/tomo/independence.hpp"

namespace ntom {
namespace {

run_config small_config() {
  run_config c;
  c.topo = "brite,n=10,hosts=30,paths=60";
  c.topo_seed = 5;
  c.scenario = "no_independence";
  c.scenario_opts.seed = 7;
  c.sim.intervals = 60;
  c.sim.packets_per_path = 60;
  c.sim.seed = 9;
  return c;
}

constexpr std::size_t chunk_sizes[] = {1, 7, 64, 60};

void expect_links_equal(const link_estimates& a, const link_estimates& b,
                        std::size_t chunk) {
  ASSERT_EQ(a.congestion.size(), b.congestion.size());
  for (std::size_t e = 0; e < a.congestion.size(); ++e) {
    EXPECT_EQ(a.congestion[e], b.congestion[e])  // bitwise.
        << "chunk " << chunk << " link " << e;
  }
  EXPECT_EQ(a.estimated, b.estimated) << "chunk " << chunk;
}

/// The reference of one estimator: the free functions and inferencers
/// on the materialized store — a code path independent of the
/// begin_fit/consume/end_fit protocol under test.
struct store_reference {
  std::optional<link_estimates> links;
  std::function<bitvec(const bitvec&)> infer;
};

store_reference reference_on_store(const std::string& name,
                                   const topology& t,
                                   const experiment_data& data) {
  store_reference ref;
  if (name == "sparsity") {
    ref.infer = [&t](const bitvec& congested) {
      return infer_sparsity(t, make_observation(t, congested));
    };
  } else if (name == "bayes-indep") {
    auto fitted = std::make_shared<bayes_independence_inferencer>(t, data);
    ref.links = fitted->step1().links;
    ref.infer = [fitted](const bitvec& c) { return fitted->infer(c); };
  } else if (name == "bayes-corr") {
    auto fitted = std::make_shared<bayes_correlation_inferencer>(t, data);
    ref.links = fitted->step1().estimates.to_link_estimates();
    ref.infer = [fitted](const bitvec& c) { return fitted->infer(c); };
  } else if (name == "independence") {
    ref.links = compute_independence(t, data).links;
  } else if (name == "corr-heuristic") {
    ref.links =
        compute_correlation_heuristic(t, data).estimates.to_link_estimates();
  } else if (name == "corr-complete") {
    ref.links =
        compute_correlation_complete(t, data).estimates.to_link_estimates();
  }
  return ref;
}

TEST(StreamedFitTest, StreamedFitsMatchMaterializedAtEveryChunk) {
  const run_config config = small_config();
  const run_artifacts run = prepare_run(config);
  // The streamed side re-simulates: a prepare_topology run has no store.
  const run_artifacts live = prepare_topology(config);
  ASSERT_FALSE(live.materialized());

  for (const char* name : {"sparsity", "bayes-indep", "bayes-corr",
                           "independence", "corr-heuristic",
                           "corr-complete"}) {
    const store_reference reference =
        reference_on_store(name, run.topo(), run.data);

    for (const std::size_t chunk : chunk_sizes) {
      run_config streamed_config = config;
      streamed_config.stream.chunk_intervals = chunk;

      const std::unique_ptr<estimator> streamed = make_estimator(name);
      estimator_fit_sink sink(*streamed);
      stream_experiment(live, streamed_config, sink);

      ASSERT_EQ(streamed->caps().link_estimation, reference.links.has_value())
          << name;
      if (streamed->caps().link_estimation) {
        expect_links_equal(streamed->links(), *reference.links, chunk);
      }
      ASSERT_EQ(streamed->caps().boolean_inference,
                static_cast<bool>(reference.infer))
          << name;
      if (streamed->caps().boolean_inference) {
        for (std::size_t t = 0; t < run.data.intervals; ++t) {
          const bitvec congested = run.data.congested_paths_at(t);
          EXPECT_EQ(streamed->infer(congested), reference.infer(congested))
              << name << " chunk " << chunk << " interval " << t;
        }
      }
    }
  }
}

TEST(StreamedFitTest, AlgorithmOneFitsRejectMaskedChunks) {
  const run_artifacts run = prepare_run(small_config());
  measurement_chunk chunk;
  chunk.count = 1;
  chunk.congested_paths = bit_matrix(1, run.topo().num_paths());
  chunk.true_links = bit_matrix(1, run.topo().num_links());
  chunk.observed_paths = bitvec(run.topo().num_paths());
  chunk.observed_paths.set(0);
  for (const char* name : {"bayes-corr", "corr-complete"}) {
    const std::unique_ptr<estimator> est = make_estimator(name);
    est->begin_fit(run.topo(), 1);
    EXPECT_THROW(est->consume(chunk), spec_error) << name;
  }
}

TEST(StreamedBatchTest, FacadeReportsAreBitIdentical) {
  const auto grid = [](std::size_t chunk) {
    experiment e;
    e.with_topology("brite,n=10,hosts=30,paths=60")
        .with_scenario("random_congestion")
        .with_scenario("no_independence")
        // Counter-based fits beside both Algorithm 1 fits.
        .with_estimators(
            {"sparsity", "independence", "bayes-corr", "corr-complete"})
        .replicas(2)
        .intervals(40)
        .with_streaming({chunk});
    return e.run({.threads = 2, .base_seed = 77});
  };

  const batch_report reference = grid(default_chunk_intervals);
  const auto ref_cells = reference.summarize();
  ASSERT_FALSE(ref_cells.empty());

  for (const std::size_t chunk : {1u, 7u, 64u}) {
    const batch_report chunked = grid(chunk);
    const auto cells = chunked.summarize();
    ASSERT_EQ(cells.size(), ref_cells.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].label, ref_cells[i].label);
      EXPECT_EQ(cells[i].series, ref_cells[i].series);
      EXPECT_EQ(cells[i].metric, ref_cells[i].metric);
      EXPECT_EQ(cells[i].mean, ref_cells[i].mean)  // bitwise.
          << "chunk " << chunk << " cell " << cells[i].label << "/"
          << cells[i].series << "/" << cells[i].metric;
      EXPECT_EQ(cells[i].stddev, ref_cells[i].stddev);
    }
  }
}

}  // namespace
}  // namespace ntom
