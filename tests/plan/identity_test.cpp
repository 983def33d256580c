// The frac=1.0 contract: a full probe budget is a zero-copy
// pass-through, so every policy at frac=1.0 must be bit-identical to
// the unmasked pipeline — against the materialized fit, at every chunk
// size, through the batch facade, and through the windowed service.
// Partial budgets get the complementary check: the sliding-window
// service over a masked stream must match a fresh one-shot fit over
// exactly the masked chunks in the window (masked retire is exact).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/service/service.hpp"

namespace ntom {
namespace {

constexpr const char* kFullBudgetPolicies[] = {
    "uniform,frac=1.0,seed=4",
    "round_robin,frac=1.0",
    "info_gain,frac=1.0",
};

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

/// Copies every chunk of a pass so tests can slice arbitrary windows.
class chunk_collector final : public measurement_sink {
 public:
  void consume(const measurement_chunk& chunk) override {
    chunks.push_back(chunk);
  }
  std::vector<measurement_chunk> chunks;
};

TEST(FullBudgetIdentityTest, StreamedFitsMatchUnmaskedAtEveryChunk) {
  const run_config config = small_config();
  const run_artifacts run = prepare_run(config);

  for (const char* name : {"sparsity", "bayes-indep", "independence"}) {
    const std::unique_ptr<estimator> reference = make_estimator(name);
    reference->fit(run.topo(), run.data);

    for (const char* policy : kFullBudgetPolicies) {
      for (const std::size_t chunk : {1u, 7u, 64u}) {
        run_config masked_config = config;
        masked_config.plan.policy = policy;
        masked_config.stream.chunk_intervals = chunk;
        masked_config.reconcile();

        const std::unique_ptr<estimator> streamed = make_estimator(name);
        estimator_fit_sink sink(*streamed);
        stream_experiment(run, masked_config, sink);

        if (streamed->caps().link_estimation) {
          const link_estimates a = streamed->links();
          const link_estimates b = reference->links();
          EXPECT_EQ(a.estimated, b.estimated)
              << name << " " << policy << " chunk " << chunk;
          ASSERT_EQ(a.congestion.size(), b.congestion.size());
          for (std::size_t e = 0; e < a.congestion.size(); ++e) {
            EXPECT_EQ(a.congestion[e], b.congestion[e])  // bitwise.
                << name << " " << policy << " chunk " << chunk << " link "
                << e;
          }
        }
        if (streamed->caps().boolean_inference) {
          for (std::size_t t = 0; t < run.data.intervals; ++t) {
            const bitvec congested = run.data.congested_paths_at(t);
            EXPECT_EQ(streamed->infer(congested), reference->infer(congested))
                << name << " " << policy << " chunk " << chunk << " interval "
                << t;
          }
        }
      }
    }
  }
}

TEST(FullBudgetIdentityTest, FacadeReportsMatchUnmasked) {
  const auto grid = [](const std::string& policy, std::size_t chunk) {
    experiment e;
    e.with_topology("brite,n=10,hosts=30,paths=60")
        .with_scenario("random_congestion")
        .with_scenario("no_independence")
        .with_estimators({"sparsity", "independence"})
        .replicas(2)
        .intervals(40);
    if (!policy.empty()) e.with_policy(policy).with_streaming({chunk});
    return e.run({.threads = 2, .base_seed = 77});
  };

  // Unmasked at the default chunk: frac=1.0 must match at any chunk
  // size.
  const auto ref_cells = grid("", 0).summarize();
  ASSERT_FALSE(ref_cells.empty());

  for (const char* policy : kFullBudgetPolicies) {
    for (const std::size_t chunk : {7u, 64u}) {
      const auto cells = grid(policy, chunk).summarize();
      ASSERT_EQ(cells.size(), ref_cells.size()) << policy;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].label, ref_cells[i].label);
        EXPECT_EQ(cells[i].series, ref_cells[i].series);
        EXPECT_EQ(cells[i].metric, ref_cells[i].metric);
        EXPECT_EQ(cells[i].mean, ref_cells[i].mean)  // bitwise.
            << policy << " chunk " << chunk << " cell " << cells[i].label
            << "/" << cells[i].series << "/" << cells[i].metric;
        EXPECT_EQ(cells[i].stddev, ref_cells[i].stddev);
      }
    }
  }
}

/// Fresh one-shot streaming fit over chunks [begin, end) — the
/// reference the windowed service must match bitwise.
link_estimates one_shot_links(const std::string& name, const topology& t,
                              const std::vector<measurement_chunk>& chunks,
                              std::size_t begin, std::size_t end) {
  const std::unique_ptr<estimator> est = make_estimator(name);
  std::size_t intervals = 0;
  for (std::size_t i = begin; i < end; ++i) intervals += chunks[i].count;
  est->begin_fit(t, intervals);
  for (std::size_t i = begin; i < end; ++i) est->consume(chunks[i]);
  est->end_fit();
  return est->links();
}

TEST(ServiceIdentityTest, WindowedFitsMatchOneShotOverMaskedStreams) {
  run_config config = small_config();
  config.sim.intervals = 300;
  config.stream.chunk_intervals = 30;
  // A partial budget: every chunk downstream of here carries a mask, so
  // this exercises the service's masked consume AND masked retire.
  config.plan.policy = "round_robin,frac=0.3";
  config.reconcile();

  const run_artifacts run = prepare_topology(config);
  chunk_collector collected;
  stream_experiment(run, config, collected);
  ASSERT_EQ(collected.chunks.size(), 10u);
  for (const measurement_chunk& chunk : collected.chunks) {
    ASSERT_FALSE(chunk.fully_observed());
  }

  for (const char* name : {"independence", "bayes-indep"}) {
    const std::size_t window = 3;
    service_config cfg;
    cfg.estimator = name;
    cfg.window_chunks = window;
    cfg.refit_every = 1;
    tomography_service service(cfg);
    service.begin_epoch(run.topo_ptr);

    for (std::size_t k = 0; k < collected.chunks.size(); ++k) {
      service.ingest(collected.chunks[k]);
      const std::size_t begin = k + 1 > window ? k + 1 - window : 0;
      const link_estimates reference =
          one_shot_links(name, run.topo(), collected.chunks, begin, k + 1);

      const std::shared_ptr<const service_snapshot> snap = service.snapshot();
      ASSERT_NE(snap, nullptr);
      EXPECT_TRUE(snap->verify());
      for (link_id e = 0; e < run.topo().num_links(); ++e) {
        const snapshot_link& got = snap->link_estimate(e);
        EXPECT_EQ(got.estimated, reference.estimated.test(e))
            << name << " step " << k << " link " << e;
        if (reference.estimated.test(e)) {
          EXPECT_EQ(got.congestion, reference.congestion[e])  // bitwise.
              << name << " step " << k << " link " << e;
        }
      }
    }
  }
}

TEST(ServiceIdentityTest, FullBudgetServiceMatchesUnmaskedService) {
  run_config config = small_config();
  config.sim.intervals = 200;
  config.stream.chunk_intervals = 25;

  const run_artifacts run = prepare_topology(config);
  chunk_collector unmasked;
  stream_experiment(run, config, unmasked);

  run_config full_config = config;
  full_config.plan.policy = "info_gain,frac=1.0";
  full_config.reconcile();
  chunk_collector full;
  stream_experiment(run, full_config, full);

  // frac=1.0 forwards chunks untouched, so the two services see the
  // same stream; snapshots must agree bitwise at every step.
  ASSERT_EQ(full.chunks.size(), unmasked.chunks.size());
  service_config cfg;
  cfg.estimator = "independence";
  cfg.window_chunks = 4;
  cfg.refit_every = 1;
  tomography_service a(cfg);
  tomography_service b(cfg);
  a.begin_epoch(run.topo_ptr);
  b.begin_epoch(run.topo_ptr);
  for (std::size_t k = 0; k < full.chunks.size(); ++k) {
    ASSERT_TRUE(full.chunks[k].fully_observed()) << "chunk " << k;
    a.ingest(unmasked.chunks[k]);
    b.ingest(full.chunks[k]);
    const auto snap_a = a.snapshot();
    const auto snap_b = b.snapshot();
    ASSERT_NE(snap_a, nullptr);
    ASSERT_NE(snap_b, nullptr);
    for (link_id e = 0; e < run.topo().num_links(); ++e) {
      EXPECT_EQ(snap_a->link_estimate(e).estimated,
                snap_b->link_estimate(e).estimated)
          << "step " << k << " link " << e;
      EXPECT_EQ(snap_a->link_estimate(e).congestion,
                snap_b->link_estimate(e).congestion)
          << "step " << k << " link " << e;
    }
  }
}

}  // namespace
}  // namespace ntom
