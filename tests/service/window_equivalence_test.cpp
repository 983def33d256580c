// The sliding-window contract: at every step of the stream, the
// service's published estimate must be bit-identical to a fresh
// one-shot streaming fit over exactly the chunks currently in the
// window — for multiple window sizes, and for both live-simulation and
// .trc-replay ingest. The window is an execution strategy, never a
// different estimator.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/service/service.hpp"
#include "ntom/trace/trace_writer.hpp"

namespace ntom {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

run_config base_config() {
  run_config config;
  config.topo = "brite,n=10,hosts=30,paths=60";
  config.topo_seed = 5;
  config.scenario = "no_independence";
  config.scenario_opts.seed = 7;
  config.sim.intervals = 400;
  config.sim.packets_per_path = 50;
  config.sim.seed = 9;
  config.stream.chunk_intervals = 50;
  return config;
}

/// Copies every chunk of a pass so tests can slice arbitrary windows.
class chunk_collector final : public measurement_sink {
 public:
  void consume(const measurement_chunk& chunk) override {
    chunks.push_back(chunk);
  }
  std::vector<measurement_chunk> chunks;
};

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

void expect_window_matches_one_shot(
    const std::string& estimator_name, const topology& t,
    const std::vector<measurement_chunk>& chunks, std::size_t window) {
  service_config cfg;
  cfg.estimator = estimator_name;
  cfg.window_chunks = window;
  cfg.refit_every = 1;
  tomography_service service(cfg);

  // The service owns no topology here; alias the test's.
  service.begin_epoch(
      std::shared_ptr<const topology>(&t, [](const topology*) {}));

  for (std::size_t k = 0; k < chunks.size(); ++k) {
    service.ingest(chunks[k]);
    const std::size_t begin = k + 1 > window ? k + 1 - window : 0;
    const link_estimates reference =
        one_shot_links(estimator_name, t, chunks, begin, k + 1);

    const std::shared_ptr<const service_snapshot> snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_TRUE(snap->verify());
    EXPECT_EQ(snap->window_chunks(), k + 1 - begin);
    EXPECT_EQ(snap->first_interval(), chunks[begin].first_interval);
    EXPECT_EQ(snap->end_interval(),
              chunks[k].first_interval + chunks[k].count);

    ASSERT_EQ(snap->links().size(), reference.congestion.size());
    for (link_id e = 0; e < t.num_links(); ++e) {
      const snapshot_link& got = snap->link_estimate(e);
      EXPECT_EQ(got.estimated, reference.estimated.test(e))
          << estimator_name << " W=" << window << " step " << k << " link "
          << e;
      if (reference.estimated.test(e)) {
        EXPECT_EQ(got.congestion, reference.congestion[e])  // bitwise.
            << estimator_name << " W=" << window << " step " << k << " link "
            << e;
        EXPECT_FALSE(got.carried);
      }
    }
  }
}

TEST(WindowEquivalenceTest, LiveIngestMatchesOneShotAtTwoWindowSizes) {
  const run_config config = base_config();
  const run_artifacts run = prepare_topology(config);
  chunk_collector collected;
  stream_experiment(run, config, collected);
  ASSERT_EQ(collected.chunks.size(), 8u);

  for (const char* name : {"independence", "bayes-indep", "corr-heuristic"}) {
    for (const std::size_t window : {3u, 6u}) {
      expect_window_matches_one_shot(name, run.topo(), collected.chunks,
                                     window);
    }
  }
}

TEST(WindowEquivalenceTest, ReplayIngestMatchesOneShot) {
  // Capture the stream to a .trc, then slide the window over the
  // replayed chunks — at a granularity different from the capture's.
  run_config capture_config = base_config();
  capture_config.capture.path = temp_path("window_equivalence.trc");
  const run_artifacts captured = prepare_topology(capture_config);
  {
    const std::unique_ptr<trace_writer> writer =
        make_capture_writer(capture_config, captured);
    stream_experiment(captured, capture_config, *writer);
  }

  run_config replay_config;
  replay_config.scenario =
      spec("trace").with_option("file", capture_config.capture.path);
  replay_config.stream.chunk_intervals = 37;  // not the capture chunking.
  const run_artifacts replay = prepare_topology(replay_config);
  ASSERT_TRUE(replay.replayed());

  chunk_collector collected;
  stream_experiment(replay, replay_config, collected);
  ASSERT_GT(collected.chunks.size(), 6u);

  for (const std::size_t window : {2u, 5u}) {
    expect_window_matches_one_shot("independence", replay.topo(),
                                   collected.chunks, window);
  }
}

}  // namespace
}  // namespace ntom
