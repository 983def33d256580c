#include "ntom/exp/runner.hpp"

#include <algorithm>

#include "ntom/plan/policy.hpp"
#include "ntom/trace/trace_writer.hpp"

namespace ntom {

void run_config::reconcile() {
  scenario_opts = apply_scenario_spec(scenario, scenario_opts);
  if (scenario_opts.nonstationary && scenario_opts.phase_length > 0) {
    const std::size_t needed =
        (sim.intervals + scenario_opts.phase_length - 1) /
        scenario_opts.phase_length;
    scenario_opts.num_phases = std::max<std::size_t>(needed, 1);
  }
  // Probe-budget policy: a scenario-spec `policy='...'` option (the
  // registry's universal key) overrides the config field, so grid arms
  // can carry their policy inside one spec string.
  if (scenario.has("policy")) {
    plan.policy = scenario.get_string("policy");
  }
  if (!plan.policy.empty()) {
    // Eager validation: a bad policy spec fails at config time, not
    // mid-pass. (make_probe_policy throws spec_error.)
    (void)make_probe_policy(probe_policy_spec(plan.policy));
  }
  if (part.mode != partition_mode::none && part.max_cell_links == 0) {
    throw spec_error("run_config: part.max_cell_links must be positive");
  }
}

run_artifacts prepare_topology(run_config config,
                               std::shared_ptr<const topology> topo) {
  config.reconcile();
  run_artifacts run;
  const auto& entry = scenario_registry().resolve(config.scenario);
  if (entry.factory.make_source) {
    // Source scenario (trace replay): the dataset brings its own
    // topology; a pre-built topology and the generation seed are
    // ignored, and the model stays empty.
    run.source = entry.factory.make_source(config.scenario);
    run.topo_ptr = run.source->topology_ptr();
    return run;
  }
  run.topo_ptr = topo ? std::move(topo)
                      : std::make_shared<const topology>(
                            make_topology(config.topo, config.topo_seed));
  run.model = make_scenario(run.topo(), config.scenario, config.scenario_opts);
  return run;
}

run_artifacts prepare_run(run_config config,
                          std::shared_ptr<const topology> topo) {
  config.reconcile();
  run_artifacts run = prepare_topology(config, std::move(topo));
  // Store the unmasked stream, unless the source is a masked .trc: the
  // columnar store has no observed-path plane, so such a run re-reads
  // its source on every pass.
  if (run.source == nullptr) {
    run.data = run_experiment(run.topo(), run.model, config.sim);
  } else if (!run.source->has_mask()) {
    materialize_sink store(run.data);
    run.source->stream(store, config.stream.chunk_intervals);
  }
  // A requested capture records one pass over the prepared run, masked
  // by the policy when one is set.
  std::unique_ptr<trace_writer> capture = make_capture_writer(config, run);
  if (capture != nullptr) stream_experiment(run, config, *capture);
  return run;
}

void stream_experiment(const run_artifacts& run, const run_config& config,
                       measurement_sink& sink) {
  // A fresh policy per pass: select() depends only on (spec, chunk
  // sequence), so every pass masks identically and the repeatable-
  // replay contract survives the budget.
  std::unique_ptr<probe_policy> policy;
  std::unique_ptr<probe_policy_sink> masked;
  measurement_sink* target = &sink;
  if (!config.plan.policy.empty()) {
    policy = make_probe_policy(probe_policy_spec(config.plan.policy));
    masked = std::make_unique<probe_policy_sink>(*policy, sink);
    target = masked.get();
  }
  if (run.materialized()) {
    replay_experiment(run.topo(), run.data, *target,
                      config.stream.chunk_intervals);
    return;
  }
  if (run.source != nullptr) {
    run.source->stream(*target, config.stream.chunk_intervals);
    return;
  }
  run_experiment_streaming(run.topo(), run.model, config.sim, *target,
                           config.stream.chunk_intervals);
}

std::unique_ptr<trace_writer> make_capture_writer(const run_config& config,
                                                  const run_artifacts& run) {
  if (config.capture.path.empty()) return nullptr;
  trace_writer_options options;
  options.store_truth = config.capture.truth && run.has_truth();
  // A probe-budget policy (or a replayed source that is itself masked)
  // produces partially-observed chunks; the capture must store the mask
  // plane so the file replays bit-identically.
  options.store_mask =
      !config.plan.policy.empty() ||
      (run.source != nullptr && run.source->has_mask());
  options.compress = config.capture.compress;
  options.async = config.capture.async;
  options.provenance =
      "topo=" + config.topo.to_string() +
      " topo_seed=" + std::to_string(config.topo_seed) +
      " scenario=" + config.scenario.to_string() +
      " scenario_seed=" + std::to_string(config.scenario_opts.seed) +
      " sim_seed=" + std::to_string(config.sim.seed) +
      " intervals=" + std::to_string(config.sim.intervals) +
      " packets=" + std::to_string(config.sim.packets_per_path) +
      (config.sim.oracle_monitor ? " oracle" : "");
  return std::make_unique<trace_writer>(config.capture.path, options);
}

inference_metrics score_inference(const run_artifacts& run,
                                  const infer_fn& infer) {
  inference_scorer scorer;
  for (std::size_t t = 0; t < run.data.intervals; ++t) {
    const bitvec inferred = infer(run.data.congested_paths_at(t));
    scorer.add_interval(inferred, run.data.true_links_at(t));
  }
  return scorer.result();
}

}  // namespace ntom
