#include "ntom/exp/evals.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ntom/corr/correlation.hpp"
#include "ntom/part/hier_infer.hpp"
#include "ntom/sim/monitor.hpp"

namespace ntom {

namespace {

/// The run's estimator constructor: monolithic by default; behind the
/// hierarchical adapter when the config carries a non-trivial partition
/// plan (run_config::part). A trivial plan (<= 1 cell) gains nothing and
/// would only add the splitting overhead, so it falls back.
std::unique_ptr<estimator> make_run_estimator(
    const estimator_spec& s,
    const std::shared_ptr<const partition_plan>& plan) {
  if (plan == nullptr || plan->trivial()) return make_estimator(s);
  return make_partitioned_estimator(s, plan);
}

/// Resolve eagerly: a typo'd estimator name fails here, not on a
/// worker thread mid-batch. Series labels must be unique — duplicates
/// would silently pool two configurations into one aggregate cell.
std::vector<std::string> validated_labels(
    const std::vector<estimator_spec>& estimators) {
  std::vector<std::string> labels;
  labels.reserve(estimators.size());
  for (const estimator_spec& s : estimators) {
    (void)estimator_registry().resolve(s);
    std::string label = estimator_label(s);
    for (const std::string& seen : labels) {
      if (seen == label) {
        throw spec_error("estimator_cells: two estimators share the series "
                         "label '" +
                         label +
                         "' — add a label=... option to disambiguate");
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

/// Values shared by every estimator cell of one run; each is a pure
/// function of the run, so the once-initialization is only a compute
/// saving, never a result change.
struct run_state {
  /// The run's partition plan (run_config::part).
  std::once_flag plan_once;
  std::shared_ptr<const partition_plan> plan;

  /// The link-error inputs: analytic ground truth and the potentially
  /// congested links.
  std::once_flag truth_once;
  std::optional<ground_truth> truth;
  bitvec potcong;
};

/// Fits and scores one estimator on one prepared run.
std::vector<measurement> eval_estimator(const estimator_spec& spec,
                                        const std::string& label,
                                        const estimator_eval_options& options,
                                        const run_config& config,
                                        const run_artifacts& run,
                                        run_state& shared) {
  if (config.part.mode != partition_mode::none) {
    std::call_once(shared.plan_once, [&] {
      shared.plan = std::make_shared<const partition_plan>(
          make_partition(run.topo(), config.part));
    });
  }
  const std::unique_ptr<estimator> est = make_run_estimator(spec, shared.plan);

  // One fit pass; a pathset_counter with an empty family tracks the
  // always-good paths (the link-error metric's input) on the same pass.
  estimator_fit_sink fit(*est);
  pathset_counter observation_tracker;
  fanout_sink fit_pass({&fit, &observation_tracker});
  stream_experiment(run, config, fit_pass);

  // Fig. 3 metrics: one more pass scores the Boolean estimator with
  // O(chunk) memory. A replayed dataset without a ground-truth plane
  // scores observation-only instead (the truth matrices would be
  // all-zero).
  std::vector<measurement> out;
  if (options.boolean_metrics && est->caps().boolean_inference) {
    auto infer = [&est](const bitvec& congested, const bitvec& observed) {
      return est->infer(congested, observed);
    };
    if (run.has_truth()) {
      streaming_inference_scorer scorer(infer);
      stream_experiment(run, config, scorer);
      out = inference_measurements(label, scorer.result());
    } else {
      streaming_observation_scorer scorer(infer);
      stream_experiment(run, config, scorer);
      out = observation_measurements(label, scorer.result());
    }
  }

  // Link-error metrics need the analytic ground truth, which replayed
  // runs do not have (the dataset records states, not the model).
  if (options.link_error_metrics && !run.replayed() &&
      est->caps().link_estimation) {
    std::call_once(shared.truth_once, [&] {
      shared.truth.emplace(run.make_truth(config.sim.intervals));
      shared.potcong = potentially_congested_links(
          run.topo(), observation_tracker.always_good_paths());
    });
    out.push_back({label, "mean_abs_error",
                   mean_of(link_absolute_errors(run.topo(), *shared.truth,
                                                est->links(),
                                                shared.potcong))});
  }
  return out;
}

}  // namespace

estimator_cells::estimator_cells(std::vector<estimator_spec> estimators,
                                 estimator_eval_options options)
    : estimators_(std::move(estimators)),
      labels_(validated_labels(estimators_)),
      options_(options) {}

std::size_t estimator_cells::shards(const run_config& config) const {
  (void)config;
  return std::max<std::size_t>(estimators_.size(), 1);
}

std::shared_ptr<void> estimator_cells::make_run_state(
    const run_config& config, const run_artifacts& run) const {
  (void)config;
  (void)run;
  return std::make_shared<run_state>();
}

std::vector<measurement> estimator_cells::eval_cell(
    const run_config& config, const run_artifacts& run, void* state,
    std::size_t shard) const {
  if (estimators_.empty()) return {};
  return eval_estimator(estimators_[shard], labels_[shard], options_, config,
                        run, *static_cast<run_state*>(state));
}

std::vector<measurement> estimator_cells::eval_all(
    const run_config& config, const run_artifacts& run) const {
  const std::shared_ptr<void> state = make_run_state(config, run);
  std::vector<measurement> out;
  for (std::size_t shard = 0; shard < shards(config); ++shard) {
    std::vector<measurement> rows = eval_cell(config, run, state.get(), shard);
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

}  // namespace ntom
