// The registry-driven estimator evaluator shared by the figure benches,
// the sweep CLI, ntom_cli replay and the ntom::experiment facade: one
// estimator per grid cell, the only unit a run is ever scored in.
#pragma once

#include <string>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/batch.hpp"
#include "ntom/exp/grid.hpp"

namespace ntom {

/// Which measurement families estimator_cells emits per capable series.
struct estimator_eval_options {
  /// detection_rate / false_positive_rate rows for estimators with the
  /// boolean_inference capability (Fig. 3 metrics).
  bool boolean_metrics = true;

  /// mean_abs_error rows (vs the analytic ground truth, over the
  /// potentially congested links) for estimators with link_estimation
  /// (Fig. 4 metrics).
  bool link_error_metrics = false;
};

/// Cell evaluator over a spec'd estimator list: one cell and one
/// measurement series per estimator (series name = estimator_label).
/// Specs are resolved eagerly, so unknown names, bad options and
/// duplicate series labels fail in the constructor, before any run
/// starts.
///
/// A cell fits its estimator with one pass over the run (masked by the
/// run's policy when one is set), scores it with a second pass when the
/// estimator has Boolean capability (observation-only when the run has
/// no ground-truth plane), and reads its link-error row from the
/// per-run state.
class estimator_cells final : public cell_evaluator {
 public:
  explicit estimator_cells(std::vector<estimator_spec> estimators,
                           estimator_eval_options options = {});

  [[nodiscard]] std::size_t shards(const run_config& config) const override;

  /// Per-run state shared by the run's estimator cells: the partition
  /// plan, the analytic ground truth and the potentially-congested set.
  /// All are pure functions of the run, computed once by whichever cell
  /// needs them first instead of once per cell.
  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const override;

  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const override;

  /// Every cell of one run, in shard order, sharing one run state: the
  /// rows the grid assembles for the run.
  [[nodiscard]] std::vector<measurement> eval_all(
      const run_config& config, const run_artifacts& run) const;

 private:
  std::vector<estimator_spec> estimators_;
  std::vector<std::string> labels_;
  estimator_eval_options options_;
};

}  // namespace ntom
