// Outside-in layer tracing for the traced benchmark binary.
//
// The traced binary is linked with `-Wl,--wrap=<symbol>` for each public
// entry point below (the list lives in perfbench/CMakeLists.txt): every
// call that one library translation unit makes into another layer's
// public function is redirected to the __wrap_ definition here, which
// opens a span and forwards to the untouched __real_ function. The
// library itself is the same static archive the untraced binary links.
//
//   exp.grid       run_grid                (the facade's scheduler call)
//   exp.cell       cell_evaluator::eval_cell (via a forwarding evaluator)
//   exp.prepare    prepare_run             (scenario + simulation)
//   topogen.build  make_topology           (topology draw, cache misses)
//   sim.run        run_experiment          (value = intervals simulated)
//   corr.catalog   subset_catalog::build   (value = subsets)
//   tomo.alg1      select_path_sets        (value = equations selected)
//   api.fit.<est>  estimator::fit          (via a forwarding estimator)
//   infer.interval estimator::infer        (one span per interval)
//
// A wrapper only sees calls that cross object files; a signature change
// in the library shows up as an undefined __real_ symbol at link time.
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/corr/subsets.hpp"
#include "ntom/exp/batch.hpp"
#include "ntom/exp/grid.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/tomo/pathset_select.hpp"
#include "ntom/topogen/registry.hpp"
#include "spans.hpp"

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

#define SYM_RUN_GRID                                                        \
  "_ZN4ntom8run_gridERKSt6vectorINS_8run_specESaIS1_EERKNS_14cell_"        \
  "evaluatorERKNS_12batch_paramsEPNS_10grid_statsE"
#define SYM_PREPARE_RUN \
  "_ZN4ntom11prepare_runENS_10run_configESt10shared_ptrIKNS_8topologyEE"
#define SYM_MAKE_TOPOLOGY "_ZN4ntom13make_topologyERKNS_4specEm"
#define SYM_RUN_EXPERIMENT                                                  \
  "_ZN4ntom14run_experimentERKNS_8topologyERKNS_16congestion_modelERKNS_" \
  "10sim_paramsE"
#define SYM_CATALOG_BUILD                                                  \
  "_ZN4ntom14subset_catalog5buildERKNS_8topologyERKNS_6bitvecERKNS_13sub" \
  "set_limitsE"
#define SYM_SELECT_PATH_SETS                                               \
  "_ZN4ntom16select_path_setsERKNS_8topologyERKNS_14subset_catalogERKNS" \
  "_6bitvecERKNS_24pathset_selection_paramsERKSt8functionIFbS8_EE"
#define SYM_MAKE_ESTIMATOR "_ZN4ntom14make_estimatorERKNS_4specE"

using namespace ntom;

// The original definitions, reached through the linker's __real_ aliases.
namespace perfbench::real {

batch_report real_run_grid(const std::vector<run_spec>& specs,
                           const cell_evaluator& eval,
                           const batch_params& params, grid_stats* stats)
    PERFBENCH_REAL(SYM_RUN_GRID);
run_artifacts real_prepare_run(run_config config,
                               std::shared_ptr<const topology> topo)
    PERFBENCH_REAL(SYM_PREPARE_RUN);
topology real_make_topology(const topology_spec& s, std::uint64_t seed)
    PERFBENCH_REAL(SYM_MAKE_TOPOLOGY);
experiment_data real_run_experiment(const topology& t,
                                    const congestion_model& model,
                                    const sim_params& params)
    PERFBENCH_REAL(SYM_RUN_EXPERIMENT);
subset_catalog real_catalog_build(const topology& t, const bitvec& potcong,
                                  const subset_limits& limits)
    PERFBENCH_REAL(SYM_CATALOG_BUILD);
pathset_selection real_select_path_sets(const topology& t,
                                        const subset_catalog& catalog,
                                        const bitvec& potcong,
                                        const pathset_selection_params& params,
                                        const pathset_predicate& usable)
    PERFBENCH_REAL(SYM_SELECT_PATH_SETS);
std::unique_ptr<estimator> real_make_estimator(const estimator_spec& s)
    PERFBENCH_REAL(SYM_MAKE_ESTIMATOR);

}  // namespace perfbench::real

namespace {

using namespace perfbench::real;

/// Run ids of the grid in flight, keyed by each run's derived sim seed
/// (unique per run index). Written before the scheduler starts and only
/// read while it runs; grids run one at a time.
std::unordered_map<std::uint64_t, std::int64_t> g_run_ids;
std::int64_t g_run_base = 0;

std::int64_t run_id_of(const run_config& config) {
  const auto it = g_run_ids.find(config.sim.seed);
  return it == g_run_ids.end() ? -1 : it->second;
}

/// Forwards to the facade's evaluator, wrapping each cell in a span and
/// tagging the worker thread with the cell's run id.
class traced_cells final : public cell_evaluator {
 public:
  explicit traced_cells(const cell_evaluator& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t shards(const run_config& config) const override {
    return inner_->shards(config);
  }
  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const override {
    return inner_->make_run_state(config, run);
  }
  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const override {
    const std::int64_t id = run_id_of(config);
    perfbench::set_current_run(id);
    std::vector<measurement> rows;
    {
      const perfbench::scoped_span span("exp.cell", id);
      rows = inner_->eval_cell(config, run, run_state, shard);
    }
    perfbench::set_current_run(-1);
    return rows;
  }

 private:
  const cell_evaluator* inner_;
};

/// Forwards every estimator call; fit() and infer() run inside spans.
class traced_estimator final : public estimator {
 public:
  traced_estimator(std::unique_ptr<estimator> inner, const char* fit_span)
      : inner_(std::move(inner)), fit_span_(fit_span) {}

  [[nodiscard]] estimator_caps caps() const noexcept override {
    return inner_->caps();
  }

  // The traced run reaches estimator::fit(topology, experiment_data)
  // through the facade's materialized mode. Migrate this forwarder when
  // that virtual is replaced by the begin_fit/consume/end_fit protocol.
  void fit(const topology& t, const experiment_data& data) override {
    const perfbench::scoped_span span(fit_span_);
    inner_->fit(t, data);
  }

  void begin_fit(const topology& t, std::size_t intervals) override {
    inner_->begin_fit(t, intervals);
  }
  void consume(const measurement_chunk& chunk) override {
    inner_->consume(chunk);
  }
  void end_fit() override {
    const perfbench::scoped_span span(fit_span_);
    inner_->end_fit();
  }
  void begin_window(const topology& t) override { inner_->begin_window(t); }
  void retire(const measurement_chunk& chunk) override {
    inner_->retire(chunk);
  }
  void refit() override { inner_->refit(); }

  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const override {
    const perfbench::scoped_span span("infer.interval");
    return inner_->infer(congested_paths);
  }
  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const override {
    const perfbench::scoped_span span("infer.interval");
    return inner_->infer(congested_paths, observed_paths);
  }
  [[nodiscard]] link_estimates links() const override {
    return inner_->links();
  }

 private:
  std::unique_ptr<estimator> inner_;
  const char* fit_span_;
};

}  // namespace

batch_report wrap_run_grid(const std::vector<run_spec>& specs,
                           const cell_evaluator& eval,
                           const batch_params& params, grid_stats* stats)
    PERFBENCH_WRAP(SYM_RUN_GRID);
batch_report wrap_run_grid(const std::vector<run_spec>& specs,
                           const cell_evaluator& eval,
                           const batch_params& params, grid_stats* stats) {
  g_run_ids.clear();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t group =
        specs[i].seed_group == run_spec::npos ? i : specs[i].seed_group;
    const run_config config =
        params.derive_seeds
            ? derive_run_seeds(specs[i].config, params.base_seed, i, group)
            : specs[i].config;
    g_run_ids[config.sim.seed] = g_run_base + static_cast<std::int64_t>(i);
  }
  g_run_base += static_cast<std::int64_t>(specs.size());
  const traced_cells traced(eval);
  const perfbench::scoped_span span("exp.grid");
  // Worker threads start with no open span: parent their spans here.
  const std::uint64_t outer = perfbench::root_span();
  perfbench::set_root_span(span.id());
  batch_report report = real_run_grid(specs, traced, params, stats);
  perfbench::set_root_span(outer);
  return report;
}

run_artifacts wrap_prepare_run(run_config config,
                               std::shared_ptr<const topology> topo)
    PERFBENCH_WRAP(SYM_PREPARE_RUN);
run_artifacts wrap_prepare_run(run_config config,
                               std::shared_ptr<const topology> topo) {
  const std::int64_t id = run_id_of(config);
  perfbench::set_current_run(id);
  const perfbench::scoped_span span("exp.prepare", id);
  return real_prepare_run(std::move(config), std::move(topo));
}

topology wrap_make_topology(const topology_spec& s, std::uint64_t seed)
    PERFBENCH_WRAP(SYM_MAKE_TOPOLOGY);
topology wrap_make_topology(const topology_spec& s, std::uint64_t seed) {
  const perfbench::scoped_span span("topogen.build", -1);  // shared draw.
  return real_make_topology(s, seed);
}

experiment_data wrap_run_experiment(const topology& t,
                                    const congestion_model& model,
                                    const sim_params& params)
    PERFBENCH_WRAP(SYM_RUN_EXPERIMENT);
experiment_data wrap_run_experiment(const topology& t,
                                    const congestion_model& model,
                                    const sim_params& params) {
  perfbench::scoped_span span("sim.run");
  span.set_value(static_cast<double>(params.intervals));
  return real_run_experiment(t, model, params);
}

subset_catalog wrap_catalog_build(const topology& t, const bitvec& potcong,
                                  const subset_limits& limits)
    PERFBENCH_WRAP(SYM_CATALOG_BUILD);
subset_catalog wrap_catalog_build(const topology& t, const bitvec& potcong,
                                  const subset_limits& limits) {
  perfbench::scoped_span span("corr.catalog");
  subset_catalog catalog = real_catalog_build(t, potcong, limits);
  span.set_value(static_cast<double>(catalog.size()));
  return catalog;
}

pathset_selection wrap_select_path_sets(const topology& t,
                                        const subset_catalog& catalog,
                                        const bitvec& potcong,
                                        const pathset_selection_params& params,
                                        const pathset_predicate& usable)
    PERFBENCH_WRAP(SYM_SELECT_PATH_SETS);
pathset_selection wrap_select_path_sets(const topology& t,
                                        const subset_catalog& catalog,
                                        const bitvec& potcong,
                                        const pathset_selection_params& params,
                                        const pathset_predicate& usable) {
  perfbench::scoped_span span("tomo.alg1");
  pathset_selection selection =
      real_select_path_sets(t, catalog, potcong, params, usable);
  span.set_value(static_cast<double>(selection.path_sets.size()));
  return selection;
}

std::unique_ptr<estimator> wrap_make_estimator(const estimator_spec& s)
    PERFBENCH_WRAP(SYM_MAKE_ESTIMATOR);
std::unique_ptr<estimator> wrap_make_estimator(const estimator_spec& s) {
  return std::make_unique<traced_estimator>(
      real_make_estimator(s), perfbench::intern("api.fit." + s.name()));
}
