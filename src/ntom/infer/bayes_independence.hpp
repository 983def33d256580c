// Bayesian-Independence (the paper's name for CLINK [11]).
//
// Step 1: Probability Computation under the Independence assumption
// (ntom/tomo/independence). Step 2: per-interval greedy MAP using the
// per-link probabilities. Both steps inherit the Independence
// assumption's failure mode: correlated links get mis-estimated
// probabilities, and the MAP step then systematically prefers wrong
// solutions (§3.1's {e1,e3} vs {e2,e3} example).
#pragma once

#include <utility>

#include "ntom/infer/bayes_map.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/tomo/independence.hpp"

namespace ntom {

/// Step-1-once, infer-per-interval wrapper.
class bayes_independence_inferencer {
 public:
  /// Runs Probability Computation on the experiment's observations.
  bayes_independence_inferencer(const topology& t, const experiment_data& data,
                                const independence_params& params = {});

  /// Adopts a precomputed step 1 — the estimator's fit path, where the
  /// Independence system was solved from online pathset counters.
  bayes_independence_inferencer(const topology& t, independence_result step1)
      : topo_(&t), step1_(std::move(step1)) {}

  /// Infers the congested links for one interval's observation.
  [[nodiscard]] bitvec infer(const bitvec& congested_paths) const;

  /// Probe-budget variant: `observed_paths` restricts the good-path
  /// evidence (empty = fully observed).
  [[nodiscard]] bitvec infer(const bitvec& congested_paths,
                             const bitvec& observed_paths) const;

  [[nodiscard]] const independence_result& step1() const noexcept {
    return step1_;
  }

 private:
  const topology* topo_;
  independence_result step1_;
};

}  // namespace ntom
