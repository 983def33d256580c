// Empirical path-set statistics over an experiment.
//
// Probability Computation's measured quantities are of the form
// P(∩_{p∈P} Y_p = 0): the fraction of intervals in which ALL paths of a
// set were good (the left-hand side of Eq. 1). Over the columnar store
// this is one fused AND + popcount across the selected path rows.
//
// Two consumption modes:
//   * view mode — borrow a finished experiment_data (zero copy);
//   * accumulate mode — act as a measurement_sink on the interval
//     stream, building the packed path-major matrix plus online
//     per-path counters chunk by chunk (one matrix, not three views).
//
// For fully-streamed fits that never retain a matrix at all, see
// pathset_counter below: O(#path-sets) counters over a fixed family.
#pragma once

#include <optional>
#include <vector>

#include "ntom/sim/packet_sim.hpp"

namespace ntom {

class path_observations final : public measurement_sink {
 public:
  /// Accumulate mode: feed via begin()/consume()/end().
  path_observations() = default;

  /// View mode over a finished experiment; does not own it.
  explicit path_observations(const experiment_data& data)
      : view_(&data.path_good),
        always_good_(data.always_good_paths),
        intervals_(data.intervals) {}

  // ---- measurement_sink (accumulate mode) ----
  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;
  void end() override;

  [[nodiscard]] std::size_t intervals() const noexcept { return intervals_; }

  /// Number of intervals where every path in `path_set` was good.
  [[nodiscard]] std::size_t count_all_good(const bitvec& path_set) const;

  /// Empirical P(all paths in `path_set` good) = count / T.
  [[nodiscard]] double empirical_all_good(const bitvec& path_set) const;

  /// log of the empirical probability; nullopt when the count is 0
  /// (no finite logarithm — Eq. 1 cannot use this path set).
  [[nodiscard]] std::optional<double> log_empirical_all_good(
      const bitvec& path_set) const;

  /// Paths that were good in every interval.
  [[nodiscard]] const bitvec& always_good_paths() const noexcept {
    return always_good_;
  }

  /// The packed path-major good-interval matrix backing the queries.
  [[nodiscard]] const bit_matrix& good_matrix() const noexcept {
    return owning_ ? owned_ : *view_;
  }

 private:
  /// Mode discriminator instead of a pointer into the object itself, so
  /// the implicitly defaulted copy/move stay correct in both modes.
  const bit_matrix* view_ = nullptr;  ///< borrowed (view mode).
  bit_matrix owned_;                  ///< accumulate mode storage.
  bool owning_ = false;
  bitvec always_good_;
  std::size_t intervals_ = 0;
  std::vector<std::size_t> good_counts_;  ///< online per-path counters.
};

/// Online all-good counters over a FIXED family of path sets — the
/// O(chunk)-memory streaming form of Probability Computation's measured
/// quantities. The family must be chosen up front (the Independence and
/// flooded-correlation equation sets are topology-determined, so their
/// fits count); adaptive selections (Algorithm 1) need the full matrix,
/// so their fits accumulate a path_observations instead.
///
/// Two lifetimes:
///   * one-shot (default) — begin() fixes the experiment length, chunks
///     arrive in order, totals are exact when the stream ends.
///   * windowed — consume() extends and retire() shrinks a sliding
///     window of evidence: counters subtract a retired chunk's exact
///     contribution, so the state equals a fresh pass over whatever
///     chunks are currently in the window (integer arithmetic — the
///     equality is bit-exact, which is what makes windowed service fits
///     bit-identical to one-shot fits over the same interval range).
///     Windowed mode pays O(paths) per chunk for per-path good counters
///     (an always-good bit cannot be un-set, a counter can).
///
/// Probe-budget masks (measurement_chunk::observed_paths) are fully
/// supported: a masked chunk only counts a path set when every member
/// path was observed (observed_intervals() tracks the per-set
/// denominator the solvers divide by), per-path goodness only
/// accumulates over observed intervals, and always-good additionally
/// requires the path to have been observed at least once. On unmasked
/// streams every formula reduces exactly to the legacy arithmetic —
/// masked handling costs nothing until a mask appears.
class pathset_counter final : public measurement_sink {
 public:
  /// `path_sets` are bit-sets over paths; counts() aligns with them.
  /// An empty family still tracks always_good_paths / intervals — the
  /// streaming drivers use that as a cheap observation tracker.
  explicit pathset_counter(std::vector<bitvec> path_sets = {},
                           bool windowed = false)
      : sets_(std::move(path_sets)), windowed_(windowed) {}

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;
  void end() override;

  /// Windowed mode only: subtracts `chunk`'s contribution from every
  /// counter. The chunk must have been consumed earlier and not yet
  /// retired; chunks retire in consumption order (a sliding window).
  void retire(const measurement_chunk& chunk);

  /// Intervals where all paths of sets()[i] were good, aligned with the
  /// constructor family. Totals are exact once the stream ends (one-shot)
  /// or over the current window (windowed).
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Intervals in which sets()[i] was FULLY observed — the denominator
  /// of the empirical all-good probability under a probe-budget mask.
  /// Equals intervals() for every set on unmasked streams.
  [[nodiscard]] const std::vector<std::size_t>& observed_intervals()
      const noexcept {
    return observed_;
  }

  [[nodiscard]] const std::vector<bitvec>& sets() const noexcept {
    return sets_;
  }
  [[nodiscard]] const bitvec& always_good_paths() const noexcept {
    return always_good_;
  }

  /// Paths good in every interval of the current window, computed from
  /// the per-path counters (windowed mode; in one-shot mode it equals
  /// always_good_paths() once the stream ended).
  [[nodiscard]] bitvec window_always_good() const;

  [[nodiscard]] bool windowed() const noexcept { return windowed_; }
  [[nodiscard]] std::size_t intervals() const noexcept { return intervals_; }

 private:
  std::vector<bitvec> sets_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> observed_;  ///< per set: fully observed ivals.
  bitvec always_good_;
  std::size_t intervals_ = 0;
  bool windowed_ = false;
  std::vector<std::size_t> good_counts_;  ///< per path; windowed mode only.
  // ---- probe-budget mask state; inert on unmasked streams ----
  bool masked_seen_ = false;   ///< sticky: any masked chunk consumed.
  bool all_observed_ = false;  ///< any UNmasked chunk consumed (one-shot).
  bitvec ever_observed_;       ///< union of masks (one-shot mode).
  std::vector<std::size_t> path_observed_;  ///< per path; windowed mode.
};

}  // namespace ntom
