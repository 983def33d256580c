#include "ntom/tomo/pathset_select.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/sparse.hpp"

namespace ntom {

namespace {

/// Resumable walk over the masks 1..2^k-1 of one correlation subset's
/// candidate paths, ordered by popcount then value: small path sets are
/// tried first (they have larger empirical counts, hence usable logs).
/// Within a popcount, Gosper's hack steps to the next larger mask with
/// the same number of bits; past the last one the walk moves to the
/// smallest mask of the next popcount.
class mask_cursor {
 public:
  explicit mask_cursor(std::size_t k) : k_(k) {}

  [[nodiscard]] bool done() const noexcept { return mask_ == 0 || k_ == 0; }
  [[nodiscard]] std::uint64_t mask() const noexcept { return mask_; }
  /// Masks handed out so far (the per-subset candidate budget).
  [[nodiscard]] std::size_t scanned() const noexcept { return scanned_; }

  void advance() noexcept {
    ++scanned_;
    const std::uint64_t t = mask_ | (mask_ - 1);
    const std::uint64_t next =
        (t + 1) | (((~t & (t + 1)) - 1) >> (__builtin_ctzll(mask_) + 1));
    if (next < (std::uint64_t{1} << k_)) {
      mask_ = next;
      return;
    }
    const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask_));
    mask_ = bits < k_ ? (std::uint64_t{1} << (bits + 1)) - 1 : 0;
  }

 private:
  std::size_t k_;
  std::uint64_t mask_ = 1;
  std::size_t scanned_ = 0;
};

/// Open-addressing map from packed bit sets over a fixed universe to
/// dense ids 0, 1, 2, ... in insertion order: one flat pool of words
/// plus a power-of-two array of (hash, id) slots. Algorithm 1 probes
/// one per scanned candidate, and about half the candidates repeat a
/// path set already tried under another subset, so a repeat costs one
/// hash and, usually, one probe, with no allocation.
class bitset_index {
 public:
  explicit bitset_index(std::size_t universe)
      : words_((universe + 63) / 64), slots_(std::size_t{1} << 10) {}

  /// Id of `b` (over the constructor's universe), inserting it as the
  /// next id when absent; `.second` is true when it was inserted.
  std::pair<std::size_t, bool> insert(const bitvec& b) {
    assert(b.num_words() == words_);
    const std::uint64_t* w = b.word_data();
    std::uint64_t h = 0;
    for (std::size_t k = 0; k < words_; ++k) {
      h = (h ^ w[k]) * 0xff51afd7ed558ccdull;
      h ^= h >> 33;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const slot& sl = slots_[s];
      if (sl.id == 0) break;
      if (sl.hash == h &&
          std::equal(w, w + words_, pool_.data() + (sl.id - 1) * words_)) {
        return {sl.id - 1, false};
      }
    }
    pool_.insert(pool_.end(), w, w + words_);
    const std::size_t id = size_++;
    place({h, id + 1});
    if (2 * size_ > slots_.size()) {
      std::vector<slot> old(slots_.size() * 2);
      old.swap(slots_);
      for (const slot& sl : old) {
        if (sl.id != 0) place(sl);
      }
    }
    return {id, true};
  }

 private:
  struct slot {
    std::uint64_t hash = 0;
    std::size_t id = 0;  ///< id + 1; 0 marks a free slot.
  };

  void place(const slot& sl) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = sl.hash & mask;
    while (slots_[s].id != 0) s = (s + 1) & mask;
    slots_[s] = sl;
  }

  std::size_t words_;
  std::vector<std::uint64_t> pool_;
  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace

pathset_selection select_path_sets(const topology& t,
                                   const subset_catalog& catalog,
                                   const bitvec& potcong,
                                   const pathset_selection_params& params,
                                   const pathset_predicate& usable) {
  equation_builder builder(t, catalog, potcong);
  pathset_selection out;
  const std::size_t n1 = catalog.size();

  // Candidate paths for subset i: Paths(E) \ Paths(Ē) (lines 2-3).
  // Precomputed once — the augmentation loop revisits subsets often.
  // The whole set is subset i's seed; the mask walk enumerates subsets
  // of its first `max_subset_paths` paths (at most 63: the walk indexes
  // them with 64-bit masks).
  std::vector<bitvec> candidates(n1);
  std::vector<std::vector<std::size_t>> candidate_indices(n1);
  const std::size_t cap = std::min<std::size_t>(params.max_subset_paths, 63);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& e = catalog.subset(i);
    bitvec paths = t.paths_of_links(e);
    const bitvec complement =
        subset_complement(t, e, catalog.subset_as(i), potcong);
    paths.subtract(t.paths_of_links(complement));
    candidate_indices[i] = paths.to_indices();
    if (candidate_indices[i].size() > cap) candidate_indices[i].resize(cap);
    candidates[i] = std::move(paths);
  }

  // Every path set ever tried, accepted or not. A rejection is final:
  // the row space only grows and `usable` is fixed for the fit, so a
  // path set that failed once fails again.
  bitset_index seen(t.num_paths());

  // Rows depend on a path set only through Links(P) ∩ potcong, which
  // many candidates share: each distinct link set gets an id, its row
  // is built once, and `rejected_in_round[id]` records the round whose
  // rank test refused it — within a round N is fixed, so the test
  // would refuse it again.
  bitset_index link_sets(t.num_links());
  std::vector<std::vector<std::size_t>> link_set_rows;  ///< empty = no row.
  std::vector<std::size_t> rejected_in_round;
  std::size_t round = 0;

  // Id of the untried, usable, expressible candidate `pset`'s link
  // set, or npos when the set was tried before, is unusable, or has no
  // row.
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  auto try_accept = [&](const bitvec& pset) -> std::size_t {
    if (pset.empty() || !seen.insert(pset).second) return npos;
    if (usable && !usable(pset)) return npos;
    const bitvec links = builder.congestible_links(pset);
    const auto [id, inserted] = link_sets.insert(links);
    if (inserted) {
      auto row = builder.row_of_links(links);
      link_set_rows.emplace_back();
      if (row) link_set_rows.back() = std::move(*row);
      rejected_in_round.push_back(0);
    }
    return link_set_rows[id].empty() ? npos : id;
  };

  // ---- Step 1: seed equations, one per correlation subset. Rows stay
  // sparse (catalog indices) throughout.
  sparse_matrix system(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& pset = candidates[i];
    const std::size_t id = try_accept(pset);
    if (id == npos) continue;
    out.path_sets.push_back(pset);
    out.rows.push_back(link_set_rows[id]);
    system.append_row(link_set_rows[id]);
  }
  out.seed_equations = out.path_sets.size();

  // ---- Step 2: initial null space, factorized straight from the CSR
  // rows.
  matrix nsp = null_space_basis(system);

  // ---- Step 3: augmentation guided by the null space. Each subset's
  // mask walk resumes where the previous round left it: every mask
  // behind the cursor was accepted or rejected, and both are final.
  std::vector<mask_cursor> cursors;
  cursors.reserve(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    cursors.emplace_back(candidate_indices[i].size());
  }
  bitvec pset(t.num_paths());
  while (nsp.cols() > 0) {
    ++round;
    bool found = false;

    std::vector<std::size_t> order(n1);
    std::iota(order.begin(), order.end(), 0);
    const std::vector<std::size_t> weights = row_hamming_weights(nsp);
    if (params.sort_by_hamming_weight) {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return weights[a] > weights[b];
                       });
    }

    for (const std::size_t i : order) {
      if (weights[i] == 0) continue;  // subset already determined.
      const std::vector<std::size_t>& paths = candidate_indices[i];
      mask_cursor& cursor = cursors[i];
      while (!found && !cursor.done() &&
             cursor.scanned() < params.max_candidates_per_subset) {
        pset.clear();
        for (std::uint64_t m = cursor.mask(); m != 0; m &= m - 1) {
          pset.set(paths[static_cast<std::size_t>(__builtin_ctzll(m))]);
        }
        cursor.advance();
        const std::size_t id = try_accept(pset);
        if (id == npos || rejected_in_round[id] == round) continue;
        const std::vector<std::size_t>& row = link_set_rows[id];
        if (!row_increases_rank(row, nsp, params.rank_tolerance)) {
          rejected_in_round[id] = round;
          continue;
        }
        out.path_sets.push_back(pset);
        out.rows.push_back(row);
        ++out.added_equations;
        nsp = null_space_update(nsp, row, params.rank_tolerance);
        found = true;
      }
      if (found) break;
    }
    if (!found) break;  // r = 0 in the paper's termination condition.
  }

  out.null_space = std::move(nsp);
  return out;
}

}  // namespace ntom
