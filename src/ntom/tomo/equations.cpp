#include "ntom/tomo/equations.hpp"

#include <algorithm>

namespace ntom {

equation_builder::equation_builder(const topology& t,
                                   const subset_catalog& catalog,
                                   const bitvec& potcong)
    : topo_(&t),
      catalog_(&catalog),
      potcong_(potcong),
      slot_of_as_(t.num_ases(), static_cast<std::size_t>(-1)) {}

std::optional<std::vector<std::size_t>> equation_builder::row(
    const bitvec& path_set) const {
  return row_of_links(congestible_links(path_set));
}

bitvec equation_builder::congestible_links(const bitvec& path_set) const {
  bitvec links = topo_->links_of_paths(path_set);
  links &= potcong_;
  return links;
}

std::optional<std::vector<std::size_t>> equation_builder::row_of_links(
    const bitvec& links) const {
  // Group the touched links by correlation set (= AS) in one pass: the
  // persistent per-AS slot table replaces the former per-link linear
  // scan over the groups seen so far (O(k^2) across k touched ASes).
  // Only the slots touched by this row are reset afterwards.
  constexpr std::size_t unseen = static_cast<std::size_t>(-1);
  std::size_t num_groups = 0;
  links.for_each([&](std::size_t le) {
    const as_id a = topo_->link(static_cast<link_id>(le)).as_number;
    if (slot_of_as_[a] == unseen) {
      slot_of_as_[a] = num_groups;
      touched_as_.push_back(a);
      if (num_groups == groups_.size()) {
        groups_.emplace_back(topo_->num_links());
      } else {
        groups_[num_groups].clear();
      }
      ++num_groups;
    }
    groups_[slot_of_as_[a]].set(le);
  });
  for (const as_id a : touched_as_) slot_of_as_[a] = unseen;
  touched_as_.clear();

  std::vector<std::size_t> sparse;
  sparse.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t idx = catalog_->find(groups_[g]);
    if (idx == subset_catalog::npos) return std::nullopt;
    sparse.push_back(idx);
  }
  std::sort(sparse.begin(), sparse.end());
  return sparse;
}

std::vector<double> equation_builder::dense_row(
    const std::vector<std::size_t>& sparse) const {
  std::vector<double> dense(catalog_->size(), 0.0);
  for (const std::size_t i : sparse) dense[i] = 1.0;
  return dense;
}

}  // namespace ntom
