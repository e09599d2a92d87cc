#include "core/lower_bounds.hpp"

#include <algorithm>
#include <bit>

#include "hypercube/hypercube.hpp"
#include "util/assert.hpp"
#include "util/binomial.hpp"

namespace hcs::core {

std::vector<NodeId> simplicial_order(unsigned d) {
  HCS_EXPECTS(d >= 1 && d <= 24);
  const Hypercube cube(d);
  std::vector<NodeId> order;
  order.reserve(cube.num_nodes());
  for (unsigned l = 0; l <= d; ++l) {
    // level_nodes() enumerates each level in increasing numeric order.
    for (NodeId x : cube.level_nodes(l)) order.push_back(x);
  }
  HCS_ENSURES(order.size() == cube.num_nodes());
  return order;
}

std::vector<std::uint64_t> ball_prefix_boundary_profile(unsigned d) {
  const Hypercube cube(d);
  const std::uint64_t n = cube.num_nodes();
  const auto order = simplicial_order(d);

  // Incremental outer-boundary maintenance: member[] marks S;
  // inside_neighbors[u] counts u's neighbours inside S. A non-member is on
  // the outer boundary iff inside_neighbors > 0.
  std::vector<bool> member(n, false);
  std::vector<std::uint16_t> inside_neighbors(n, 0);
  std::uint64_t boundary = 0;

  std::vector<std::uint64_t> profile(n + 1, 0);
  for (std::uint64_t m = 1; m <= n; ++m) {
    const NodeId v = order[m - 1];
    member[v] = true;
    // v stops being an outer-boundary node itself.
    if (inside_neighbors[v] > 0) --boundary;
    for (BitPos j = 1; j <= d; ++j) {
      const NodeId u = flip_bit(v, j);
      if (member[u]) continue;
      if (inside_neighbors[u]++ == 0) ++boundary;
    }
    profile[m] = boundary;
  }
  HCS_ENSURES(profile[n] == 0);
  return profile;
}

std::uint64_t hypercube_guard_lower_bound(unsigned d) {
  // Harper at ball sizes: max_r C(d, r+1), attained at the central
  // binomial coefficient.
  std::uint64_t best = 0;
  for (unsigned r = 0; r < d; ++r) {
    best = std::max(best, binomial(d, r + 1));
  }
  HCS_ENSURES(best == central_binomial(d));
  return best;
}

std::vector<std::uint32_t> exhaustive_min_inner_boundary(
    const graph::Graph& g) {
  const auto n = static_cast<unsigned>(g.num_nodes());
  HCS_EXPECTS(n >= 1 && n <= 22);
  const std::uint64_t total = std::uint64_t{1} << n;

  // Precompute neighbourhood masks.
  std::vector<std::uint64_t> nbr(n, 0);
  for (graph::Vertex v = 0; v < n; ++v) {
    graph::for_each_neighbor(
        g, v, [&](graph::Vertex w) { nbr[v] |= std::uint64_t{1} << w; });
  }

  std::vector<std::uint32_t> best(n + 1, ~std::uint32_t{0});
  best[0] = 0;
  for (std::uint64_t mask = 1; mask < total; ++mask) {
    const auto k = static_cast<unsigned>(std::popcount(mask));
    std::uint32_t boundary = 0;
    std::uint64_t rest = mask;
    while (rest != 0) {
      const auto v = static_cast<unsigned>(std::countr_zero(rest));
      rest &= rest - 1;
      if ((nbr[v] & ~mask) != 0) ++boundary;
    }
    best[k] = std::min(best[k], boundary);
  }
  return best;
}

std::uint32_t search_guard_lower_bound(const graph::Graph& g) {
  const auto best = exhaustive_min_inner_boundary(g);
  std::uint32_t bound = 0;
  for (std::size_t k = 1; k + 1 < best.size(); ++k) {
    bound = std::max(bound, best[k]);
  }
  return bound;
}

}  // namespace hcs::core
