#include "core/optimal.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <unordered_map>

#include "graph/traversal.hpp"
#include "util/assert.hpp"

namespace hcs::core {

namespace {

struct QueueEntry {
  std::uint32_t cost;
  std::uint64_t mask;
  bool operator>(const QueueEntry& other) const {
    return cost > other.cost;
  }
};

}  // namespace

std::uint32_t boundary_guards(const graph::Graph& g,
                              std::uint64_t clean_mask) {
  const auto n = static_cast<unsigned>(g.num_nodes());
  std::uint32_t guards = 0;
  for (unsigned v = 0; v < n; ++v) {
    if (!((clean_mask >> v) & 1)) continue;
    if (graph::any_neighbor(g, v, [&](graph::Vertex w) {
          return !((clean_mask >> w) & 1);
        })) {
      ++guards;
    }
  }
  return guards;
}

namespace {

/// Shared minimax-Dijkstra engine: grows the clean mask one node at a
/// time; `connected_growth` restricts candidates to neighbours of the
/// current mask (the contiguous model) or allows any node (the classical
/// model). `starts` seeds the frontier (one fixed homebase, or every
/// single-node set).
OptimalResult minimax_search(const graph::Graph& g,
                             const std::vector<std::uint64_t>& starts,
                             bool connected_growth) {
  const auto n = static_cast<unsigned>(g.num_nodes());
  const std::uint64_t full = ((std::uint64_t{1} << n) - 1);

  std::unordered_map<std::uint64_t, std::uint32_t> dist;
  std::unordered_map<std::uint64_t, std::uint64_t> pred;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;

  for (std::uint64_t start : starts) {
    const std::uint32_t c = boundary_guards(g, start);
    const auto it = dist.find(start);
    if (it == dist.end() || c < it->second) {
      dist[start] = c;
      queue.push({c, start});
    }
  }

  std::uint64_t reached_start = 0;
  while (!queue.empty()) {
    const auto [cost, mask] = queue.top();
    queue.pop();
    const auto it = dist.find(mask);
    if (it == dist.end() || it->second < cost) continue;  // stale
    if (mask == full) break;

    std::uint64_t candidates = 0;
    if (connected_growth) {
      for (unsigned v = 0; v < n; ++v) {
        if (!((mask >> v) & 1)) continue;
        graph::for_each_neighbor(g, v, [&](graph::Vertex w) {
          if (!((mask >> w) & 1)) candidates |= std::uint64_t{1} << w;
        });
      }
    } else {
      candidates = full & ~mask;
    }
    for (unsigned u = 0; u < n; ++u) {
      if (!((candidates >> u) & 1)) continue;
      const std::uint64_t next = mask | (std::uint64_t{1} << u);
      const std::uint32_t next_cost =
          std::max(cost, boundary_guards(g, next));
      const auto dit = dist.find(next);
      if (dit == dist.end() || next_cost < dit->second) {
        dist[next] = next_cost;
        pred[next] = mask;
        queue.push({next_cost, next});
      }
    }
  }

  OptimalResult result;
  const auto fit = dist.find(full);
  HCS_ASSERT(fit != dist.end() && "graph must be searchable");
  result.search_number = fit->second;

  // Reconstruct the insertion order by walking predecessors.
  std::vector<graph::Vertex> reversed;
  std::uint64_t mask = full;
  while (pred.contains(mask)) {
    const std::uint64_t prev = pred.at(mask);
    const std::uint64_t added = mask ^ prev;
    reversed.push_back(static_cast<graph::Vertex>(std::countr_zero(added)));
    mask = prev;
  }
  reached_start = mask;  // one of `starts`
  result.order.push_back(
      static_cast<graph::Vertex>(std::countr_zero(reached_start)));
  for (auto it2 = reversed.rbegin(); it2 != reversed.rend(); ++it2) {
    result.order.push_back(*it2);
  }
  HCS_ENSURES(result.order.size() == n);
  return result;
}

}  // namespace

OptimalResult optimal_connected_search(const graph::Graph& g,
                                       graph::Vertex homebase) {
  const auto n = static_cast<unsigned>(g.num_nodes());
  HCS_EXPECTS(n >= 1 && n <= 24);
  HCS_EXPECTS(homebase < n);
  HCS_EXPECTS(graph::is_connected(g));
  return minimax_search(g, {std::uint64_t{1} << homebase},
                        /*connected_growth=*/true);
}

OptimalResult optimal_unrestricted_search(const graph::Graph& g) {
  const auto n = static_cast<unsigned>(g.num_nodes());
  HCS_EXPECTS(n >= 1 && n <= 24);
  HCS_EXPECTS(graph::is_connected(g));
  std::vector<std::uint64_t> starts;
  starts.reserve(n);
  for (unsigned v = 0; v < n; ++v) starts.push_back(std::uint64_t{1} << v);
  return minimax_search(g, starts, /*connected_growth=*/false);
}

}  // namespace hcs::core
