#include "graph/traversal.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace hcs::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  HCS_EXPECTS(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<Vertex> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for_each_neighbor(g, u, [&](Vertex w) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    });
  }
  return dist;
}

std::vector<Vertex> bfs_order(const Graph& g, Vertex source) {
  HCS_EXPECTS(source < g.num_nodes());
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<Vertex> order;
  order.reserve(g.num_nodes());
  std::deque<Vertex> queue{source};
  seen[source] = true;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for_each_neighbor(g, u, [&](Vertex w) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    });
  }
  return order;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  return bfs_order(g, 0).size() == g.num_nodes();
}

bool is_tree(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  return is_connected(g) && g.num_edges() == g.num_nodes() - 1;
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> comp(g.num_nodes(), kUnreachable);
  std::uint32_t next_id = 0;
  for (Vertex s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next_id;
    std::deque<Vertex> queue{s};
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for_each_neighbor(g, u, [&](Vertex w) {
        if (comp[w] == kUnreachable) {
          comp[w] = next_id;
          queue.push_back(w);
        }
      });
    }
    ++next_id;
  }
  return comp;
}

std::vector<bool> reachable_without(const Graph& g,
                                    const std::vector<Vertex>& sources,
                                    const std::vector<bool>& blocked) {
  HCS_EXPECTS(blocked.size() == g.num_nodes());
  std::vector<bool> reached(g.num_nodes(), false);
  std::deque<Vertex> queue;
  for (Vertex s : sources) {
    HCS_EXPECTS(s < g.num_nodes());
    if (!blocked[s] && !reached[s]) {
      reached[s] = true;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for_each_neighbor(g, u, [&](Vertex w) {
      if (!blocked[w] && !reached[w]) {
        reached[w] = true;
        queue.push_back(w);
      }
    });
  }
  return reached;
}

bool is_connected_subset(const Graph& g, const std::vector<bool>& members) {
  HCS_EXPECTS(members.size() == g.num_nodes());
  Vertex start = static_cast<Vertex>(g.num_nodes());
  std::size_t member_count = 0;
  for (Vertex v = 0; v < g.num_nodes(); ++v) {
    if (members[v]) {
      if (start == g.num_nodes()) start = v;
      ++member_count;
    }
  }
  if (member_count <= 1) return true;

  std::vector<bool> seen(g.num_nodes(), false);
  std::deque<Vertex> queue{start};
  seen[start] = true;
  std::size_t visited = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    ++visited;
    for_each_neighbor(g, u, [&](Vertex w) {
      if (members[w] && !seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    });
  }
  return visited == member_count;
}

std::vector<Vertex> shortest_path(const Graph& g, Vertex from, Vertex to) {
  std::vector<bool> allowed(g.num_nodes(), true);
  auto path = shortest_path_within(g, from, to, allowed);
  HCS_ENSURES(!path.empty());
  return path;
}

std::vector<Vertex> shortest_path_within(const Graph& g, Vertex from,
                                         Vertex to,
                                         const std::vector<bool>& allowed) {
  HCS_EXPECTS(from < g.num_nodes() && to < g.num_nodes());
  HCS_EXPECTS(allowed.size() == g.num_nodes());
  if (!allowed[from] || !allowed[to]) return {};
  if (from == to) return {from};

  std::vector<Vertex> parent(g.num_nodes(), static_cast<Vertex>(g.num_nodes()));
  std::deque<Vertex> queue{from};
  parent[from] = from;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    const bool found = any_neighbor(g, u, [&](Vertex v) {
      if (!allowed[v] || parent[v] != g.num_nodes()) return false;
      parent[v] = u;
      if (v == to) return true;
      queue.push_back(v);
      return false;
    });
    if (found) {
      std::vector<Vertex> path{to};
      for (Vertex w = to; w != from; w = parent[w]) path.push_back(parent[w]);
      std::reverse(path.begin(), path.end());
      return path;
    }
  }
  return {};
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t dv : bfs_distances(g, v)) {
      HCS_ASSERT(dv != kUnreachable && "diameter requires a connected graph");
      best = std::max(best, dv);
    }
  }
  return best;
}

}  // namespace hcs::graph
