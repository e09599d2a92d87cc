#include "fault/reclean.hpp"

#include <algorithm>
#include <deque>

#include "graph/traversal.hpp"
#include "util/assert.hpp"

namespace hcs::fault {

namespace {

/// BFS tree from `source`: distances and parents over the whole graph.
void bfs_tree(const graph::Graph& g, graph::Vertex source,
              std::vector<std::uint32_t>& dist,
              std::vector<graph::Vertex>& parent) {
  dist.assign(g.num_nodes(), graph::kUnreachable);
  parent.assign(g.num_nodes(), source);
  std::deque<graph::Vertex> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const graph::Vertex u = queue.front();
    queue.pop_front();
    graph::for_each_neighbor(g, u, [&](graph::Vertex w) {
      if (dist[w] != graph::kUnreachable) return;
      dist[w] = dist[u] + 1;
      parent[w] = u;
      queue.push_back(w);
    });
  }
}

/// Clean nodes reachable from the homebase without entering contamination:
/// the surviving clean component the repair must not expose.
std::vector<bool> clean_component(const graph::Graph& g,
                                  graph::Vertex homebase,
                                  const std::vector<bool>& contaminated) {
  std::vector<bool> in(g.num_nodes(), false);
  if (contaminated[homebase]) return in;
  std::deque<graph::Vertex> queue{homebase};
  in[homebase] = true;
  while (!queue.empty()) {
    const graph::Vertex u = queue.front();
    queue.pop_front();
    graph::for_each_neighbor(g, u, [&](graph::Vertex w) {
      if (in[w] || contaminated[w]) return;
      in[w] = true;
      queue.push_back(w);
    });
  }
  return in;
}

}  // namespace

RecleanPlan plan_reclean(const graph::Graph& g, graph::Vertex homebase,
                         const std::vector<bool>& contaminated) {
  HCS_EXPECTS(contaminated.size() == g.num_nodes());
  HCS_EXPECTS(homebase < g.num_nodes());

  RecleanPlan plan;
  if (std::none_of(contaminated.begin(), contaminated.end(),
                   [](bool c) { return c; })) {
    return plan;
  }

  const std::vector<bool> surviving = clean_component(g, homebase, contaminated);
  std::vector<bool> dirty(g.num_nodes());
  for (graph::Vertex v = 0; v < g.num_nodes(); ++v) {
    dirty[v] = !surviving[v];
  }

  std::vector<std::uint32_t> dist;
  std::vector<graph::Vertex> parent;
  bfs_tree(g, homebase, dist, parent);

  // Stepping stones: surviving clean nodes with a dirty neighbour that lie
  // on some repair walk's interior. They must be guarded before a walk
  // passes through, or vacating them would re-flood the clean region.
  std::vector<bool> is_target(g.num_nodes(), false);
  const auto has_dirty_neighbor = [&](graph::Vertex v) {
    return graph::any_neighbor(g, v, [&](graph::Vertex w) { return dirty[w]; });
  };

  std::vector<graph::Vertex> dirty_targets;
  for (graph::Vertex v = 0; v < g.num_nodes(); ++v) {
    // Dirty nodes disconnected from the homebase in the full graph cannot
    // be repaired by any walk; leave them to the caller's retry budget.
    if (dirty[v] && dist[v] != graph::kUnreachable) {
      dirty_targets.push_back(v);
      is_target[v] = true;
    }
  }

  std::uint64_t frontier_guards = 0;
  for (graph::Vertex v : dirty_targets) {
    for (graph::Vertex u = parent[v]; ; u = parent[u]) {
      if (!dirty[u] && !is_target[u] && has_dirty_neighbor(u)) {
        is_target[u] = true;
        ++frontier_guards;
      }
      if (u == homebase) break;
    }
  }
  // The homebase is the interior of every walk; guard it if exposed.
  if (!dirty[homebase] && !is_target[homebase] &&
      has_dirty_neighbor(homebase)) {
    is_target[homebase] = true;
    ++frontier_guards;
  }

  std::vector<graph::Vertex> targets;
  for (graph::Vertex v = 0; v < g.num_nodes(); ++v) {
    if (is_target[v]) targets.push_back(v);
  }
  std::sort(targets.begin(), targets.end(),
            [&dist](graph::Vertex a, graph::Vertex b) {
              return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
            });

  plan.walks.reserve(targets.size());
  for (graph::Vertex t : targets) {
    RecleanWalk walk;
    walk.target_dirty = dirty[t];
    for (graph::Vertex u = t; ; u = parent[u]) {
      walk.path.push_back(u);
      if (u == homebase) break;
    }
    std::reverse(walk.path.begin(), walk.path.end());
    plan.planned_moves += walk.moves();
    plan.walks.push_back(std::move(walk));
  }
  plan.dirty_nodes = dirty_targets.size();
  plan.frontier_guards = frontier_guards;
  return plan;
}

}  // namespace hcs::fault
