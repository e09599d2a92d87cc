#include "intruder/intruder.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "graph/traversal.hpp"
#include "util/assert.hpp"
#include "util/strfmt.hpp"

namespace hcs::intruder {

namespace {

/// BFS over unguarded nodes reachable from `start`. If `start` itself just
/// became guarded, the intruder may still slip out through an unguarded
/// neighbour (it flees at the instant the agent arrives), so those seed the
/// search too.
std::vector<bool> unguarded_region(const sim::Network& net,
                                   graph::Vertex start) {
  std::vector<bool> reach(net.num_nodes(), false);
  std::deque<graph::Vertex> queue;
  if (net.status(start) != sim::NodeStatus::kGuarded) {
    reach[start] = true;
    queue.push_back(start);
  } else {
    graph::for_each_neighbor(net.graph(), start, [&](graph::Vertex w) {
      if (net.status(w) != sim::NodeStatus::kGuarded && !reach[w]) {
        reach[w] = true;
        queue.push_back(w);
      }
    });
  }
  while (!queue.empty()) {
    const graph::Vertex u = queue.front();
    queue.pop_front();
    graph::for_each_neighbor(net.graph(), u, [&](graph::Vertex w) {
      if (!reach[w] && net.status(w) != sim::NodeStatus::kGuarded) {
        reach[w] = true;
        queue.push_back(w);
      }
    });
  }
  return reach;
}

/// Multi-source BFS distance from the guarded set.
std::vector<std::uint32_t> distance_from_guards(const sim::Network& net) {
  std::vector<std::uint32_t> dist(net.num_nodes(), graph::kUnreachable);
  std::deque<graph::Vertex> queue;
  for (graph::Vertex v = 0; v < net.num_nodes(); ++v) {
    if (net.status(v) == sim::NodeStatus::kGuarded) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const graph::Vertex u = queue.front();
    queue.pop_front();
    graph::for_each_neighbor(net.graph(), u, [&](graph::Vertex w) {
      if (dist[w] == graph::kUnreachable) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    });
  }
  return dist;
}

}  // namespace

void Intruder::attach(sim::Network& net) {
  HCS_EXPECTS(net_ == nullptr && "attach() must be called exactly once");
  net_ = &net;
  position_ = choose_start(net);
  net.trace().record_lazy(
      sim::kTimeZero, sim::TraceKind::kCustom, sim::kNoAgent, position_,
      position_, [&] { return str_cat("intruder(", name(), ") starts here"); });
  net.add_status_callback(
      [this](graph::Vertex v, sim::NodeStatus s, sim::SimTime t) {
        if (!captured_) on_status(v, s, t);
      });
}

graph::Vertex Intruder::choose_start(const sim::Network& net) {
  const auto dist = graph::bfs_distances(net.graph(), net.homebase());
  graph::Vertex best = net.homebase();
  std::uint32_t best_d = 0;
  for (graph::Vertex v = 0; v < net.num_nodes(); ++v) {
    if (dist[v] != graph::kUnreachable && dist[v] > best_d &&
        net.status(v) == sim::NodeStatus::kContaminated) {
      best = v;
      best_d = dist[v];
    }
  }
  return best;
}

void Intruder::relocate(graph::Vertex v, sim::SimTime t) {
  if (v == position_) return;
  position_ = v;
  ++moves_;
  net_->trace().record_lazy(
      t, sim::TraceKind::kCustom, sim::kNoAgent, v, v,
      [&] { return str_cat("intruder(", name(), ") flees here"); });
}

void Intruder::mark_captured(sim::SimTime t) {
  if (captured_) return;
  captured_ = true;
  capture_time_ = t;
  net_->trace().record_lazy(
      t, sim::TraceKind::kCustom, sim::kNoAgent, position_, position_,
      [&] { return str_cat("intruder(", name(), ") captured"); });
}

// ---------------------------------------------------------- WorstCase

void WorstCaseIntruder::on_status(graph::Vertex /*v*/, sim::NodeStatus /*s*/,
                                  sim::SimTime t) {
  // The worst-case intruder *is* the contaminated region. Keep the nominal
  // position on a contaminated node; captured when the region is empty.
  if (net().status(position()) == sim::NodeStatus::kContaminated) return;
  for (graph::Vertex u = 0; u < net().num_nodes(); ++u) {
    if (net().status(u) == sim::NodeStatus::kContaminated) {
      relocate(u, t);
      return;
    }
  }
  mark_captured(t);
}

// --------------------------------------------------------- RandomFlee

void RandomFleeIntruder::on_status(graph::Vertex v, sim::NodeStatus s,
                                   sim::SimTime t) {
  if (v != position() || s != sim::NodeStatus::kGuarded) return;
  // An agent reached our node: flee through an unguarded neighbour,
  // contaminated ones first (entering a clean node would expose us to the
  // sweep's interior; a correct strategy never leaves one open anyway).
  std::vector<graph::Vertex> contaminated_exits;
  std::vector<graph::Vertex> clean_exits;
  graph::for_each_neighbor(net().graph(), v, [&](graph::Vertex w) {
    switch (net().status(w)) {
      case sim::NodeStatus::kContaminated:
        contaminated_exits.push_back(w);
        break;
      case sim::NodeStatus::kClean:
        clean_exits.push_back(w);
        break;
      case sim::NodeStatus::kGuarded:
        break;
    }
  });
  const auto& exits =
      !contaminated_exits.empty() ? contaminated_exits : clean_exits;
  if (exits.empty()) {
    mark_captured(t);
    return;
  }
  relocate(exits[rng_.below(exits.size())], t);
}

// ------------------------------------------------------- GreedyEscape

void GreedyEscapeIntruder::on_status(graph::Vertex v, sim::NodeStatus s,
                                     sim::SimTime t) {
  // React whenever the frontier tightens near us: if our node is guarded,
  // or a neighbour became guarded, re-evaluate the best hiding spot in the
  // reachable unguarded region.
  const bool relevant =
      (v == position() && s == sim::NodeStatus::kGuarded) ||
      (s == sim::NodeStatus::kGuarded && net().graph().has_edge(v, position()));
  if (!relevant) return;

  const std::vector<bool> region = unguarded_region(net(), position());
  const auto dist = distance_from_guards(net());
  bool found = false;
  graph::Vertex best = position();
  std::uint32_t best_d = 0;
  for (graph::Vertex u = 0; u < net().num_nodes(); ++u) {
    if (!region[u]) continue;
    const std::uint32_t du =
        dist[u] == graph::kUnreachable ? ~std::uint32_t{0} : dist[u];
    if (!found || du > best_d) {
      found = true;
      best = u;
      best_d = du;
    }
  }
  if (!found) {
    mark_captured(t);
  } else {
    relocate(best, t);
  }
}

}  // namespace hcs::intruder
