#include "graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace hcs::graph {

std::size_t Graph::degree(Vertex v) const {
  HCS_EXPECTS(v < num_nodes());
  if (hc_dim_ != 0) return hc_dim_;
  return offsets_[v + 1] - offsets_[v];
}

std::span<const HalfEdge> Graph::neighbors(Vertex v) const {
  HCS_EXPECTS(!is_hypercube() && "a hypercube stores no adjacency");
  HCS_EXPECTS(v < num_nodes());
  return {half_edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::optional<HalfEdge> Graph::edge_with_label(Vertex v,
                                               PortLabel label) const {
  if (hc_dim_ != 0) {
    HCS_EXPECTS(v < num_nodes());
    if (label < 1 || label > hc_dim_) return std::nullopt;
    return HalfEdge{label, static_cast<Vertex>(v ^ (Vertex{1} << (label - 1))),
                    label};
  }
  const auto nbrs = neighbors(v);
  const auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), label,
      [](const HalfEdge& he, PortLabel l) { return he.label < l; });
  if (it == nbrs.end() || it->label != label) return std::nullopt;
  return *it;
}

Vertex Graph::neighbor_via_generic(Vertex v, PortLabel label) const {
  const auto he = edge_with_label(v, label);
  HCS_EXPECTS(he.has_value());
  return he->to;
}

bool Graph::has_edge_generic(Vertex u, Vertex v) const {
  for (const HalfEdge& he : neighbors(u)) {
    if (he.to == v) return true;
  }
  return false;
}

PortLabel Graph::label_of_edge(Vertex u, Vertex v) const {
  if (hc_dim_ != 0) {
    HCS_EXPECTS(u < num_nodes() && v < num_nodes());
    HCS_EXPECTS(std::has_single_bit(u ^ v) &&
                "label_of_edge: no such edge");
    return static_cast<PortLabel>(std::countr_zero(u ^ v) + 1);
  }
  for (const HalfEdge& he : neighbors(u)) {
    if (he.to == v) return he.label;
  }
  HCS_EXPECTS(false && "label_of_edge: no such edge");
  return 0;  // unreachable
}

std::string Graph::node_name(Vertex v) const {
  HCS_EXPECTS(v < num_nodes());
  if (hc_dim_ != 0) return to_binary_string(v, hc_dim_);
  return names_.empty() ? std::string() : names_[v];
}

Graph Graph::without_topology_hint() const {
  if (hc_dim_ == 0) return *this;
  const unsigned d = hc_dim_;
  const std::size_t n = num_nodes();
  GraphBuilder b(n);
  for (std::size_t x = 0; x < n; ++x) {
    b.set_node_name(static_cast<Vertex>(x),
                    to_binary_string(static_cast<NodeId>(x), d));
    for (unsigned j = 1; j <= d; ++j) {
      const std::size_t y = x ^ (std::size_t{1} << (j - 1));
      if (x < y) {
        // Label = dimension (1-based), identical at both endpoints, per the
        // paper's lambda.
        b.add_edge(static_cast<Vertex>(x), static_cast<Vertex>(y), j, j);
      }
    }
  }
  return b.finalize();
}

GraphBuilder::GraphBuilder(std::size_t num_nodes)
    : num_nodes_(num_nodes), degrees_(num_nodes, 0) {}

void GraphBuilder::add_edge(Vertex u, Vertex v, PortLabel label_at_u,
                            PortLabel label_at_v) {
  HCS_EXPECTS(u < num_nodes_ && v < num_nodes_);
  HCS_EXPECTS(u != v && "self-loops are not allowed");
  edges_.push_back({u, v, label_at_u, label_at_v});
  ++degrees_[u];
  ++degrees_[v];
}

void GraphBuilder::add_edge_auto_ports(Vertex u, Vertex v) {
  HCS_EXPECTS(u < num_nodes_ && v < num_nodes_);
  add_edge(u, v, static_cast<PortLabel>(degrees_[u]),
           static_cast<PortLabel>(degrees_[v]));
}

void GraphBuilder::set_node_name(Vertex v, std::string name) {
  HCS_EXPECTS(v < num_nodes_);
  if (names_.empty()) names_.resize(num_nodes_);
  names_[v] = std::move(name);
}

Graph GraphBuilder::finalize() {
  Graph g;
  g.offsets_.assign(num_nodes_ + 1, 0);
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + degrees_[v];
  }
  g.half_edges_.resize(2 * edges_.size());

  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const PendingEdge& e : edges_) {
    g.half_edges_[cursor[e.u]++] = HalfEdge{e.label_u, e.v, e.label_v};
    g.half_edges_[cursor[e.v]++] = HalfEdge{e.label_v, e.u, e.label_u};
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    const auto begin = g.half_edges_.begin() +
                       static_cast<std::ptrdiff_t>(g.offsets_[v]);
    const auto end = g.half_edges_.begin() +
                     static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end, [](const HalfEdge& a, const HalfEdge& b) {
      return a.label < b.label;
    });
    // Port labels must be distinct per node, and parallel edges are not
    // allowed -- both would make agent navigation ambiguous.
    for (auto it = begin; it != end; ++it) {
      if (it + 1 != end) {
        HCS_ASSERT(it->label != (it + 1)->label &&
                   "duplicate port label at a node");
      }
      for (auto jt = it + 1; jt != end; ++jt) {
        HCS_ASSERT(it->to != jt->to && "parallel edges are not allowed");
      }
    }
  }
  g.names_ = std::move(names_);

  edges_.clear();
  degrees_.assign(num_nodes_, 0);
  names_.clear();
  return g;
}

}  // namespace hcs::graph
