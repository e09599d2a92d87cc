// Port-labelled undirected graphs.
//
// The paper's model (Section 2) is a network (G, lambda): at each node x
// there is a distinct label lambda_x(x, z) on each incident edge (x, z), and
// agents navigate by choosing a label, not a neighbour id. In the hypercube
// the label at both endpoints is the dimension -- the position of the bit in
// which the endpoints differ -- but the simulation substrate works for any
// port-labelled graph, so baselines and tests can run on trees, rings,
// grids, etc.
//
// Graph is immutable after construction (build with GraphBuilder): the
// simulator shares one Graph across many agents/threads, and immutability is
// what makes that sharing trivially safe (Core Guidelines CP.mess/CP.3:
// minimize shared writable data).

#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace hcs::graph {

/// Dense node index in a Graph: 0 .. num_nodes()-1.
using Vertex = std::uint32_t;

/// Edge label as seen from one endpoint (the paper's lambda_x(x, z)).
/// Labels must be distinct among the edges incident to a single node.
using PortLabel = std::uint32_t;

/// One incident edge as seen from a node: the label at this endpoint, the
/// neighbour it leads to, and the label of the same edge at the neighbour's
/// endpoint (what the agent sees after crossing).
struct HalfEdge {
  PortLabel label;
  Vertex to;
  PortLabel label_at_other_end;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

class GraphBuilder;

/// Immutable port-labelled undirected graph.
///
/// A hypercube built by make_hypercube is its dimension and nothing else
/// (hypercube_dim() != 0): node ids are the paper's d-bit strings, the
/// neighbour across port j (1-based) is `v ^ (1 << (j-1))`, the label is
/// identical at both endpoints, and every query -- counts, degree,
/// neighbor_via, has_edge, label_of_edge, edge_with_label, node_name --
/// is bit arithmetic on d, so H_d costs O(1) memory at any d. Other
/// graphs (trees, rings, grids, ...) are stored in compressed adjacency
/// form and served from it; without_topology_hint() builds that form for
/// a hypercube, as the explicit reference the differential tests compare
/// the implicit one against. Code that walks adjacency uses
/// for_each_neighbor / any_neighbor, which serve both; neighbors() exists
/// for generic graphs only.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_nodes() const {
    if (hc_dim_ != 0) return std::size_t{1} << hc_dim_;
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return total_degree() / 2; }

  [[nodiscard]] std::size_t degree(Vertex v) const;

  /// Incident edges of v, sorted by label. Generic graphs only: a
  /// hypercube stores no adjacency (use for_each_neighbor).
  [[nodiscard]] std::span<const HalfEdge> neighbors(Vertex v) const;

  /// The half-edge at v with the given label, if any (O(1) for hypercubes,
  /// binary search otherwise).
  [[nodiscard]] std::optional<HalfEdge> edge_with_label(Vertex v,
                                                        PortLabel label) const;

  /// The neighbour reached from v via `label`; aborts if no such port.
  /// Inline: the hypercube case is two bit ops and sits inside the
  /// per-move validation of the simulation hot path.
  [[nodiscard]] Vertex neighbor_via(Vertex v, PortLabel label) const {
    if (hc_dim_ != 0) {
      HCS_EXPECTS(v < num_nodes());
      HCS_EXPECTS(label >= 1 && label <= hc_dim_);
      return static_cast<Vertex>(v ^ (Vertex{1} << (label - 1)));
    }
    return neighbor_via_generic(v, label);
  }

  /// True iff (u, v) is an edge (O(1) for hypercubes, linear in degree(u)
  /// otherwise). Inline for the same reason as neighbor_via: the
  /// visibility rule's status() contract checks it per neighbour per step.
  /// On hypercubes an out-of-range endpoint is simply not an edge: a move
  /// target read from a corrupted whiteboard can be any value, and the
  /// engine's invalid-target guard crash-stops the agent on `false`.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    if (hc_dim_ != 0) {
      // Power-of-two test spelled as ALU ops: std::has_single_bit lowers
      // to a libgcc __popcountdi2 call on baseline x86-64, and this check
      // runs per neighbour probe in the visibility rule.
      const Vertex diff = u ^ v;
      return ((u | v) >> hc_dim_) == 0 && diff != 0 &&
             (diff & (diff - 1)) == 0;
    }
    return has_edge_generic(u, v);
  }

  /// The label at u of edge (u, v); aborts if (u, v) is not an edge.
  [[nodiscard]] PortLabel label_of_edge(Vertex u, Vertex v) const;

  /// Human-readable node name: the d-bit string of v for hypercubes, the
  /// name given to GraphBuilder::set_node_name otherwise ("" if none).
  [[nodiscard]] std::string node_name(Vertex v) const;

  /// Total degree summed over nodes (== 2 * num_edges()).
  [[nodiscard]] std::size_t total_degree() const {
    if (hc_dim_ != 0) return std::size_t{hc_dim_} << hc_dim_;
    return half_edges_.size();
  }

  /// Non-zero iff this graph is an implicit hypercube; the value is its
  /// dimension d.
  [[nodiscard]] unsigned hypercube_dim() const { return hc_dim_; }
  [[nodiscard]] bool is_hypercube() const { return hc_dim_ != 0; }

  /// The same graph in explicit compressed adjacency form, served
  /// exclusively through the generic path: for a hypercube, the one
  /// explicit CSR build of H_d (O(d 2^d) memory); for any other graph, a
  /// copy. Ablation/test hook -- the differential suite proves both
  /// paths byte-equivalent.
  [[nodiscard]] Graph without_topology_hint() const;

 private:
  friend class GraphBuilder;
  friend Graph make_hypercube(unsigned d);  // graph/builders.hpp

  [[nodiscard]] Vertex neighbor_via_generic(Vertex v, PortLabel label) const;
  [[nodiscard]] bool has_edge_generic(Vertex u, Vertex v) const;

  // Compressed adjacency; all three stay empty for a hypercube.
  std::vector<std::size_t> offsets_;   // size num_nodes()+1
  std::vector<HalfEdge> half_edges_;   // grouped by node, sorted by label
  std::vector<std::string> names_;     // may be empty
  unsigned hc_dim_ = 0;                // 0 = generic graph
};

/// Visits the neighbours of v in port-label order, invoking fn(Vertex).
/// Dispatches to the implicit xor loop for hypercubes (label j leads to
/// v ^ (1 << (j-1)), so ascending j matches the label-sorted span order)
/// and to the adjacency span otherwise.
template <typename Fn>
void for_each_neighbor(const Graph& g, Vertex v, Fn&& fn) {
  if (const unsigned d = g.hypercube_dim(); d != 0) {
    for (unsigned j = 0; j < d; ++j) fn(static_cast<Vertex>(v ^ (Vertex{1} << j)));
  } else {
    for (const HalfEdge& he : g.neighbors(v)) fn(he.to);
  }
}

/// True iff fn(neighbour) returns true for some neighbour of v; stops at
/// the first hit. Same visit order as for_each_neighbor.
template <typename Fn>
bool any_neighbor(const Graph& g, Vertex v, Fn&& fn) {
  if (const unsigned d = g.hypercube_dim(); d != 0) {
    for (unsigned j = 0; j < d; ++j) {
      if (fn(static_cast<Vertex>(v ^ (Vertex{1} << j)))) return true;
    }
    return false;
  }
  for (const HalfEdge& he : g.neighbors(v)) {
    if (fn(he.to)) return true;
  }
  return false;
}

/// Mutable edge accumulator; finalize() produces an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Adds undirected edge (u, v) with endpoint labels. Aborts on self-loop,
  /// duplicate edge, or duplicate label at an endpoint (checked in
  /// finalize()).
  void add_edge(Vertex u, Vertex v, PortLabel label_at_u, PortLabel label_at_v);

  /// Adds an edge labelled with the current degree at each endpoint -- the
  /// conventional "ports are 0..deg-1" numbering.
  void add_edge_auto_ports(Vertex u, Vertex v);

  /// Optional display name for a node.
  void set_node_name(Vertex v, std::string name);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Validates labels and produces the immutable Graph. The builder is left
  /// empty afterwards.
  [[nodiscard]] Graph finalize();

 private:
  struct PendingEdge {
    Vertex u, v;
    PortLabel label_u, label_v;
  };

  std::size_t num_nodes_;
  std::vector<PendingEdge> edges_;
  std::vector<std::size_t> degrees_;
  std::vector<std::string> names_;
};

}  // namespace hcs::graph
