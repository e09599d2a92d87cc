// The d-dimensional hypercube H_d, in the paper's vocabulary (Section 2
// and Section 4.1).
//
// Nodes are d-bit masks (NodeId). Two nodes are adjacent iff they differ in
// exactly one bit; the label of the edge, at both endpoints, is the 1-based
// position of that bit (lambda). Key derived notions:
//
//   level(x)  = number of 1 bits (the paper organizes H_d into d+1 levels);
//   m(x)      = position of the most significant bit (m(0) = 0);
//   class C_i = { x : m(x) = i } (Section 4.1);
//   smaller neighbour of x: differs in a position <= m(x);
//   bigger neighbour of x:  differs in a position  > m(x)
//                           (these are x's children in the broadcast tree).
//
// This class is a *view*: it stores only d and computes everything with bit
// arithmetic, so it is free to copy and trivially thread-safe. to_graph()
// gives the port-labelled Graph the simulator runs on, which is just as
// implicit: it too holds only d.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/bitops.hpp"

namespace hcs {

class Hypercube {
 public:
  explicit Hypercube(unsigned dimension);

  [[nodiscard]] unsigned dimension() const { return d_; }

  /// n = 2^d.
  [[nodiscard]] std::uint64_t num_nodes() const {
    return std::uint64_t{1} << d_;
  }

  /// d * 2^(d-1).
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(d_) << (d_ - 1);
  }

  [[nodiscard]] bool contains(NodeId x) const { return x < num_nodes(); }

  /// The all-zero homebase (the source / broadcast-tree root).
  [[nodiscard]] static constexpr NodeId source() { return 0; }

  /// True iff x and y differ in exactly one bit.
  [[nodiscard]] bool adjacent(NodeId x, NodeId y) const;

  /// The paper's lambda_x(x, y): position of the differing bit. Requires
  /// adjacent(x, y); symmetric in its arguments.
  [[nodiscard]] BitPos edge_label(NodeId x, NodeId y) const;

  /// Neighbour of x across dimension j (1 <= j <= d).
  [[nodiscard]] NodeId neighbor(NodeId x, BitPos j) const;

  /// All d neighbours, in dimension order 1..d.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId x) const;

  /// Hamming distance (shortest-path length).
  [[nodiscard]] unsigned distance(NodeId x, NodeId y) const;

  /// level(x) = popcount(x).
  [[nodiscard]] unsigned level(NodeId x) const { return popcount(x); }

  /// The paper's m(x); m(0) == 0.
  [[nodiscard]] BitPos msb(NodeId x) const { return msb_position(x); }

  /// Class index i such that x is in C_i; identical to msb(x).
  [[nodiscard]] BitPos class_of(NodeId x) const { return msb_position(x); }

  /// Smaller neighbours of x: differ in a position <= m(x), dimension order.
  [[nodiscard]] std::vector<NodeId> smaller_neighbors(NodeId x) const;

  /// Bigger neighbours of x: differ in a position > m(x), dimension order.
  /// These are exactly the broadcast-tree children of x.
  [[nodiscard]] std::vector<NodeId> bigger_neighbors(NodeId x) const;

  /// All nodes of level l, in increasing numeric order -- which, for
  /// fixed-width msb-first binary strings, is the lexicographic order the
  /// synchronizer uses in Algorithm CLEAN (step 2.2).
  [[nodiscard]] std::vector<NodeId> level_nodes(unsigned l) const;

  /// All nodes of class C_i, increasing numeric order.
  [[nodiscard]] std::vector<NodeId> class_nodes(BitPos i) const;

  /// Number of nodes at level l: C(d, l).
  [[nodiscard]] std::uint64_t level_size(unsigned l) const;

  /// Number of nodes in class C_i (Property 5): 1 for i = 0, else 2^(i-1).
  [[nodiscard]] std::uint64_t class_size(BitPos i) const;

  /// The port-labelled Graph of H_d (node v == mask v); O(1), like this
  /// view.
  [[nodiscard]] graph::Graph to_graph() const;

 private:
  unsigned d_;
};

}  // namespace hcs
