// Standard topology generators.
//
// All builders produce port-labelled Graphs. The hypercube builder uses the
// paper's labelling (label = 1-based dimension of the differing bit, equal
// at both endpoints); other builders use conventional per-node port
// numbering unless stated otherwise.

#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace hcs::graph {

/// d-dimensional hypercube H_d: nodes are the masks 0..2^d-1, edge labels
/// are the differing bit position (1-based), node names are the binary
/// strings of the ids. The Graph holds only d (see Graph); O(1) at any d.
[[nodiscard]] Graph make_hypercube(unsigned d);

/// Path P_n: 0 - 1 - ... - n-1.
[[nodiscard]] Graph make_path(std::size_t n);

/// Cycle C_n (n >= 3).
[[nodiscard]] Graph make_ring(std::size_t n);

/// Complete graph K_n.
[[nodiscard]] Graph make_complete(std::size_t n);

/// rows x cols grid (4-neighbour mesh).
[[nodiscard]] Graph make_grid(std::size_t rows, std::size_t cols);

/// rows x cols torus (wrap-around mesh); rows, cols >= 3.
[[nodiscard]] Graph make_torus(std::size_t rows, std::size_t cols);

/// Complete k-ary tree of the given height (height 0 = single node).
[[nodiscard]] Graph make_complete_kary_tree(std::size_t arity,
                                            unsigned height);

/// The broadcast tree T(d) of H_d *as a standalone tree graph* (node ids are
/// the hypercube masks). Used for the tree-only baseline.
[[nodiscard]] Graph make_broadcast_tree_graph(unsigned d);

/// Cube-connected cycles CCC(d): each hypercube node is replaced by a
/// d-cycle; node (x, i) links to (x, i+-1 mod d) and across dimension i+1 to
/// (x ^ 2^i, i). 3-regular for d >= 3. Index of (x, i) is x*d + i.
[[nodiscard]] Graph make_cube_connected_cycles(unsigned d);

/// Star S_n: node 0 joined to nodes 1..n-1.
[[nodiscard]] Graph make_star(std::size_t n);

/// Butterfly network BF(d): (d+1) * 2^d nodes (level i, word w), with
/// straight edges (i, w)-(i+1, w) and cross edges (i, w)-(i+1, w ^ 2^i).
/// Index of (i, w) is i * 2^d + w. Degree 2 at the boundary levels, 4
/// inside. A classic constant-degree cousin of the hypercube.
[[nodiscard]] Graph make_butterfly(unsigned d);

/// The Petersen graph: 10 nodes, 3-regular, girth 5. Outer ring 0..4,
/// inner pentagram 5..9.
[[nodiscard]] Graph make_petersen();

/// Connected Erdos-Renyi-style random graph: a random spanning tree plus
/// each remaining pair independently with probability p.
[[nodiscard]] Graph make_random_connected(std::size_t n, double p, Rng& rng);

/// Uniformly random labelled tree on n nodes (Pruefer sequence decode).
[[nodiscard]] Graph make_random_tree(std::size_t n, Rng& rng);

}  // namespace hcs::graph
