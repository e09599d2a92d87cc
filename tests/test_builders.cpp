#include "graph/builders.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "graph/traversal.hpp"

namespace hcs::graph {
namespace {

TEST(Builders, HypercubeStructure) {
  for (unsigned d = 1; d <= 8; ++d) {
    const Graph g = make_hypercube(d);
    const std::size_t n = std::size_t{1} << d;
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), d * n / 2);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(g.degree(v), d);
      // Edge labels are the 1-based differing-bit positions and agree at
      // both endpoints (the paper's lambda).
      for (PortLabel j = 1; j <= d; ++j) {
        const Vertex w = g.neighbor_via(v, j);
        EXPECT_EQ(g.label_of_edge(w, v), j);
        EXPECT_EQ(std::size_t{v} ^ w, std::size_t{1} << (j - 1));
      }
    }
    EXPECT_TRUE(is_connected(g));
  }
}

/// The paper's name of node x in H_d: its d-bit string, msb first.
std::string bit_string(Vertex x, unsigned d) {
  std::string s;
  for (unsigned j = d; j >= 1; --j) s += ((x >> (j - 1)) & 1) ? '1' : '0';
  return s;
}

TEST(Builders, HypercubeNamesAreBinaryStrings) {
  const Graph g = make_hypercube(3);
  EXPECT_EQ(g.node_name(0), "000");
  EXPECT_EQ(g.node_name(5), "101");
  EXPECT_EQ(g.node_name(7), "111");
  for (unsigned d = 1; d <= 12; ++d) {
    const Graph h = make_hypercube(d);
    const Graph csr = h.without_topology_hint();
    for (Vertex v = 0; v < h.num_nodes(); ++v) {
      ASSERT_EQ(h.node_name(v), bit_string(v, d)) << "d=" << d;
      ASSERT_EQ(csr.node_name(v), bit_string(v, d)) << "d=" << d;
    }
  }
}

std::vector<Vertex> neighbor_list(const Graph& g, Vertex v) {
  std::vector<Vertex> out;
  for_each_neighbor(g, v, [&](Vertex w) { out.push_back(w); });
  return out;
}

// The implicit hypercube (a Graph that is only its dimension) against the
// explicit compressed-adjacency build of the same H_d: every query the
// simulator and the graph algorithms make must agree, node by node.
TEST(Builders, ImplicitHypercubeMatchesExplicitAdjacency) {
  for (unsigned d = 1; d <= 12; ++d) {
    const Graph h = make_hypercube(d);
    const Graph csr = h.without_topology_hint();
    ASSERT_EQ(h.hypercube_dim(), d);
    ASSERT_FALSE(csr.is_hypercube());
    const std::size_t n = h.num_nodes();
    ASSERT_EQ(n, std::size_t{1} << d);
    ASSERT_EQ(csr.num_nodes(), n);
    ASSERT_EQ(h.num_edges(), csr.num_edges());
    ASSERT_EQ(h.total_degree(), csr.total_degree());
    const auto out_of_range = static_cast<Vertex>(n);
    for (Vertex v = 0; v < n; ++v) {
      const std::string at = "d=" + std::to_string(d) + " v=" + std::to_string(v);
      ASSERT_EQ(h.degree(v), csr.degree(v)) << at;
      const std::vector<Vertex> nbrs = neighbor_list(h, v);
      ASSERT_EQ(nbrs, neighbor_list(csr, v)) << at;
      for (PortLabel j = 0; j <= d + 1; ++j) {
        ASSERT_EQ(h.edge_with_label(v, j), csr.edge_with_label(v, j))
            << at << " label " << j;
        if (j >= 1 && j <= d) {
          ASSERT_EQ(h.neighbor_via(v, j), csr.neighbor_via(v, j)) << at;
        }
      }
      for (const Vertex w : nbrs) {
        ASSERT_TRUE(h.has_edge(v, w) && csr.has_edge(v, w)) << at;
        ASSERT_EQ(h.label_of_edge(v, w), csr.label_of_edge(v, w)) << at;
      }
      // Other endpoints: the node itself, a distance-2 node, the antipode
      // (a neighbour only in H_1), and endpoints past the last node.
      const std::vector<Vertex> others = {
          v, static_cast<Vertex>(v ^ 3u), static_cast<Vertex>(~v & (n - 1)),
          out_of_range, static_cast<Vertex>(v | out_of_range), ~Vertex{0}};
      for (const Vertex w : others) {
        ASSERT_EQ(h.has_edge(v, w), csr.has_edge(v, w)) << at << " w=" << w;
      }
      // The implicit cube answers an out-of-range first endpoint too.
      ASSERT_FALSE(h.has_edge(out_of_range, v)) << at;
      ASSERT_FALSE(h.has_edge(~Vertex{0}, v)) << at;
    }
  }
}

/// Resident set size of this process in kB (Linux /proc/self/status).
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// A hypercube Graph stores nothing per node: H_22 (4M nodes, 46M
// half-edges in adjacency form) must cost no memory to build and still
// answer every query.
TEST(Builders, HypercubeIsConstantSize) {
  const long before = vm_rss_kb();
  ASSERT_GT(before, 0);
  const Graph g = make_hypercube(22);
  const long after = vm_rss_kb();
  EXPECT_LT(after - before, 16 * 1024) << "make_hypercube(22) grew RSS";

  const std::size_t n = std::size_t{1} << 22;
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), std::size_t{22} << 21);
  EXPECT_EQ(g.total_degree(), std::size_t{22} << 22);
  const auto last = static_cast<Vertex>(n - 1);
  EXPECT_EQ(g.degree(last), 22u);
  std::vector<Vertex> expected;
  for (unsigned j = 0; j < 22; ++j) expected.push_back(last ^ (Vertex{1} << j));
  EXPECT_EQ(neighbor_list(g, last), expected);
  EXPECT_EQ(g.neighbor_via(0, 22), Vertex{1} << 21);
  EXPECT_EQ(g.edge_with_label(last, 22),
            (HalfEdge{22, last ^ (Vertex{1} << 21), 22}));
  EXPECT_FALSE(g.edge_with_label(last, 0).has_value());
  EXPECT_FALSE(g.edge_with_label(last, 23).has_value());
  EXPECT_TRUE(g.has_edge(0, Vertex{1} << 21));
  EXPECT_FALSE(g.has_edge(0, Vertex{1} << 22));
  EXPECT_FALSE(g.has_edge(Vertex{1} << 22, 0));
  EXPECT_EQ(g.label_of_edge(last, last ^ 16u), 5u);
  EXPECT_EQ(g.node_name(last), std::string(22, '1'));
  EXPECT_EQ(g.node_name(5), bit_string(5, 22));
}

TEST(Builders, PathRingComplete) {
  const Graph p = make_path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_TRUE(is_tree(p));
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);

  const Graph r = make_ring(6);
  EXPECT_EQ(r.num_edges(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(r.degree(v), 2u);
  EXPECT_TRUE(is_connected(r));

  const Graph k = make_complete(5);
  EXPECT_EQ(k.num_edges(), 10u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(k.degree(v), 4u);
}

TEST(Builders, GridAndTorus) {
  const Graph grid = make_grid(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 3u * 3 + 4u * 2);  // 9 horizontal + 8 vertical
  EXPECT_EQ(grid.degree(0), 2u);                 // corner
  EXPECT_EQ(grid.degree(5), 4u);                 // interior
  EXPECT_TRUE(is_connected(grid));

  const Graph torus = make_torus(3, 4);
  EXPECT_EQ(torus.num_nodes(), 12u);
  EXPECT_EQ(torus.num_edges(), 24u);
  for (Vertex v = 0; v < 12; ++v) EXPECT_EQ(torus.degree(v), 4u);
}

TEST(Builders, CompleteKaryTree) {
  const Graph t = make_complete_kary_tree(3, 2);  // 1 + 3 + 9
  EXPECT_EQ(t.num_nodes(), 13u);
  EXPECT_TRUE(is_tree(t));
  EXPECT_EQ(t.degree(0), 3u);

  const Graph unary = make_complete_kary_tree(1, 4);
  EXPECT_EQ(unary.num_nodes(), 5u);
  EXPECT_TRUE(is_tree(unary));
}

TEST(Builders, BroadcastTreeGraphIsSpanningTree) {
  for (unsigned d = 1; d <= 8; ++d) {
    const Graph t = make_broadcast_tree_graph(d);
    EXPECT_EQ(t.num_nodes(), std::size_t{1} << d);
    EXPECT_TRUE(is_tree(t));
    // The root has degree d (its d bigger neighbours).
    EXPECT_EQ(t.degree(0), d);
  }
}

TEST(Builders, CubeConnectedCycles) {
  const unsigned d = 3;
  const Graph ccc = make_cube_connected_cycles(d);
  EXPECT_EQ(ccc.num_nodes(), (std::size_t{1} << d) * d);
  EXPECT_TRUE(is_connected(ccc));
  for (Vertex v = 0; v < ccc.num_nodes(); ++v) {
    EXPECT_EQ(ccc.degree(v), 3u) << "CCC(d>=3) is 3-regular, node " << v;
  }
}

TEST(Builders, Star) {
  const Graph s = make_star(7);
  EXPECT_TRUE(is_tree(s));
  EXPECT_EQ(s.degree(0), 6u);
  for (Vertex v = 1; v < 7; ++v) EXPECT_EQ(s.degree(v), 1u);
}

TEST(Builders, Butterfly) {
  const unsigned d = 3;
  const graph::Graph bf = make_butterfly(d);
  EXPECT_EQ(bf.num_nodes(), (d + 1) * 8u);
  EXPECT_EQ(bf.num_edges(), d * 8u * 2u);
  EXPECT_TRUE(is_connected(bf));
  // Boundary levels have degree 2, inner levels degree 4.
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(bf.degree(static_cast<Vertex>(w)), 2u);
    EXPECT_EQ(bf.degree(static_cast<Vertex>(d * 8 + w)), 2u);
    EXPECT_EQ(bf.degree(static_cast<Vertex>(8 + w)), 4u);
  }
}

TEST(Builders, Petersen) {
  const graph::Graph p = make_petersen();
  EXPECT_EQ(p.num_nodes(), 10u);
  EXPECT_EQ(p.num_edges(), 15u);
  EXPECT_TRUE(is_connected(p));
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(p.degree(v), 3u);
  // Girth 5: no triangles or 4-cycles through node 0 (spot check: none of
  // 0's neighbours are adjacent to each other).
  const auto n0 = p.neighbors(0);
  for (const auto& a : n0) {
    for (const auto& b : n0) {
      if (a.to != b.to) EXPECT_FALSE(p.has_edge(a.to, b.to));
    }
  }
}

TEST(Builders, RandomConnectedIsConnected) {
  Rng rng(42);
  for (int round = 0; round < 10; ++round) {
    const Graph g = make_random_connected(20, 0.1, rng);
    EXPECT_EQ(g.num_nodes(), 20u);
    EXPECT_GE(g.num_edges(), 19u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Builders, RandomTreeIsTree) {
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 3u, 10u, 40u}) {
    const Graph t = make_random_tree(n, rng);
    EXPECT_EQ(t.num_nodes(), n);
    EXPECT_TRUE(is_tree(t)) << "n=" << n;
  }
}

}  // namespace
}  // namespace hcs::graph
