// The exhaustive optimal connected monotone node search (the quantity of
// the paper's Section 5 open problem) on graphs whose optimum is known.

#include "core/optimal.hpp"

#include <gtest/gtest.h>

#include "core/formulas.hpp"
#include "graph/builders.hpp"
#include "intruder/contamination.hpp"

namespace hcs::core {
namespace {

/// Checks that `order` is a valid connected growth order achieving at most
/// `bound` boundary guards at every prefix.
void expect_order_achieves(const graph::Graph& g,
                           const std::vector<graph::Vertex>& order,
                           std::uint32_t bound) {
  ASSERT_EQ(order.size(), g.num_nodes());
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const graph::Vertex v = order[i];
    if (i > 0) {
      const bool adjacent_to_prefix = graph::any_neighbor(
          g, v, [&](graph::Vertex w) { return ((mask >> w) & 1) != 0; });
      EXPECT_TRUE(adjacent_to_prefix) << "order breaks connectivity at " << v;
    }
    mask |= std::uint64_t{1} << v;
    EXPECT_LE(boundary_guards(g, mask), bound);
  }
}

TEST(Optimal, BoundaryGuardsHelper) {
  const graph::Graph p = graph::make_path(5);
  EXPECT_EQ(boundary_guards(p, 0b00001), 1u);  // {0}: 0 touches 1
  EXPECT_EQ(boundary_guards(p, 0b00111), 1u);  // {0,1,2}: only 2 on frontier
  EXPECT_EQ(boundary_guards(p, 0b11111), 0u);  // everything clean
  EXPECT_EQ(boundary_guards(p, 0b01110), 2u);  // {1,2,3}: 1 and 3 exposed
}

TEST(Optimal, PathFromEndNeedsOneAgent) {
  const graph::Graph g = graph::make_path(7);
  const auto r = optimal_connected_search(g, 0);
  EXPECT_EQ(r.search_number, 1u);
  expect_order_achieves(g, r.order, r.search_number);
}

TEST(Optimal, PathFromMiddleNeedsTwo) {
  const graph::Graph g = graph::make_path(7);
  const auto r = optimal_connected_search(g, 3);
  EXPECT_EQ(r.search_number, 2u);
  expect_order_achieves(g, r.order, 2);
}

TEST(Optimal, RingNeedsTwo) {
  const graph::Graph g = graph::make_ring(8);
  const auto r = optimal_connected_search(g, 0);
  EXPECT_EQ(r.search_number, 2u);
  expect_order_achieves(g, r.order, 2);
}

TEST(Optimal, StarNeedsTwoFromCentreOneFromLeaf) {
  const graph::Graph g = graph::make_star(6);
  // From the centre: after the first leaf is clean, the centre guard plus
  // one sweeping agent... boundary is {centre} only: 1? The centre is a
  // member adjacent to contaminated leaves -> 1 guard; adding leaves never
  // exposes more than the centre itself plus... the fresh leaf has only
  // the centre as neighbour, so boundary stays {centre}: search number 1.
  EXPECT_EQ(optimal_connected_search(g, 0).search_number, 1u);
  EXPECT_EQ(optimal_connected_search(g, 1).search_number, 1u);
}

TEST(Optimal, CompleteGraphNeedsAllButOne) {
  for (std::size_t n : {3u, 4u, 5u, 6u}) {
    const graph::Graph g = graph::make_complete(n);
    const auto r = optimal_connected_search(g, 0);
    // Every prefix S with 0 < |S| < n has all members on the boundary.
    EXPECT_EQ(r.search_number, static_cast<std::uint32_t>(n - 1));
  }
}

TEST(Optimal, HypercubeH2) {
  const graph::Graph g = graph::make_hypercube(2);
  const auto r = optimal_connected_search(g, 0);
  EXPECT_EQ(r.search_number, 2u);
  expect_order_achieves(g, r.order, 2);
}

TEST(Optimal, HypercubeH3AndH4AgainstStrategyBounds) {
  // The open problem of Section 5: how close are the strategies to
  // optimal? The exact optimum must not exceed either strategy's peak
  // simultaneous guard demand.
  for (unsigned d : {3u, 4u}) {
    const graph::Graph g = graph::make_hypercube(d);
    const auto r = optimal_connected_search(g, 0);
    expect_order_achieves(g, r.order, r.search_number);
    EXPECT_GE(r.search_number, 2u);
    EXPECT_LE(r.search_number, clean_team_size(d));
    EXPECT_LE(r.search_number, visibility_team_size(d) + 1);
    // Lower bound: some prefix must guard at least ~the minimal bisection
    // frontier; for the hypercube the optimum is known to be >= d.
    EXPECT_GE(r.search_number, d - 1);
  }
}

TEST(Optimal, GridThreeByThree) {
  const graph::Graph g = graph::make_grid(3, 3);
  const auto corner = optimal_connected_search(g, 0);
  expect_order_achieves(g, corner.order, corner.search_number);
  EXPECT_EQ(corner.search_number, 3u);
}

TEST(Optimal, HomebaseMattersOnlyModestly) {
  // Moving the homebase changes the optimum by a bounded amount; for the
  // ring every homebase is symmetric.
  const graph::Graph g = graph::make_ring(6);
  for (graph::Vertex h = 0; h < 6; ++h) {
    EXPECT_EQ(optimal_connected_search(g, h).search_number, 2u);
  }
}

TEST(Unrestricted, NeverExceedsConnectedOptimum) {
  // Dropping the contiguity requirement can only help: the classical
  // monotone node search number lower-bounds the connected one from every
  // homebase.
  Rng rng(8);
  for (int round = 0; round < 6; ++round) {
    const graph::Graph g = graph::make_random_connected(9, 0.3, rng);
    const auto unrestricted = optimal_unrestricted_search(g);
    for (graph::Vertex h = 0; h < g.num_nodes(); ++h) {
      EXPECT_LE(unrestricted.search_number,
                optimal_connected_search(g, h).search_number)
          << "round=" << round << " h=" << h;
    }
  }
}

TEST(Unrestricted, KnownValues) {
  // Path: sweep from one end, 1 searcher; connectivity costs nothing.
  EXPECT_EQ(optimal_unrestricted_search(graph::make_path(8)).search_number,
            1u);
  // Ring: 2 either way.
  EXPECT_EQ(optimal_unrestricted_search(graph::make_ring(8)).search_number,
            2u);
  // Complete graph: n-1 regardless.
  EXPECT_EQ(
      optimal_unrestricted_search(graph::make_complete(5)).search_number,
      4u);
}

TEST(Unrestricted, PriceOfConnectivityOnSmallCubes) {
  for (unsigned d : {2u, 3u, 4u}) {
    const graph::Graph g = graph::make_hypercube(d);
    const auto free_opt = optimal_unrestricted_search(g);
    const auto tied_opt = optimal_connected_search(g, 0);
    EXPECT_LE(free_opt.search_number, tied_opt.search_number);
    // Sanity floor: even unrestricted search must beat the ball barrier.
    EXPECT_GE(free_opt.search_number, d) << "d=" << d;
  }
}

TEST(Unrestricted, OrderIsValidThoughDisconnected) {
  const graph::Graph g = graph::make_path(6);
  const auto r = optimal_unrestricted_search(g);
  ASSERT_EQ(r.order.size(), 6u);
  std::uint64_t mask = 0;
  for (graph::Vertex v : r.order) {
    mask |= std::uint64_t{1} << v;
    EXPECT_LE(boundary_guards(g, mask), r.search_number);
  }
}

TEST(OptimalDeath, RejectsOversizedGraphs) {
  const graph::Graph g = graph::make_hypercube(5);  // 32 nodes > 24
  EXPECT_DEATH((void)optimal_connected_search(g, 0), "precondition");
}

}  // namespace
}  // namespace hcs::core
