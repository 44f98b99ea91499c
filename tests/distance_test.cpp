// Tests for shortest paths, eccentricity and diameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/distance.h"
#include "graph/builder.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"

namespace latgossip {
namespace {

TEST(Dijkstra, WeightedPath) {
  auto g = make_path(4);
  g.set_latency(*g.find_edge(0, 1), 2);
  g.set_latency(*g.find_edge(1, 2), 3);
  g.set_latency(*g.find_edge(2, 3), 4);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 2);
  EXPECT_EQ(d[2], 5);
  EXPECT_EQ(d[3], 9);
}

TEST(Dijkstra, PrefersCheapDetour) {
  const auto g = build_graph(3, {{0, 2, 10}, {0, 1, 1}, {1, 2, 1}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], 2);
}

TEST(Dijkstra, UnreachableSentinel) {
  const auto g = build_graph(3, {{0, 1, 1}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Dijkstra, CappedIgnoresSlowEdges) {
  const auto g = build_graph(3, {{0, 1, 5}, {1, 2, 2}});
  const auto d = dijkstra_capped(g, 0, 4);
  EXPECT_EQ(d[1], kUnreachable);  // 5 > cap
  EXPECT_EQ(d[2], kUnreachable);
  const auto d2 = dijkstra_capped(g, 1, 4);
  EXPECT_EQ(d2[2], 2);
}

TEST(Dijkstra, DirectedRespectsOrientation) {
  DirectedGraph d(3);
  d.add_arc(0, 1, 4);
  d.add_arc(1, 2, 1);
  const auto dist = dijkstra_directed(d, 0);
  EXPECT_EQ(dist[2], 5);
  const auto back = dijkstra_directed(d, 2);
  EXPECT_EQ(back[0], kUnreachable);
}

TEST(Distance, BfsHopsIgnoreLatency) {
  auto g = make_path(4);
  assign_uniform_latency(g, 50);
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[3], 3);
}

TEST(Distance, EccentricityAndDiameter) {
  auto g = make_path(5);
  assign_uniform_latency(g, 2);
  EXPECT_EQ(weighted_eccentricity(g, 2), 4);
  EXPECT_EQ(weighted_eccentricity(g, 0), 8);
  EXPECT_EQ(weighted_diameter(g), 8);
  EXPECT_EQ(hop_diameter(g), 4);
}

TEST(Distance, DiameterDisconnected) {
  const auto g = build_graph(3, {{0, 1, 1}});
  EXPECT_EQ(weighted_diameter(g), kUnreachable);
  EXPECT_EQ(hop_diameter(g), kUnreachable);
}

TEST(Distance, CliqueDiameterIsLatency) {
  auto g = make_clique(8);
  assign_uniform_latency(g, 3);
  EXPECT_EQ(weighted_diameter(g), 3);
  EXPECT_EQ(hop_diameter(g), 1);
}

TEST(Distance, DoubleSweepExactOnTrees) {
  Rng rng(3);
  auto g = make_binary_tree(31);
  assign_uniform_latency(g, 2);
  EXPECT_EQ(estimate_weighted_diameter(g, 4, rng), weighted_diameter(g));
}

TEST(Distance, DoubleSweepNeverExceedsTrueDiameter) {
  Rng rng(5);
  auto g = make_erdos_renyi(30, 0.15, rng);
  assign_random_uniform_latency(g, 1, 9, rng);
  const Latency exact = weighted_diameter(g);
  const Latency est = estimate_weighted_diameter(g, 6, rng);
  EXPECT_LE(est, exact);
  EXPECT_GE(est * 2, exact);  // double sweep is a 1/2-approximation
}

TEST(Distance, DiameterAtMaxLatency) {
  const auto g = build_graph(3, {{0, 1, kMaxLatency}, {1, 2, kMaxLatency}});
  EXPECT_EQ(weighted_diameter(g), 2 * kMaxLatency);
  EXPECT_EQ(hop_diameter(g), 2);
}

// --- Exactness of the pruned diameters against all-pairs references ---

Latency all_pairs_max(const WeightedGraph& g, bool hops) {
  Latency diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto d = hops ? bfs_hops(g, v) : dijkstra(g, v);
    diam = std::max(diam, *std::max_element(d.begin(), d.end()));
  }
  return diam;
}

// Random spanning tree with latencies in [1, 3], plus extra edges that
// straddle the long-edge filter's threshold: longer than 2 ecc(0), equal
// to the tree distance (a tie), and equal to or one above the path
// through node 0.
WeightedGraph tree_with_long_chords(std::size_t n, Rng& rng) {
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v)
    b.add_edge(static_cast<NodeId>(rng.uniform(v)), v, rng.uniform_int(1, 3));
  const WeightedGraph tree = b.build();
  const auto d0 = dijkstra(tree, 0);
  const Latency ecc0 = *std::max_element(d0.begin(), d0.end());
  GraphBuilder c(n);
  for (const Edge& e : tree.edges()) c.add_edge(e.u, e.v, e.latency);
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const auto u = static_cast<NodeId>(rng.uniform(n));
    const auto v = static_cast<NodeId>(rng.uniform(n));
    if (u == v || c.has_edge(u, v)) continue;
    Latency w = 0;
    switch (rng.uniform(4)) {
      case 0: w = 2 * ecc0 + rng.uniform_int(1, 20); break;
      case 1: w = dijkstra(tree, u)[v]; break;
      case 2: w = d0[u] + d0[v]; break;
      default: w = d0[u] + d0[v] + 1; break;
    }
    c.add_edge(u, v, std::max<Latency>(w, 1));
  }
  return c.build();
}

WeightedGraph two_components(std::size_t n, Rng& rng) {
  GraphBuilder b(n);
  const std::size_t cut = 1 + rng.uniform(n - 1);
  for (NodeId v = 1; v < n; ++v)
    if (v != cut) b.add_edge(v - 1, v, rng.uniform_int(1, 5));
  return b.build();
}

// Case `i` of the property sweep: a family picked by i, sized and
// weighted from an Rng seeded by i.
WeightedGraph diameter_case(std::uint64_t i, std::string& family) {
  Rng rng(1000 + i);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  switch (i % 13) {
    case 0: {
      family = "thm6_gadget";
      const std::size_t delta = pick(2, 12);
      return make_guessing_gadget(delta, make_singleton_target(delta, rng), 1,
                                  static_cast<Latency>(8 * delta), false)
          .graph;
    }
    case 1: {
      family = "thm6_network";
      const std::size_t delta = pick(2, 8);
      return make_theorem6_network(2 * delta + pick(0, 10), delta, rng).graph;
    }
    case 2: {
      family = "thm7";
      const std::size_t n = pick(6, 24);
      const auto ell = static_cast<Latency>(pick(1, 4));
      return make_theorem7_network(n, ell, 0.05 + 0.45 * rng.uniform_double(),
                                   rng)
          .gadget.graph;
    }
    case 3: {
      family = "er_uniform";
      const std::size_t n = pick(5, 60);
      auto g = make_erdos_renyi(n, std::min(1.0, 4.0 / n + 0.05), rng);
      assign_random_uniform_latency(g, 1, 8, rng);
      return g;
    }
    case 4: {
      family = "er_pareto";
      const std::size_t n = pick(5, 60);
      auto g = make_erdos_renyi(n, std::min(1.0, 4.0 / n + 0.05), rng);
      assign_pareto_latency(g, 1.2, 1.0, 1000, rng);
      return g;
    }
    case 5: {
      family = "ring_of_cliques";
      return make_ring_of_cliques(pick(3, 8), pick(2, 6),
                                  static_cast<Latency>(pick(1, 40)));
    }
    case 6: {
      family = "regular_two_level";
      const std::size_t d = pick(3, 5);
      auto g = make_random_regular(2 * pick(4, 25), d, rng);
      assign_two_level_latency(g, 1, static_cast<Latency>(pick(2, 30)), 0.6,
                               rng);
      return g;
    }
    case 7: {
      family = "path";
      auto g = make_path(pick(1, 40));
      assign_random_uniform_latency(g, 1, 6, rng);
      return g;
    }
    case 8: {
      family = "tree";
      auto g = make_kary_tree(pick(1, 60), pick(2, 4));
      assign_random_uniform_latency(g, 1, 6, rng);
      return g;
    }
    case 9: {
      family = "clique";  // few latency values: many ties
      auto g = make_clique(pick(2, 16));
      assign_random_uniform_latency(g, 1, 3, rng);
      return g;
    }
    case 10: {
      family = "long_chords";
      return tree_with_long_chords(pick(2, 40), rng);
    }
    case 11: {
      family = "disconnected";
      return two_components(pick(2, 30), rng);
    }
    default: {
      family = "tiny";  // n in {0, 1, 2}; n = 2 with and without its edge
      const std::size_t n = (i / 13) % 3;
      if (n == 2 && (i / 39) % 2 == 0)
        return build_graph(2, {{0, 1, rng.uniform_int(1, 9)}});
      return WeightedGraph(n);
    }
  }
}

TEST(Distance, PrunedDiametersMatchAllPairs) {
  for (std::uint64_t i = 0; i < 208; ++i) {
    std::string family;
    const WeightedGraph g = diameter_case(i, family);
    SCOPED_TRACE("case " + std::to_string(i) + " (" + family + ", n=" +
                 std::to_string(g.num_nodes()) + ")");
    EXPECT_EQ(weighted_diameter(g), all_pairs_max(g, false));
    EXPECT_EQ(hop_diameter(g), all_pairs_max(g, true));
  }
}

TEST(Distance, BadSourceThrows) {
  const auto g = make_path(3);
  EXPECT_THROW(dijkstra(g, 5), std::out_of_range);
  EXPECT_THROW(bfs_hops(g, 5), std::out_of_range);
}

}  // namespace
}  // namespace latgossip
