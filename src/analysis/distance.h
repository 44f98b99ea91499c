#pragma once
// Shortest-path and diameter computations on latency-weighted graphs.

#include <vector>

#include "graph/digraph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace latgossip {

/// Sentinel distance for unreachable nodes.
constexpr Latency kUnreachable = static_cast<Latency>(1) << 60;
static_assert(static_cast<Latency>(kInvalidNode) * kMaxLatency < kUnreachable,
              "a path length plus one edge must stay below kUnreachable");

/// Single-source shortest path distances with latencies as weights.
std::vector<Latency> dijkstra(const WeightedGraph& g, NodeId source);

/// Like dijkstra, but only uses edges with latency <= max_latency —
/// i.e. distances in the paper's G_ell subgraph.
std::vector<Latency> dijkstra_capped(const WeightedGraph& g, NodeId source,
                                     Latency max_latency);

/// Directed single-source shortest paths (out-arcs only).
std::vector<Latency> dijkstra_directed(const DirectedGraph& g, NodeId source);

/// Hop counts (unweighted BFS distances); kUnreachable if disconnected.
std::vector<Latency> bfs_hops(const WeightedGraph& g, NodeId source);

/// Max weighted distance from `source` to any node (kUnreachable if the
/// graph is disconnected).
Latency weighted_eccentricity(const WeightedGraph& g, NodeId source);

/// Exact weighted diameter D: max over all pairs of the distance
/// (kUnreachable if the graph is disconnected). Runs Dijkstra from a
/// subset of the nodes, pruned by eccentricity bounds (DESIGN.md
/// "Analysis: exact diameter").
Latency weighted_diameter(const WeightedGraph& g);

/// Exact hop diameter D_hop: the same routine with unit weights.
Latency hop_diameter(const WeightedGraph& g);

/// Double-sweep lower bound on the weighted diameter: repeat `sweeps`
/// times (random start -> farthest u -> ecc(u)) and take the max. Exact
/// on trees; a good estimate in practice, always <= the true diameter.
Latency estimate_weighted_diameter(const WeightedGraph& g, int sweeps,
                                   Rng& rng);

}  // namespace latgossip
