#pragma once
// Mutable construction phase for WeightedGraph.
//
// GraphBuilder is the only way to make a graph with edges: it accepts
// add_edge() in any order, validates eagerly (self-loops, out-of-range
// endpoints, duplicate edges in either orientation, latency outside
// [1, kMaxLatency] — each throws std::invalid_argument /
// std::out_of_range and leaves the builder unchanged), and build()
// freezes the accumulated edge list into the immutable CSR
// WeightedGraph (graph.h).
//
// Edge ids are assigned in insertion order and survive build()
// unchanged — constructions that encode meaning in edge ids (the
// guessing gadget's row-major cross edges) rely on this. Adjacency
// order does NOT survive: build() sorts every adjacency slice by
// neighbor id, so the finished graph is independent of insertion order
// (covered by graph_builder_test).
//
// The duplicate-edge hash index lives here, in the construction phase,
// not in WeightedGraph: the finished graph answers find_edge by binary
// search and carries no hash tables.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace latgossip {

class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Start a graph on `n` isolated nodes.
  explicit GraphBuilder(std::size_t n);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Append one isolated node; returns its id.
  NodeId add_node();

  /// Add undirected edge {u, v} with the given latency.
  /// Throws on self-loops, out-of-range endpoints, duplicate edges, or
  /// a latency check_latency rejects. Returns the new edge's id
  /// (== insertion index).
  EdgeId add_edge(NodeId u, NodeId v, Latency latency = 1);

  /// Edge id of {u, v} if already added (O(1) hash probe — generators
  /// use this for rejection sampling mid-build).
  std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const { return find_edge(u, v).has_value(); }

  /// Re-assign the latency of an already-added edge (gadget builders
  /// add first, reveal fast latencies after). Throws if check_latency
  /// rejects `latency`.
  void set_latency(EdgeId e, Latency latency);

  /// Edges added so far, in insertion order (EdgeId == index).
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Freeze into an immutable CSR WeightedGraph. The builder is left
  /// empty (0 nodes, 0 edges) and may be reused for a new graph.
  WeightedGraph build();

 private:
  static std::uint64_t key(NodeId u, NodeId v) noexcept {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  void check_node(NodeId u) const {
    if (u >= num_nodes_) throw std::out_of_range("node id out of range");
  }

  std::size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, EdgeId> edge_index_;
};

/// One-shot convenience: build a graph from a fixed edge list.
///     auto g = build_graph(4, {{0, 1}, {1, 2, 5}});
/// (Edge latency defaults to 1.)
WeightedGraph build_graph(std::size_t n, std::initializer_list<Edge> edges);

/// Two-pass streaming CSR construction for generators that can emit
/// their edge stream more than once (deterministic families, or random
/// families replayed from a stored pairing / a reseeded generator).
///
/// GraphBuilder accumulates a vector<Edge> plus an unordered_map
/// duplicate index before building — at a million nodes that transient
/// state dwarfs the finished graph (the hash index alone is several
/// hundred MB) and walls generation out of laptop RAM (ROADMAP item 2).
/// StreamingCsrBuilder never holds an intermediate edge list: pass 1
/// streams the edges once and only counts degrees; the three final CSR
/// arrays are then allocated at their exact sizes, and pass 2 streams
/// the same edges again, scattering half-edges straight into their
/// slices. Validation moves to the end: after the per-slice neighbor
/// sort, duplicates are adjacent and one linear scan rejects them
/// (self-loops and range errors are still caught at emit time).
///
/// Usage (or use build_csr_streaming below):
///     StreamingCsrBuilder b(n);
///     for (...) b.count_edge(u, v);      // pass 1
///     b.finish_count();
///     for (...) b.fill_edge(u, v, lat);  // pass 2, same edges, same order
///     WeightedGraph g = b.build();
///
/// Edge ids equal emission order of pass 2 (matching GraphBuilder's
/// insertion-order contract), so a streaming generator that emits the
/// same edge sequence as its edge-list twin produces a bit-identical
/// graph.
class StreamingCsrBuilder {
 public:
  explicit StreamingCsrBuilder(std::size_t n);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  /// Edges counted (pass 1) or filled (pass 2) so far.
  std::size_t num_edges() const noexcept { return num_edges_; }

  /// Pass 1: account for undirected edge {u, v}. Throws on self-loops
  /// or out-of-range endpoints (duplicates are caught in build()).
  void count_edge(NodeId u, NodeId v);

  /// Seal pass 1: allocate the CSR arrays at their exact final sizes.
  void finish_count();

  /// Pass 2: place undirected edge {u, v}. Must replay exactly the
  /// edges of pass 1 (any order); a count mismatch throws in build().
  void fill_edge(NodeId u, NodeId v, Latency latency = 1);

  /// Freeze into the immutable CSR WeightedGraph: sorts every adjacency
  /// slice by neighbor id and rejects duplicate edges (adjacent after
  /// the sort). The builder is left empty and may be reused.
  WeightedGraph build();

 private:
  enum class Stage { kCounting, kFilling };

  void check_edge_nodes(NodeId u, NodeId v) const;

  std::size_t num_nodes_ = 0;
  std::size_t num_edges_ = 0;        ///< current pass's running count
  std::size_t counted_edges_ = 0;    ///< sealed pass-1 total
  Stage stage_ = Stage::kCounting;
  std::vector<std::size_t> offsets_;  ///< degree counts, then prefix sums
  std::vector<std::size_t> cursor_;   ///< next free slot per slice
  std::vector<HalfEdge> half_edges_;
  std::vector<Edge> edges_;
  std::size_t max_degree_ = 0;
};

/// One-shot streaming build: `emit` is invoked twice with an edge sink —
/// first over a counting sink, then over a filling sink — and must
/// produce the same edge multiset both times (deterministic generators
/// replay their loop; seeded generators reconstruct their RNG).
///     auto g = build_csr_streaming(n, [&](auto&& edge) {
///       for (NodeId i = 0; i + 1 < n; ++i) edge(i, i + 1, 1);
///     });
template <typename EmitFn>
WeightedGraph build_csr_streaming(std::size_t n, EmitFn&& emit) {
  StreamingCsrBuilder b(n);
  emit([&b](NodeId u, NodeId v, Latency latency = 1) {
    (void)latency;
    b.count_edge(u, v);
  });
  b.finish_count();
  emit([&b](NodeId u, NodeId v, Latency latency = 1) {
    b.fill_edge(u, v, latency);
  });
  return b.build();
}

}  // namespace latgossip
