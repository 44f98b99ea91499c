#pragma once
// Plain-text serialization for latency-weighted graphs, so experiment
// inputs can be dumped, archived and reloaded bit-for-bit.
//
// Format (whitespace-separated, '#' comments):
//   latgossip-graph 1
//   <num_nodes> <num_edges>
//   <u> <v> <latency>        (one line per edge, in edge-id order)
//
// Latencies must lie in [1, kMaxLatency] (graph.h check_latency).
//
// Edge ids are preserved by round-tripping (edges are written and read
// in insertion order), which matters for gadget bookkeeping that
// addresses edges by id.

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace latgossip {

/// Serialize to a stream. Throws on stream failure.
void write_graph(std::ostream& out, const WeightedGraph& g);

/// Parse a graph; throws std::runtime_error on malformed input.
WeightedGraph read_graph(std::istream& in);

/// Convenience file wrappers.
void save_graph(const std::string& path, const WeightedGraph& g);
WeightedGraph load_graph(const std::string& path);

/// Round-trip through a string (used by tests and debugging).
std::string graph_to_string(const WeightedGraph& g);
WeightedGraph graph_from_string(const std::string& text);

}  // namespace latgossip
