// Tests for graph serialization (graph/io.h).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/latency_models.h"

namespace latgossip {
namespace {

void expect_same_graph(const WeightedGraph& a, const WeightedGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    EXPECT_EQ(a.edge(e).latency, b.edge(e).latency);
  }
}

TEST(GraphIo, RoundTripString) {
  Rng rng(1);
  auto g = make_erdos_renyi(20, 0.3, rng);
  assign_random_uniform_latency(g, 1, 9, rng);
  const WeightedGraph back = graph_from_string(graph_to_string(g));
  expect_same_graph(g, back);
}

TEST(GraphIo, RoundTripPreservesEdgeIds) {
  // Gadget bookkeeping addresses cross edges by id; ids must survive.
  Rng rng(2);
  const auto gadget = make_guessing_gadget(
      4, make_singleton_target(4, rng), 1, 50, false);
  const WeightedGraph back =
      graph_from_string(graph_to_string(gadget.graph));
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      const EdgeId e = gadget.cross_edge(i, j);
      EXPECT_EQ(back.edge(e).latency, gadget.graph.latency(e));
    }
}

TEST(GraphIo, RoundTripEmptyAndSingleton) {
  expect_same_graph(WeightedGraph(0),
                    graph_from_string(graph_to_string(WeightedGraph(0))));
  expect_same_graph(WeightedGraph(5),
                    graph_from_string(graph_to_string(WeightedGraph(5))));
}

TEST(GraphIo, CommentsAndWhitespaceTolerated) {
  const std::string text =
      "# a comment\n"
      "latgossip-graph 1\n"
      "  # sizes\n"
      "3 2\n"
      "0 1 4\n"
      "# an edge comment\n"
      "1 2 7\n";
  const WeightedGraph g = graph_from_string(text);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.latency(*g.find_edge(1, 2)), 7);
}

/// Parse `text` expecting failure; return the exception message.
std::string parse_error(const std::string& text) {
  try {
    graph_from_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse failure for: " << text;
  return "";
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW(graph_from_string(""), std::runtime_error);
  EXPECT_THROW(graph_from_string("wrong-magic 1\n1 0\n"),
               std::runtime_error);
  EXPECT_THROW(graph_from_string("latgossip-graph 9\n1 0\n"),
               std::runtime_error);
  EXPECT_THROW(graph_from_string("latgossip-graph 1\n2 1\n0 5 1\n"),
               std::runtime_error);  // endpoint out of range
  EXPECT_THROW(graph_from_string("latgossip-graph 1\n2 2\n0 1 1\n"),
               std::runtime_error);  // truncated
}

TEST(GraphIo, RejectsBadLatencies) {
  EXPECT_NE(parse_error("latgossip-graph 1\n2 1\n0 1 0\n")
                .find("latency must be >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error("latgossip-graph 1\n2 1\n0 1 -3\n")
                .find("latency must be >= 1"),
            std::string::npos);
  // The failing edge's position is part of the message.
  EXPECT_NE(parse_error("latgossip-graph 1\n3 2\n0 1 4\n1 2 0\n")
                .find("at edge 1"),
            std::string::npos);
}

TEST(GraphIo, RejectsLatencyAboveMax) {
  // 2^61: before the cap, this connected graph parsed and its weighted
  // diameter came out as kUnreachable.
  const std::string huge = parse_error(
      "latgossip-graph 1\n2 1\n0 1 2305843009213693952\n");
  EXPECT_NE(huge.find("latency must be <= " + std::to_string(kMaxLatency)),
            std::string::npos)
      << huge;
  EXPECT_NE(huge.find("at edge 0"), std::string::npos) << huge;
  const WeightedGraph g = graph_from_string(
      "latgossip-graph 1\n2 1\n0 1 " + std::to_string(kMaxLatency) + "\n");
  EXPECT_EQ(g.latency(0), kMaxLatency);
}

TEST(GraphIo, RejectsNegativeIdsAndSizes) {
  EXPECT_NE(parse_error("latgossip-graph 1\n-2 1\n0 1 1\n")
                .find("negative size"),
            std::string::npos);
  EXPECT_NE(parse_error("latgossip-graph 1\n2 -1\n").find("negative size"),
            std::string::npos);
  EXPECT_NE(parse_error("latgossip-graph 1\n2 1\n-1 1 1\n")
                .find("negative node id"),
            std::string::npos);
}

TEST(GraphIo, RejectsDuplicateAndSelfLoopEdges) {
  const std::string dup = parse_error(
      "latgossip-graph 1\n3 3\n0 1 2\n1 2 2\n1 0 5\n");
  EXPECT_NE(dup.find("at edge 2"), std::string::npos) << dup;
  EXPECT_THROW(graph_from_string("latgossip-graph 1\n3 1\n1 1 2\n"),
               std::runtime_error);  // self-loop
}

TEST(GraphIo, RejectsImpossibleEdgeCount) {
  // 3 nodes admit at most 3 simple edges.
  EXPECT_NE(parse_error("latgossip-graph 1\n3 4\n0 1 1\n0 2 1\n1 2 1\n")
                .find("exceeds a simple graph"),
            std::string::npos);
}

TEST(GraphIo, RejectsTrailingGarbage) {
  EXPECT_NE(parse_error("latgossip-graph 1\n2 1\n0 1 1\nsurprise\n")
                .find("trailing garbage"),
            std::string::npos);
  // Trailing comments and whitespace remain fine.
  const WeightedGraph g = graph_from_string(
      "latgossip-graph 1\n2 1\n0 1 1\n# trailing comment\n\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "latgossip_io_test.graph")
          .string();
  auto g = make_ring_of_cliques(3, 3, 6);
  save_graph(path, g);
  const WeightedGraph back = load_graph(path);
  expect_same_graph(g, back);
  std::remove(path.c_str());
  EXPECT_THROW(load_graph(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace latgossip
