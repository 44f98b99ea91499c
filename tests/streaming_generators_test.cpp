// Tests for the two-pass streaming CSR builder and the streaming
// generator family (graph/builder.h, graph/generators.h): exact
// bit-identity with the edge-list builders where the emission order
// matches (ring, torus, Barabasi–Albert, p=1 Erdos–Renyi), structural
// invariants plus same-seed determinism for the random families.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace latgossip {
namespace {

// Every observable array of the CSR: node/edge counts, the edge list in
// id order (endpoints + latency), and each adjacency slice (neighbor and
// edge id per half-edge).
void expect_identical(const WeightedGraph& a, const WeightedGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    ASSERT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    ASSERT_EQ(a.edge(e).latency, b.edge(e).latency) << "edge " << e;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.neighbors(u), nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].to, nb[i].to) << "node " << u << " slot " << i;
      ASSERT_EQ(na[i].edge, nb[i].edge) << "node " << u << " slot " << i;
    }
  }
  ASSERT_EQ(a.max_degree(), b.max_degree());
}

TEST(StreamingCsrBuilder, MatchesGraphBuilder) {
  GraphBuilder ref(5);
  ref.add_edge(0, 1, 2);
  ref.add_edge(3, 1, 1);
  ref.add_edge(4, 0, 7);
  ref.add_edge(2, 3, 1);
  const auto expected = ref.build();

  StreamingCsrBuilder b(5);
  b.count_edge(0, 1);
  b.count_edge(3, 1);
  b.count_edge(4, 0);
  b.count_edge(2, 3);
  b.finish_count();
  b.fill_edge(0, 1, 2);
  b.fill_edge(3, 1, 1);
  b.fill_edge(4, 0, 7);
  b.fill_edge(2, 3, 1);
  expect_identical(b.build(), expected);
}

TEST(StreamingCsrBuilder, ValidatesEagerly) {
  StreamingCsrBuilder b(4);
  EXPECT_THROW(b.count_edge(1, 1), std::invalid_argument);  // self-loop
  EXPECT_THROW(b.count_edge(0, 4), std::out_of_range);
  EXPECT_THROW(b.fill_edge(0, 1), std::logic_error);  // before finish_count
  b.count_edge(0, 1);
  b.finish_count();
  EXPECT_THROW(b.count_edge(1, 2), std::logic_error);  // after finish_count
  EXPECT_THROW(b.finish_count(), std::logic_error);
  EXPECT_THROW(b.fill_edge(0, 1, 0), std::invalid_argument);  // latency < 1
  EXPECT_THROW(b.fill_edge(0, 1, kMaxLatency + 1), std::invalid_argument);
}

TEST(StreamingCsrBuilder, RejectsDuplicateEdges) {
  StreamingCsrBuilder b(3);
  b.count_edge(0, 1);
  b.count_edge(1, 0);  // same undirected edge, other orientation
  b.finish_count();
  b.fill_edge(0, 1);
  b.fill_edge(1, 0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(StreamingCsrBuilder, RejectsPassMismatch) {
  {
    StreamingCsrBuilder b(4);
    b.count_edge(0, 1);
    b.count_edge(1, 2);
    b.finish_count();
    b.fill_edge(0, 1);
    EXPECT_THROW(b.build(), std::invalid_argument);  // one edge short
  }
  {
    StreamingCsrBuilder b(4);
    b.count_edge(0, 1);
    b.finish_count();
    b.fill_edge(0, 1);
    EXPECT_THROW(b.fill_edge(1, 2), std::invalid_argument);  // one extra
  }
  {
    // Same count but different endpoints: node 3's slice was sized at
    // zero in pass 1, so its cursor overruns immediately.
    StreamingCsrBuilder b(4);
    b.count_edge(0, 1);
    b.count_edge(0, 2);
    b.finish_count();
    EXPECT_THROW(b.fill_edge(0, 3), std::invalid_argument);
  }
}

TEST(StreamingCsrBuilder, ReusableAfterBuild) {
  StreamingCsrBuilder b(3);
  b.count_edge(0, 1);
  b.finish_count();
  b.fill_edge(0, 1);
  const auto g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  // Builder is back in counting mode for a fresh (differently sized)
  // graph. (Re-seating num_nodes requires a fresh builder; reuse keeps
  // the same node count at zero — construct anew for clarity.)
  StreamingCsrBuilder b2(2);
  b2.count_edge(0, 1);
  b2.finish_count();
  b2.fill_edge(0, 1);
  EXPECT_EQ(b2.build().num_edges(), 1u);
}

TEST(StreamingCsrBuilder, ConvenienceWrapper) {
  const auto g = build_csr_streaming(4, [](auto&& edge) {
    for (NodeId i = 0; i + 1 < 4; ++i) edge(i, i + 1);
  });
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_connected());
  expect_identical(g, make_path(4));
}

// --- bit-identity with the edge-list twins ---------------------------------

TEST(StreamingGenerators, RingMatchesCycle) {
  for (const std::size_t n : {3u, 7u, 64u, 1001u})
    expect_identical(make_ring_streaming(n), make_cycle(n));
  EXPECT_THROW(make_ring_streaming(2), std::invalid_argument);
}

TEST(StreamingGenerators, TorusMatchesWrappedGrid) {
  expect_identical(make_torus_streaming(3, 3), make_grid(3, 3, true));
  expect_identical(make_torus_streaming(5, 8), make_grid(5, 8, true));
  EXPECT_THROW(make_torus_streaming(2, 5), std::invalid_argument);
}

TEST(StreamingGenerators, PreferentialAttachmentMatchesBarabasiAlbert) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    Rng rng(seed);
    const auto ref = make_barabasi_albert(500, 3, rng);
    const auto streamed = make_preferential_attachment_streaming(500, 3, seed);
    expect_identical(streamed, ref);
  }
  EXPECT_THROW(make_preferential_attachment_streaming(3, 3, 1),
               std::invalid_argument);
}

TEST(StreamingGenerators, FullDensityErMatchesClique) {
  expect_identical(make_erdos_renyi_streaming(40, 1.0, 9), make_clique(40));
}

// --- invariants + determinism for the random families ----------------------

TEST(StreamingGenerators, ErdosRenyiInvariants) {
  const std::size_t n = 200;
  const double p = 0.1;
  const auto g = make_erdos_renyi_streaming(n, p, 0x5eed);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_TRUE(g.is_connected());
  // Binomial(19900, 0.1): mean 1990, sd ~42. ±10 sd keeps this test
  // deterministic-by-seed yet meaningful.
  EXPECT_GT(g.num_edges(), 1570u);
  EXPECT_LT(g.num_edges(), 2410u);
  EXPECT_THROW(make_erdos_renyi_streaming(10, 1.5, 0), std::invalid_argument);
  // p = 0 on n > 1 can never connect: the attempt budget must trip.
  EXPECT_THROW(make_erdos_renyi_streaming(10, 0.0, 0, 4), std::runtime_error);
  EXPECT_EQ(make_erdos_renyi_streaming(1, 0.0, 0).num_nodes(), 1u);
}

TEST(StreamingGenerators, ErdosRenyiDeterministicInSeed) {
  const auto a = make_erdos_renyi_streaming(300, 0.05, 77);
  const auto b = make_erdos_renyi_streaming(300, 0.05, 77);
  expect_identical(a, b);
  const auto c = make_erdos_renyi_streaming(300, 0.05, 78);
  EXPECT_FALSE(a.num_edges() == c.num_edges() &&
               [&] {
                 for (EdgeId e = 0; e < a.num_edges(); ++e)
                   if (a.edge(e).u != c.edge(e).u || a.edge(e).v != c.edge(e).v)
                     return false;
                 return true;
               }());
}

TEST(StreamingGenerators, RandomRegularInvariants) {
  const std::size_t n = 1000, d = 6;
  const auto g = make_random_regular_streaming(n, d, 0xABCD);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), n * d / 2);
  EXPECT_TRUE(g.is_connected());
  for (NodeId u = 0; u < n; ++u) ASSERT_EQ(g.degree(u), d) << "node " << u;
  EXPECT_THROW(make_random_regular_streaming(5, 5, 0), std::invalid_argument);
  EXPECT_THROW(make_random_regular_streaming(5, 3, 0), std::invalid_argument);
  EXPECT_THROW(make_random_regular_streaming(5, 0, 0), std::invalid_argument);
}

TEST(StreamingGenerators, RandomRegularOddDegreeAndSmallCases) {
  // d odd (n even) exercises the repair path's parity handling.
  const auto g = make_random_regular_streaming(100, 3, 7);
  for (NodeId u = 0; u < 100; ++u) ASSERT_EQ(g.degree(u), 3u);
  EXPECT_TRUE(g.is_connected());
  // d = n-1 is the clique; the pairing has no freedom left.
  const auto k = make_random_regular_streaming(6, 5, 1);
  EXPECT_EQ(k.num_edges(), 15u);
  for (NodeId u = 0; u < 6; ++u) ASSERT_EQ(k.degree(u), 5u);
}

TEST(StreamingGenerators, RandomRegularDeterministicInSeed) {
  const auto a = make_random_regular_streaming(400, 4, 99);
  const auto b = make_random_regular_streaming(400, 4, 99);
  expect_identical(a, b);
}

}  // namespace
}  // namespace latgossip
