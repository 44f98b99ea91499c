#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <string>

namespace latgossip {

void check_latency(Latency latency) {
  if (latency < 1)
    throw std::invalid_argument("latency must be >= 1 (got " +
                                std::to_string(latency) + ")");
  if (latency > kMaxLatency)
    throw std::invalid_argument("latency must be <= " +
                                std::to_string(kMaxLatency) + " (got " +
                                std::to_string(latency) + ")");
}

WeightedGraph::WeightedGraph(std::size_t n) : offsets_(n + 1, 0) {
  if (n > static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
}

NodeId WeightedGraph::other_endpoint(EdgeId e, NodeId u) const {
  const Edge& ed = edge(e);
  if (ed.u == u) return ed.v;
  if (ed.v == u) return ed.u;
  throw std::invalid_argument("node is not an endpoint of edge");
}

void WeightedGraph::set_latency(EdgeId e, Latency latency) {
  check_edge(e);
  check_latency(latency);
  edges_[e].latency = latency;
}

std::optional<EdgeId> WeightedGraph::find_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (u == v) return std::nullopt;
  // Search from the lower-degree endpoint; slices are sorted by .to.
  if (degree(v) < degree(u)) std::swap(u, v);
  const HalfEdge* first = half_edges_.data() + offsets_[u];
  const HalfEdge* last = half_edges_.data() + offsets_[u + 1];
  const HalfEdge* it = std::lower_bound(
      first, last, v, [](const HalfEdge& h, NodeId t) { return h.to < t; });
  if (it == last || it->to != v) return std::nullopt;
  return it->edge;
}

Latency WeightedGraph::max_latency() const noexcept {
  Latency m = 0;
  for (const auto& e : edges_) m = std::max(m, e.latency);
  return m;
}

Latency WeightedGraph::min_latency() const noexcept {
  if (edges_.empty()) return 0;
  Latency m = edges_.front().latency;
  for (const auto& e : edges_) m = std::min(m, e.latency);
  return m;
}

bool WeightedGraph::is_connected() const {
  const std::size_t n = num_nodes();
  if (n <= 1) return true;
  Bitset seen(n);
  std::vector<NodeId> stack{0};
  seen.set(0);
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const HalfEdge& h : neighbors(u)) {
      if (!seen.test(h.to)) {
        seen.set(h.to);
        ++visited;
        stack.push_back(h.to);
      }
    }
  }
  return visited == n;
}

std::size_t WeightedGraph::volume(const Bitset& in_set) const {
  if (in_set.size() != num_nodes())
    throw std::invalid_argument("volume: membership size mismatch");
  std::size_t vol = 0;
  const auto words = in_set.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const std::size_t u =
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
      vol += offsets_[u + 1] - offsets_[u];
      w &= w - 1;
    }
  }
  return vol;
}

}  // namespace latgossip
