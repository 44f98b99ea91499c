#include "graph/builder.h"

#include <algorithm>

namespace latgossip {

GraphBuilder::GraphBuilder(std::size_t n) : num_nodes_(n) {
  if (n > static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
}

NodeId GraphBuilder::add_node() {
  if (num_nodes_ >= static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
  return static_cast<NodeId>(num_nodes_++);
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v, Latency latency) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("self-loops are not allowed");
  check_latency(latency);
  const auto k = key(u, v);
  if (edge_index_.count(k) != 0)
    throw std::invalid_argument("duplicate edge");
  const auto e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, latency});
  edge_index_.emplace(k, e);
  return e;
}

std::optional<EdgeId> GraphBuilder::find_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (u == v) return std::nullopt;
  const auto it = edge_index_.find(key(u, v));
  if (it == edge_index_.end()) return std::nullopt;
  return it->second;
}

void GraphBuilder::set_latency(EdgeId e, Latency latency) {
  if (e >= edges_.size()) throw std::out_of_range("edge id out of range");
  check_latency(latency);
  edges_[e].latency = latency;
}

WeightedGraph GraphBuilder::build() {
  const std::size_t n = num_nodes_;
  std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  edge_index_.clear();
  num_nodes_ = 0;

  // Counting sort of half-edges into CSR slices.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  std::size_t max_degree = 0;
  for (std::size_t u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, offsets[u + 1]);
    offsets[u + 1] += offsets[u];
  }
  std::vector<HalfEdge> half_edges(2 * edges.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    half_edges[cursor[edges[e].u]++] = HalfEdge{edges[e].v, e};
    half_edges[cursor[edges[e].v]++] = HalfEdge{edges[e].u, e};
  }
  // Sort each adjacency slice by neighbor id (no duplicates, so the
  // order is total) — this is what makes the finished graph independent
  // of insertion order and find_edge a binary search.
  for (std::size_t u = 0; u < n; ++u)
    std::sort(half_edges.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
              half_edges.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });

  return WeightedGraph(std::move(offsets), std::move(half_edges),
                       std::move(edges), max_degree);
}

WeightedGraph build_graph(std::size_t n, std::initializer_list<Edge> edges) {
  GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.latency);
  return b.build();
}

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t n)
    : num_nodes_(n), offsets_(n + 1, 0) {
  if (n > static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
}

void StreamingCsrBuilder::check_edge_nodes(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_)
    throw std::out_of_range("node id out of range");
  if (u == v) throw std::invalid_argument("self-loops are not allowed");
}

void StreamingCsrBuilder::count_edge(NodeId u, NodeId v) {
  if (stage_ != Stage::kCounting)
    throw std::logic_error("count_edge after finish_count");
  check_edge_nodes(u, v);
  ++offsets_[u + 1];
  ++offsets_[v + 1];
  ++num_edges_;
}

void StreamingCsrBuilder::finish_count() {
  if (stage_ != Stage::kCounting)
    throw std::logic_error("finish_count called twice");
  if (num_edges_ > static_cast<std::size_t>(kInvalidEdge))
    throw std::invalid_argument("graph too large for EdgeId");
  max_degree_ = 0;
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    max_degree_ = std::max(max_degree_, offsets_[u + 1]);
    offsets_[u + 1] += offsets_[u];
  }
  // Exact-size allocations; nothing here is ever resized again.
  half_edges_.resize(2 * num_edges_);
  edges_.reserve(num_edges_);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  counted_edges_ = num_edges_;
  num_edges_ = 0;
  stage_ = Stage::kFilling;
}

void StreamingCsrBuilder::fill_edge(NodeId u, NodeId v, Latency latency) {
  if (stage_ != Stage::kFilling)
    throw std::logic_error("fill_edge before finish_count");
  check_edge_nodes(u, v);
  check_latency(latency);
  if (num_edges_ == counted_edges_)
    throw std::invalid_argument(
        "streaming pass 2 emitted more edges than pass 1");
  const auto e = static_cast<EdgeId>(num_edges_++);
  if (cursor_[u] >= offsets_[u + 1] || cursor_[v] >= offsets_[v + 1])
    throw std::invalid_argument(
        "streaming pass 2 disagrees with pass 1 degree counts");
  half_edges_[cursor_[u]++] = HalfEdge{v, e};
  half_edges_[cursor_[v]++] = HalfEdge{u, e};
  edges_.push_back(Edge{u, v, latency});
}

WeightedGraph StreamingCsrBuilder::build() {
  if (stage_ != Stage::kFilling)
    throw std::logic_error("build before finish_count");
  if (num_edges_ != counted_edges_)
    throw std::invalid_argument(
        "streaming pass 2 emitted fewer edges than pass 1");
  const std::size_t n = num_nodes_;
  for (std::size_t u = 0; u < n; ++u)
    std::sort(half_edges_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
              half_edges_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
  // Deferred duplicate detection: after the sort, parallel edges sit
  // adjacent in their slice — one contiguous scan replaces the hash
  // index GraphBuilder carries through construction.
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t i = offsets_[u] + 1; i < offsets_[u + 1]; ++i)
      if (half_edges_[i].to == half_edges_[i - 1].to)
        throw std::invalid_argument("duplicate edge");

  std::vector<std::size_t> offsets = std::move(offsets_);
  std::vector<HalfEdge> half_edges = std::move(half_edges_);
  std::vector<Edge> edges = std::move(edges_);
  const std::size_t max_degree = max_degree_;
  cursor_.clear();
  num_nodes_ = 0;
  num_edges_ = 0;
  counted_edges_ = 0;
  max_degree_ = 0;
  offsets_.assign(1, 0);
  stage_ = Stage::kCounting;
  return WeightedGraph(std::move(offsets), std::move(half_edges),
                       std::move(edges), max_degree);
}

}  // namespace latgossip
