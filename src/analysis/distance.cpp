#include "analysis/distance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace latgossip {
namespace {

using DistNode = std::pair<Latency, NodeId>;

std::vector<Latency> dijkstra_impl(const WeightedGraph& g, NodeId source,
                                   Latency cap) {
  if (source >= g.num_nodes()) throw std::out_of_range("bad source");
  std::vector<Latency> dist(g.num_nodes(), kUnreachable);
  std::priority_queue<DistNode, std::vector<DistNode>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const HalfEdge& h : g.neighbors(u)) {
      const Latency w = g.latency(h.edge);
      if (w > cap) continue;
      if (d + w < dist[h.to]) {
        dist[h.to] = d + w;
        pq.emplace(dist[h.to], h.to);
      }
    }
  }
  return dist;
}

// Diameter kernel. weighted_diameter and hop_diameter copy the graph
// once into flat (to, weight) arrays and bound eccentricities so that
// only a fraction of the nodes need an SSSP; see DESIGN.md "Analysis:
// exact diameter".

// Adjacency entry; a weight fits 32 bits because check_latency caps
// latencies at kMaxLatency.
struct FlatArc {
  NodeId to;
  std::uint32_t w;
};
static_assert(kMaxLatency <= std::numeric_limits<std::uint32_t>::max());

// Node u's arcs are arcs[offsets[u] .. offsets[u + 1]).
struct FlatGraph {
  std::vector<std::size_t> offsets;
  std::vector<FlatArc> arcs;
};

template <typename Weight>
FlatGraph flatten(const WeightedGraph& g, Weight weight) {
  FlatGraph f;
  f.offsets.reserve(g.num_nodes() + 1);
  f.arcs.reserve(2 * g.num_edges());
  f.offsets.push_back(0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const HalfEdge& h : g.neighbors(u))
      f.arcs.push_back({h.to, static_cast<std::uint32_t>(weight(h.edge))});
    f.offsets.push_back(f.arcs.size());
  }
  return f;
}

// Long-edge filter: drops every arc {u, v} with w > d(s0, u) + d(s0, v).
// The path u - s0 - v is then shorter than the arc, so the arc lies on
// no shortest path and every distance stays the same. This drops every
// arc longer than 2 ecc(s0) >= D, and more.
void drop_long_arcs(FlatGraph& f, const std::vector<Latency>& d0) {
  std::size_t kept = 0;
  std::size_t begin = 0;
  for (NodeId u = 0; u + 1 < f.offsets.size(); ++u) {
    const std::size_t end = f.offsets[u + 1];
    for (std::size_t i = begin; i < end; ++i)
      if (f.arcs[i].w <= d0[u] + d0[f.arcs[i].to]) f.arcs[kept++] = f.arcs[i];
    begin = end;
    f.offsets[u + 1] = kept;
  }
  f.arcs.resize(kept);
}

// Monotone priority queue on non-negative integer keys (a radix heap):
// no pop returns a key below the previous pop's, which is all Dijkstra
// needs, and it assumes no bound on latencies. Bucket 0 holds keys equal
// to the last popped key; bucket b > 0 holds keys whose highest bit that
// differs from it is bit b - 1.
class RadixHeap {
 public:
  bool empty() const noexcept { return size_ == 0; }

  void push(Latency key, NodeId node) {
    buckets_[bucket(key)].push_back({key, node});
    ++size_;
  }

  // Removes and returns an entry of minimum key.
  std::pair<Latency, NodeId> pop() {
    if (buckets_[0].empty()) {
      std::size_t b = 1;
      while (buckets_[b].empty()) ++b;
      std::vector<Entry>& from = buckets_[b];
      last_ = std::min_element(from.begin(), from.end(),
                               [](const Entry& x, const Entry& y) {
                                 return x.key < y.key;
                               })->key;
      for (const Entry& e : from) buckets_[bucket(e.key)].push_back(e);
      from.clear();
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return {e.key, e.node};
  }

  // Starts a new key sequence at 0; only valid when empty.
  void restart() noexcept { last_ = 0; }

 private:
  struct Entry {
    Latency key;
    NodeId node;
  };

  std::size_t bucket(Latency key) const noexcept {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(key ^ last_)));
  }

  std::array<std::vector<Entry>, 65> buckets_;
  Latency last_ = 0;
  std::size_t size_ = 0;
};

// Dijkstra from s over f into `dist` (sized n, reused across sources).
// Returns ecc(s), or kUnreachable when some node is not reached.
Latency flat_eccentricity(const FlatGraph& f, NodeId s,
                          std::vector<Latency>& dist, RadixHeap& heap) {
  std::fill(dist.begin(), dist.end(), kUnreachable);
  const std::size_t* offsets = f.offsets.data();
  const FlatArc* arcs = f.arcs.data();
  Latency* d = dist.data();
  d[s] = 0;
  heap.restart();
  heap.push(0, s);
  Latency ecc = 0;
  std::size_t settled = 0;
  while (!heap.empty()) {
    const auto [du, u] = heap.pop();
    if (du != d[u]) continue;
    ecc = du;  // keys pop in nondecreasing order
    ++settled;
    const FlatArc* end = arcs + offsets[u + 1];
    for (const FlatArc* a = arcs + offsets[u]; a != end; ++a) {
      const Latency dv = du + a->w;
      if (dv < d[a->to]) {
        d[a->to] = dv;
        heap.push(dv, a->to);
      }
    }
  }
  return settled == dist.size() ? ecc : kUnreachable;
}

// Exact diameter of f, or kUnreachable if f is disconnected. The first
// source s0 is a node of maximum degree; its SSSP checks connectivity
// and feeds the long-edge filter. Every SSSP from s then tightens each
// candidate v's eccentricity bounds (Takes–Kosters):
//   lo(v) >= max(d(s, v), ecc(s) - d(s, v)),  hi(v) <= ecc(s) + d(s, v).
// lo(v) <= ecc(v) <= D, so `best`, the largest lo (lo(s) = ecc(s)),
// never exceeds D, and v stops being a candidate once hi(v) <= best:
// its eccentricity cannot raise best. When no candidate is left, best
// is D. Sources alternate between the largest hi and the smallest lo.
Latency bounded_diameter(FlatGraph f) {
  const std::size_t n = f.offsets.size() - 1;
  if (n == 0) return 0;
  std::vector<Latency> dist(n);
  RadixHeap heap;
  NodeId s = 0;
  for (NodeId v = 1; v < n; ++v)
    if (f.offsets[v + 1] - f.offsets[v] > f.offsets[s + 1] - f.offsets[s])
      s = v;
  Latency ecc = flat_eccentricity(f, s, dist, heap);
  if (ecc == kUnreachable) return kUnreachable;
  drop_long_arcs(f, dist);

  std::vector<Latency> lo(n, 0);
  std::vector<Latency> hi(n, kUnreachable);
  std::vector<NodeId> candidates(n);
  std::iota(candidates.begin(), candidates.end(), NodeId{0});
  Latency best = 0;
  for (bool largest_hi = true;; largest_hi = !largest_hi) {
    for (NodeId v : candidates) {
      lo[v] = std::max({lo[v], dist[v], ecc - dist[v]});
      hi[v] = std::min(hi[v], ecc + dist[v]);
      best = std::max(best, lo[v]);
    }
    std::erase_if(candidates, [&](NodeId v) { return hi[v] <= best; });
    if (candidates.empty()) return best;
    s = *std::min_element(candidates.begin(), candidates.end(),
                          [&](NodeId a, NodeId b) {
                            return largest_hi ? hi[a] > hi[b] : lo[a] < lo[b];
                          });
    ecc = flat_eccentricity(f, s, dist, heap);
  }
}

}  // namespace

std::vector<Latency> dijkstra(const WeightedGraph& g, NodeId source) {
  return dijkstra_impl(g, source, kUnreachable);
}

std::vector<Latency> dijkstra_capped(const WeightedGraph& g, NodeId source,
                                     Latency max_latency) {
  return dijkstra_impl(g, source, max_latency);
}

std::vector<Latency> dijkstra_directed(const DirectedGraph& g,
                                       NodeId source) {
  if (source >= g.num_nodes()) throw std::out_of_range("bad source");
  std::vector<Latency> dist(g.num_nodes(), kUnreachable);
  std::priority_queue<DistNode, std::vector<DistNode>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const Arc& a : g.out_arcs(u)) {
      if (d + a.latency < dist[a.to]) {
        dist[a.to] = d + a.latency;
        pq.emplace(dist[a.to], a.to);
      }
    }
  }
  return dist;
}

std::vector<Latency> bfs_hops(const WeightedGraph& g, NodeId source) {
  if (source >= g.num_nodes()) throw std::out_of_range("bad source");
  std::vector<Latency> hops(g.num_nodes(), kUnreachable);
  std::queue<NodeId> q;
  hops[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const HalfEdge& h : g.neighbors(u)) {
      if (hops[h.to] == kUnreachable) {
        hops[h.to] = hops[u] + 1;
        q.push(h.to);
      }
    }
  }
  return hops;
}

Latency weighted_eccentricity(const WeightedGraph& g, NodeId source) {
  const auto dist = dijkstra(g, source);
  Latency ecc = 0;
  for (Latency d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

Latency weighted_diameter(const WeightedGraph& g) {
  return bounded_diameter(
      flatten(g, [&g](EdgeId e) { return g.latency(e); }));
}

Latency hop_diameter(const WeightedGraph& g) {
  return bounded_diameter(flatten(g, [](EdgeId) { return Latency{1}; }));
}

Latency estimate_weighted_diameter(const WeightedGraph& g, int sweeps,
                                   Rng& rng) {
  if (g.num_nodes() == 0) return 0;
  Latency best = 0;
  for (int s = 0; s < sweeps; ++s) {
    const auto start = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    const auto d0 = dijkstra(g, start);
    NodeId far = start;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (d0[v] == kUnreachable) return kUnreachable;
      if (d0[v] > d0[far]) far = v;
    }
    best = std::max(best, weighted_eccentricity(g, far));
  }
  return best;
}

}  // namespace latgossip
