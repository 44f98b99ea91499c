#pragma once
// Classical push–pull random phone call gossip (Karp et al.) in the
// latency model. Theorem 12: push–pull completes broadcast w.h.p. in
// O((ℓ*/φ*) · log n) rounds, where φ* is the weighted conductance and
// ℓ* the critical latency. Push–pull never reads latencies, so it works
// in the unknown-latency model.
//
// Two variants:
//  * PushPullBroadcast — single-source rumor, boolean payloads (fast;
//    used by the large-scale Theorem 12 experiments).
//  * BasicPushPullGossip<R> — full rumor sets with a configurable
//    completion goal (single-source / all-to-all / local broadcast),
//    used by the lower-bound experiments and the unified algorithm.
//    Templated over the rumor-set representation (util/rumor_set.h);
//    PushPullGossip aliases the dense Bitset instantiation, so the
//    historical fast path compiles to exactly the same code.

#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/rumor_set.h"
#include "util/snapshot.h"

namespace latgossip {

/// What "done" means for a dissemination run.
enum class GossipGoal {
  kSingleSource,   ///< every node holds the source's rumor
  kAllToAll,       ///< every node holds every rumor
  kLocalBroadcast, ///< every node holds all of its neighbors' rumors
};

class PushPullBroadcast {
 public:
  using Payload = bool;

  PushPullBroadcast(const NetworkView& view, NodeId source, Rng rng);

  /// Re-arm for a new trial, as if freshly constructed with these
  /// arguments. Allocation-free when the node count is unchanged —
  /// trial sweeps keep one instance per worker in a TrialWorkspace slot
  /// and reset it per trial (DESIGN.md §5h).
  void reset(const NetworkView& view, NodeId source, Rng rng);

  /// Single-rumor push-pull is the paper's "small messages" protocol
  /// (Conclusion): one bit of payload per direction.
  static std::size_t payload_bits(const Payload&) { return 1; }

  /// Uniform neighbor pick, returned as a Contact so the engine resolves
  /// the edge straight from the adjacency slot (no hash lookup).
  std::optional<Contact> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_.test(u); }
  /// Round at which u became informed (-1 if never).
  Round inform_round(NodeId u) const { return inform_round_[u]; }

  /// Churn rejoin-with-reset (sim/engine.h reset_protocol_node): a
  /// returning node forgets the rumor unconditionally — the protocol
  /// stores no source id, so scenarios must spare the source
  /// (DynamicSpec::churn_spare) to keep the broadcast satisfiable.
  void reset_node(NodeId u, Round /*r*/) {
    informed_.reset(u);
    inform_round_[u] = -1;
  }

  /// Freshness hook (sim/freshness.h): the round of u's last
  /// information gain, -1 while uninformed.
  Round last_gain_round(NodeId u) const { return inform_round_[u]; }

 private:
  NetworkView view_;
  Rng rng_;
  Bitset informed_;
  std::vector<Round> inform_round_;
};

/// Latency-biased push-pull: a known-latency variant in which a node
/// picks neighbor v with probability proportional to 1/latency(u,v)^ρ
/// (the spatial-gossip idea of Kempe, Kleinberg and Demers, cited by the
/// paper, transplanted to latencies). ρ = 0 recovers uniform push-pull;
/// larger ρ avoids slow edges — a concrete answer to the paper's
/// question whether "a more careful choice of neighbors" helps, at the
/// price of needing latency knowledge.
class BiasedPushPullBroadcast {
 public:
  using Payload = bool;

  BiasedPushPullBroadcast(const NetworkView& view, NodeId source, double rho,
                          Rng rng);

  /// Re-arm for a new trial. The cumulative selection-weight tables are
  /// rebuilt only when the graph or ρ changed; same-workload sweeps
  /// reuse them (and every other allocation) untouched.
  void reset(const NetworkView& view, NodeId source, double rho, Rng rng);

  static std::size_t payload_bits(const Payload&) { return 1; }

  std::optional<Contact> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_[u]; }

 private:
  NetworkView view_;
  Rng rng_;
  double rho_;
  /// Per node: cumulative selection weights over its adjacency list.
  std::vector<std::vector<double>> cumulative_;
  std::vector<bool> informed_;
  std::size_t informed_count_ = 0;
};

template <RumorSetRep R>
class BasicPushPullGossip {
 public:
  /// Copy-on-write snapshot handle (util/snapshot.h): capture re-copies
  /// a node's rumor set only after it changed, and scheduling/delivery
  /// move refcounted pointers instead of heap-copying n-bit sets.
  using Payload = BasicSnapshotRef<R>;
  using RumorSet = R;

  /// `initial_rumors[u]` is u's starting rumor set; for the usual case
  /// use own_id_rumors(). `source` is only meaningful for
  /// GossipGoal::kSingleSource.
  BasicPushPullGossip(const NetworkView& view, GossipGoal goal, NodeId source,
                      std::vector<R> initial_rumors, Rng rng)
      : view_(view),
        goal_(goal),
        source_(source),
        rng_(rng),
        rumors_(std::move(initial_rumors)),
        rumor_count_(view.num_nodes(), 0),
        snapshots_(view.num_nodes(), view.num_nodes()),
        satisfied_(view.num_nodes(), false),
        last_gain_(view.num_nodes(), 0) {
    if (rumors_.size() != view.num_nodes())
      throw std::invalid_argument("push-pull: rumor vector size mismatch");
    if (goal == GossipGoal::kSingleSource && source >= view.num_nodes())
      throw std::invalid_argument("push-pull: bad source");
    for (NodeId u = 0; u < view.num_nodes(); ++u) {
      if (rumors_[u].size() != view.num_nodes())
        throw std::invalid_argument("push-pull: rumor bitset size mismatch");
      rumor_count_[u] = rumors_[u].count();
      refresh_satisfied(u);
    }
  }

  /// Re-arm for a new trial with own_id_rumors(n) starting sets, rebuilt
  /// in place (no fresh rumor-set vector, no new snapshot arena; see
  /// DESIGN.md §5h). Allocation-free when the node count is unchanged.
  /// Precondition: no payload ref from the previous run is still alive
  /// outside this protocol — true at trial boundaries because the
  /// engine releases pending deliveries before run_gossip returns.
  void reset_own_id(const NetworkView& view, GossipGoal goal, NodeId source,
                    Rng rng) {
    const std::size_t n = view.num_nodes();
    if (goal == GossipGoal::kSingleSource && source >= n)
      throw std::invalid_argument("push-pull: bad source");
    view_ = view;
    goal_ = goal;
    source_ = source;
    rng_ = rng;
    // Release the cached snapshot refs first so the arena reset below
    // sees every block back in its pool (its precondition).
    snapshots_.reset(n, n);
    rumors_.resize(n);
    rumor_count_.assign(n, 1);
    for (NodeId u = 0; u < n; ++u) {
      rumors_[u].reinit(n);
      rumors_[u].set(u);
    }
    satisfied_.assign(n, false);
    satisfied_count_ = 0;
    for (NodeId u = 0; u < n; ++u) refresh_satisfied(u);
    last_gain_.assign(n, 0);
  }

  static std::vector<R> own_id_rumors(std::size_t n) {
    return own_id_rumor_sets<R>(n);
  }

  /// Rumor sets cost ~32 bits per carried rumor id. The count is cached
  /// on the snapshot — no per-payload re-scan.
  static std::size_t payload_bits(const Payload& p) { return 32 * p.count(); }

  std::optional<Contact> select_contact(NodeId u, Round /*r*/) {
    const auto neigh = view_.neighbors(u);
    if (neigh.empty()) return std::nullopt;
    const HalfEdge& h = neigh[rng_.uniform(neigh.size())];
    return Contact{h.to, h.edge};
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return snapshots_.shared(u, rumors_[u], rumor_count_[u]);
  }

  /// Naive always-deep-copy capture; the reference oracle uses this so
  /// differential sweeps prove snapshot sharing ≡ copy-at-capture.
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return snapshots_.fresh(rumors_[u], rumor_count_[u]);
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round now) {
    // A receiver that already holds every rumor cannot gain from any
    // payload; returning before the union avoids touching the payload's
    // (usually cold) snapshot words in the late all-to-all rounds, where
    // most deliveries are no-ops.
    if (rumor_count_[u] == rumors_.size()) return;
    const typename R::OrDelta delta =
        rumors_[u].or_assign_changed(payload.bits());
    if (!delta.changed) return;
    rumor_count_[u] += delta.added;
    snapshots_.invalidate(u);
    last_gain_[u] = now;
    if (!satisfied_[u]) refresh_satisfied(u);
  }

  /// Churn rejoin-with-reset: u restarts with only its own rumor, as a
  /// freshly constructed node would. Cached snapshots are invalidated
  /// (in-flight payload refs keep their blocks alive via the arena
  /// refcounts) and the satisfied bookkeeping is re-derived both ways —
  /// a previously satisfied node can become unsatisfied here, which the
  /// grow-only refresh_satisfied() never handles.
  void reset_node(NodeId u, Round r) {
    const std::size_t n = rumors_.size();
    rumors_[u].reinit(n);
    rumors_[u].set(u);
    rumor_count_[u] = 1;
    snapshots_.invalidate(u);
    const bool now_sat = node_satisfied(u);
    if (satisfied_[u] && !now_sat) {
      satisfied_[u] = false;
      --satisfied_count_;
    } else if (!satisfied_[u] && now_sat) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
    last_gain_[u] = r;
  }

  /// Freshness hook (sim/freshness.h): round of u's last rumor gain.
  Round last_gain_round(NodeId u) const { return last_gain_[u]; }

  /// Warm u's rumor storage + count ahead of deliver(u, ...) — called by
  /// the engine a few deliveries ahead (sim/engine.h).
  void prefetch_deliver(NodeId u) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&rumor_count_[u], 0, 1);
#endif
    prefetch_rumor_set(rumors_[u]);
  }

  bool done(Round /*r*/) const {
    return satisfied_count_ == satisfied_.size();
  }

  const std::vector<R>& rumors() const { return rumors_; }
  std::vector<R> take_rumors() { return std::move(rumors_); }

  /// Arena statistics (allocated/pooled blocks, copies performed) —
  /// instrumentation for tests and perf probes.
  const BasicSnapshotArena<R>& snapshot_arena() const {
    return snapshots_.arena();
  }

 private:
  bool node_satisfied(NodeId u) const {
    switch (goal_) {
      case GossipGoal::kSingleSource:
        return rumors_[u].test(source_);
      case GossipGoal::kAllToAll:
        return rumor_count_[u] == view_.num_nodes();
      case GossipGoal::kLocalBroadcast:
        for (const HalfEdge& h : view_.neighbors(u))
          if (!rumors_[u].test(h.to)) return false;
        return true;
    }
    return false;
  }

  void refresh_satisfied(NodeId u) {
    if (node_satisfied(u)) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
  }

  NetworkView view_;
  GossipGoal goal_;
  NodeId source_;
  Rng rng_;
  std::vector<R> rumors_;
  /// rumors_[u].count(), maintained incrementally from deliver()'s
  /// OrDelta — the all-to-all done() check never re-popcounts.
  std::vector<std::size_t> rumor_count_;
  BasicSnapshotCache<R> snapshots_;
  std::vector<bool> satisfied_;
  std::size_t satisfied_count_ = 0;
  /// Round of each node's last rumor gain (0 for the initial set) —
  /// the freshness metric's raw input.
  std::vector<Round> last_gain_;
};

/// The dense fast path under its historical name: every pre-existing
/// call site (unified, EID, CLI, benches, tests) compiles against this
/// alias unchanged, and the Bitset instantiation inlines into
/// run_gossip_impl exactly as the untemplated class did.
using PushPullGossip = BasicPushPullGossip<Bitset>;

// ---------------------------------------------------------------------------
// Hot-path definitions. select/capture/deliver run tens of thousands of
// times per simulated second; defining them here (instead of the .cpp)
// lets them inline into run_gossip_impl's event loop — without LTO a
// cross-TU call would block that.

inline std::optional<Contact> PushPullBroadcast::select_contact(NodeId u,
                                                               Round) {
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  const HalfEdge& h = neigh[rng_.uniform(neigh.size())];
  return Contact{h.to, h.edge};
}

inline bool PushPullBroadcast::capture_payload(NodeId u, Round) const {
  return informed_.test(u);
}

inline void PushPullBroadcast::deliver(NodeId u, NodeId, Payload payload,
                                       EdgeId, Round, Round now) {
  if (payload && !informed_.test(u)) {
    informed_.set(u);
    inform_round_[u] = now;
  }
}

inline bool PushPullBroadcast::done(Round) const { return informed_.all_set(); }

}  // namespace latgossip
