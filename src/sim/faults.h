#pragma once
// Failure injection and latency jitter as declarative data (Conclusion:
// "push-pull is relatively robust to failures, while our other
// approaches are not"; footnote 1: latencies fluctuate).
//
// A FaultPlan is a crash table, a link-loss probability and a seed; a
// LatencyJitter is {spread, seed}. Runs consume no state from either:
// every drop and jitter draw is a pure hash of the exchange, so the
// engine (sim/engine.h) and the oracle (sim/oracle.cpp) derive them
// with independent code and agree bit for bit. The contracts, with
// mix(x, v) = splitmix64(x ^ v) (util/rng.h, on a local copy) and ids
// and rounds widened to uint64:
//
// Crashes: u is crashed at round r iff crash_round(u) <= r. A crashed
//   node initiates nothing; a delivery whose sender or receiver is
//   crashed at its delivery round is a crash-drop. crash_random_nodes
//   draws from Rng(seed) while the plan is built, never during a run.
//
// Drops (drop_probability() > 0): the exchange node i opens at round s
//   has leg 0 (i's payload to the responder) and leg 1 (the responder's
//   payload back to i). A leg that is not a crash-drop is lost iff
//     h = mix(mix(mix(seed ^ 0xd6e8feb86659fd93, i), s), leg)
//     (h >> 11) * 2^-53 < drop_probability.
//   The key is the initiator, not (to, from, edge, start): when u and v
//   open exchanges to each other in one round, u's push leg and v's
//   response leg share the latter but must still draw independently.
//
// Jitter (spread > 0): both legs of the exchange i opens at round s
//   take latency max(1, nominal + delta), where
//     h = mix(mix(seed ^ 0xa0761d6478bd642f, i), s)
//     delta = int64(h % (2 * spread + 1)) - spread,
//   applied after in-degree admission and before dynamics
//   (sim/dynamics_spec.h).
//
// FaultPlan::apply() points SimOptions::faults at the plan, which must
// outlive every run made with those options; detach() (or
// SimOptions::reset_observers()) clears it.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace latgossip {

struct SimOptions;

namespace fault_detail {

constexpr std::uint64_t mix(std::uint64_t x, std::uint64_t v) noexcept {
  std::uint64_t s = x ^ v;
  return splitmix64(s);
}

}  // namespace fault_detail

class FaultPlan {
 public:
  explicit FaultPlan(std::size_t num_nodes, std::uint64_t seed = 0)
      : crash_round_(num_nodes, kNever), seed_(seed), rng_(seed) {}

  /// Node u stops initiating and receiving from round `at` on.
  void crash_node(NodeId u, Round at) {
    if (u >= crash_round_.size())
      throw std::out_of_range("FaultPlan: node id out of range");
    if (at < 0) throw std::invalid_argument("FaultPlan: negative round");
    crash_round_[u] = at;
  }

  /// Crash `count` distinct uniformly random nodes at round `at`,
  /// never crashing `spare` (e.g. the broadcast source).
  void crash_random_nodes(std::size_t count, Round at, NodeId spare) {
    const std::size_t n = crash_round_.size();
    if (count + 1 > n)
      throw std::invalid_argument("FaultPlan: too many crashes");
    std::size_t done = 0;
    while (done < count) {
      const auto v = static_cast<NodeId>(rng_.uniform(n));
      if (v == spare || crash_round_[v] != kNever) continue;
      crash_round_[v] = at;
      ++done;
    }
  }

  /// Every payload delivery is independently lost with probability p.
  void set_link_drop_probability(double p) {
    if (p < 0.0 || p > 1.0)
      throw std::invalid_argument("FaultPlan: p out of [0,1]");
    drop_probability_ = p;
  }

  std::uint64_t seed() const noexcept { return seed_; }
  double drop_probability() const noexcept { return drop_probability_; }
  Round crash_round(NodeId u) const { return crash_round_[u]; }

  bool crashed(NodeId u, Round r) const { return crash_round_[u] <= r; }

  /// Is leg `response_leg` of the exchange `initiator` opened at `start`
  /// lost? (The drop contract above.)
  bool drops(NodeId initiator, Round start, bool response_leg) const noexcept {
    if (drop_probability_ <= 0.0) return false;
    using fault_detail::mix;
    const std::uint64_t h =
        mix(mix(mix(seed_ ^ 0xd6e8feb86659fd93ULL, initiator),
                static_cast<std::uint64_t>(start)),
            response_leg ? 1 : 0);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < drop_probability_;
  }

  /// Point `opts.faults` at this plan / clear it again (sim/engine.h).
  void apply(SimOptions& opts) const;
  void detach(SimOptions& opts) const;

  std::size_t num_crashed_by(Round r) const {
    std::size_t c = 0;
    for (Round cr : crash_round_)
      if (cr <= r) ++c;
    return c;
  }

 private:
  static constexpr Round kNever = std::numeric_limits<Round>::max();

  std::vector<Round> crash_round_;
  double drop_probability_ = 0.0;
  std::uint64_t seed_;
  Rng rng_;  ///< crash_random_nodes' stream, used only while building
};

/// Uniform per-exchange latency jitter (the jitter contract above).
struct LatencyJitter {
  Latency spread = 0;
  std::uint64_t seed = 0;

  bool active() const noexcept { return spread > 0; }

  /// Latency of the exchange `initiator` opens at `start` over an edge
  /// of latency `nominal`.
  Latency jittered(Latency nominal, NodeId initiator,
                   Round start) const noexcept {
    using fault_detail::mix;
    const std::uint64_t h =
        mix(mix(seed ^ 0xa0761d6478bd642fULL, initiator),
            static_cast<std::uint64_t>(start));
    const auto width = static_cast<std::uint64_t>(2 * spread + 1);
    const Latency delta = static_cast<Latency>(h % width) - spread;
    return std::max<Latency>(1, nominal + delta);
  }
};

/// Jitter each exchange's latency by an integer uniform in
/// [-spread, +spread], clamped to >= 1. Assign the result to
/// SimOptions::latency_jitter.
inline LatencyJitter make_uniform_jitter(Latency spread, std::uint64_t seed) {
  if (spread < 0) throw std::invalid_argument("jitter: negative spread");
  return LatencyJitter{spread, seed};
}

}  // namespace latgossip
