#include "sim/oracle.h"

#include <algorithm>

#include "util/rng.h"

namespace latgossip {

namespace {
// Depth, not a flag: differential drivers nest guards when they wrap a
// composite runner that wraps another one.
thread_local int g_oracle_depth = 0;
}  // namespace

bool oracle_engine_active() noexcept { return g_oracle_depth > 0; }

ScopedOracleEngine::ScopedOracleEngine() noexcept { ++g_oracle_depth; }
ScopedOracleEngine::~ScopedOracleEngine() { --g_oracle_depth; }

namespace oracle_detail {

std::optional<EdgeId> scan_for_edge(const WeightedGraph& g, NodeId u,
                                    NodeId v) {
  for (const HalfEdge& h : g.neighbors(u))
    if (h.to == v) return h.edge;
  return std::nullopt;
}

bool scan_adjacency_for(const WeightedGraph& g, NodeId u, NodeId v,
                        EdgeId e) {
  for (const HalfEdge& h : g.neighbors(u))
    if (h.to == v && h.edge == e) return true;
  return false;
}

namespace {

/// One node's churn schedule re-derived from scratch (the contract in
/// sim/dynamics_spec.h), independent of DynamicPlan's precomputed
/// interval table.
struct OracleChurn {
  bool leaves = false;
  Round leave = 0;
  Round absence = 0;
  bool reset = false;
};

OracleChurn oracle_churn_of(const DynamicSpec& spec, NodeId u) {
  OracleChurn c;
  if (!spec.churn_active() || u == spec.churn_spare) return c;
  Rng rng(spec.seed ^ (0xc2b2ae3d27d4eb4fULL * (std::uint64_t{u} + 1)));
  c.leaves = rng.bernoulli(spec.churn_prob);
  c.leave = 1 + static_cast<Round>(
                    rng.uniform(static_cast<std::uint64_t>(spec.churn_window)));
  c.absence =
      1 + static_cast<Round>(
              rng.uniform(static_cast<std::uint64_t>(spec.churn_absence)));
  c.reset =
      spec.churn_mode == 1 || (spec.churn_mode == 2 && rng.bernoulli(0.5));
  return c;
}

}  // namespace

std::uint64_t oracle_drift_factor(const DynamicSpec& spec, EdgeId e, Round r) {
  // Recomputed from round 0 on every query — no incremental cache.
  std::uint64_t f = 1024;
  const std::uint64_t lo = 1024ULL * 1024ULL / spec.drift_bound;
  for (Round t = 1; t <= r; ++t) {
    std::uint64_t h = spec.seed ^
                      (0x9e3779b97f4a7c15ULL * (std::uint64_t{e} + 1)) ^
                      (static_cast<std::uint64_t>(t) * 0xbf58476d1ce4e5b9ULL);
    const bool up = (splitmix64(h) & 1) != 0;
    f = f * (up ? 1024 + spec.drift_step : 1024 - spec.drift_step) / 1024;
    f = std::clamp<std::uint64_t>(f, lo, spec.drift_bound);
  }
  return f;
}

bool oracle_node_absent(const DynamicSpec& spec, NodeId u, Round r,
                        Round absence_bias) {
  const OracleChurn c = oracle_churn_of(spec, u);
  if (!c.leaves) return false;
  return r >= c.leave && r < c.leave + c.absence + absence_bias;
}

bool oracle_node_resets_at(const DynamicSpec& spec, NodeId u, Round r,
                           Round absence_bias) {
  const OracleChurn c = oracle_churn_of(spec, u);
  return c.leaves && c.reset && r == c.leave + c.absence + absence_bias;
}

namespace {

/// mix(x, v) of the sim/faults.h contracts: one splitmix64 step from
/// state x ^ v.
std::uint64_t contract_mix(std::uint64_t x, std::uint64_t v) {
  std::uint64_t state = x ^ v;
  return splitmix64(state);
}

}  // namespace

bool oracle_leg_dropped(const FaultPlan& plan, NodeId initiator, Round start,
                        bool response_leg) {
  std::uint64_t h = plan.seed() ^ 0xd6e8feb86659fd93ULL;
  for (const std::uint64_t key :
       {std::uint64_t{initiator}, static_cast<std::uint64_t>(start),
        std::uint64_t{response_leg}})
    h = contract_mix(h, key);
  // The top 53 bits as an integer against p scaled by 2^53: the same
  // comparison as the contract's (h >> 11) * 2^-53 < p, both sides exact.
  return static_cast<double>(h >> 11) < plan.drop_probability() * 0x1.0p53;
}

Latency oracle_jitter(const LatencyJitter& jitter, Latency nominal,
                      NodeId initiator, Round start, bool flip) {
  const std::uint64_t h = contract_mix(
      contract_mix(jitter.seed ^ 0xa0761d6478bd642fULL, initiator),
      static_cast<std::uint64_t>(start));
  const auto choices = static_cast<std::uint64_t>(2 * jitter.spread + 1);
  Latency delta = static_cast<Latency>(h % choices) - jitter.spread;
  if (flip) delta = -delta;
  return std::max<Latency>(1, nominal + delta);
}

}  // namespace oracle_detail

}  // namespace latgossip
