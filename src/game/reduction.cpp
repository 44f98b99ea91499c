#include "game/reduction.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/flooding.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "sim/dispatch.h"

namespace latgossip {
namespace {

/// `Proto` playing the induced guessing game: every cross edge it
/// selects in a round is one of Alice's guesses for that round. Without
/// faults or a blocking model the engine activates exactly the contacts
/// a protocol selects, so the game sees every cross-edge activation
/// while the run stays on the NoHooks path.
template <typename Proto>
class GamePlayer : public Proto {
 public:
  template <typename... Args>
  GamePlayer(const GuessingGadget& gadget, ReductionResult& result,
             Args&&... args)
      : Proto(std::forward<Args>(args)...),
        gadget_(&gadget),
        game_(gadget.m, gadget.target),
        result_(&result) {}

  auto select_contact(NodeId u, Round r) {
    const auto c = Proto::select_contact(u, r);
    if (c) guess(edge_of(u, *c), r);
    return c;
  }

  void finish(Round final_round) { flush_if_new_round(final_round + 1); }

 private:
  EdgeId edge_of(NodeId, Contact c) const { return c.edge; }
  EdgeId edge_of(NodeId u, NodeId v) const {
    return gadget_->graph.find_edge(u, v).value();
  }

  void guess(EdgeId e, Round r) {
    if (!gadget_->is_cross_edge(e)) return;
    flush_if_new_round(r);
    pending_.push_back(gadget_->cross_pair(e));
    ++result_->cross_activations;
  }

  void flush_if_new_round(Round r) {
    if (r == current_round_) return;
    if (!pending_.empty() && !game_.solved()) {
      game_.submit_round(pending_);
      if (game_.solved() && !result_->game_solved_round)
        result_->game_solved_round = current_round_;
    }
    pending_.clear();
    current_round_ = r;
  }

  const GuessingGadget* gadget_;
  GuessingGame game_;
  ReductionResult* result_;
  std::vector<GuessPair> pending_;
  Round current_round_ = 0;
};

template <typename Proto, typename... Args>
ReductionResult drive(const GuessingGadget& gadget, Round max_rounds,
                      Args&&... args) {
  ReductionResult result;
  GamePlayer<Proto> proto(gadget, result, std::forward<Args>(args)...);
  SimOptions opts;
  opts.max_rounds = max_rounds;
  result.sim = dispatch_gossip(gadget.graph, proto, opts);
  proto.finish(result.sim.rounds);
  result.broadcast_completed = result.sim.completed;
  return result;
}

}  // namespace

ReductionResult run_gadget_reduction(const GuessingGadget& gadget,
                                     ReductionProtocol protocol, Rng rng,
                                     Round max_rounds) {
  const std::size_t n = gadget.graph.num_nodes();
  NetworkView view(gadget.graph, /*latencies_known=*/false);
  switch (protocol) {
    case ReductionProtocol::kPushPull:
      return drive<PushPullGossip>(gadget, max_rounds, view,
                                   GossipGoal::kLocalBroadcast, 0,
                                   PushPullGossip::own_id_rumors(n), rng);
    case ReductionProtocol::kFlooding:
      return drive<RoundRobinFlooding>(gadget, max_rounds, view,
                                       GossipGoal::kLocalBroadcast, 0,
                                       own_id_rumors(n));
  }
  throw std::invalid_argument("unknown reduction protocol");
}

}  // namespace latgossip
