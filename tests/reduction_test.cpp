// Tests for the gossip -> guessing-game reduction (Lemma 3).
//
// The testable content of Lemma 3 in the simulator: a right-side node
// whose incident cross edges are all slow cannot receive anything before
// the slow latency elapses, so if local broadcast completes BEFORE the
// slow latency, every b in T^B must have been hit through a fast edge —
// i.e. the induced guessing game was solved no later than the broadcast.

#include <gtest/gtest.h>

#include "game/reduction.h"
#include "graph/gadgets.h"
#include "sim/oracle.h"

namespace latgossip {
namespace {

GuessingGadget singleton_gadget(std::size_t m, std::uint64_t seed,
                                bool symmetric = false) {
  Rng rng(seed);
  return make_guessing_gadget(m, make_singleton_target(m, rng), 1,
                              static_cast<Latency>(4 * m), symmetric);
}

TEST(Reduction, SlowLatencyFloorsBroadcastTime) {
  // With a singleton target, all right nodes but one have only slow
  // cross edges: local broadcast cannot complete before the slow
  // latency (the Ω(ℓ) term of Theorem 7).
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto gadget = singleton_gadget(12, seed);
    const ReductionResult r = run_gadget_reduction(
        gadget, ReductionProtocol::kPushPull, Rng(seed * 7 + 1), 500'000);
    ASSERT_TRUE(r.broadcast_completed);
    EXPECT_GE(r.sim.rounds, gadget.slow_latency);
  }
}

TEST(Reduction, FastCompletionImpliesGameSolved) {
  // Dense Random_p target: every right node has fast edges whp, so
  // broadcast finishes long before the slow latency — which forces the
  // game to have been solved by then (Lemma 3).
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    Rng trng(seed);
    const std::size_t m = 16;
    auto target = make_random_p_target(m, 0.4, trng);
    const auto gadget =
        make_guessing_gadget(m, std::move(target), 1,
                             /*slow=*/1000, false);
    const ReductionResult r = run_gadget_reduction(
        gadget, ReductionProtocol::kPushPull, Rng(seed + 100), 500'000);
    ASSERT_TRUE(r.broadcast_completed);
    ASSERT_LT(r.sim.rounds, 1000);
    ASSERT_TRUE(r.game_solved_round.has_value());
    EXPECT_LE(*r.game_solved_round, r.sim.rounds);
  }
}

TEST(Reduction, CrossActivationsBoundedByGuessBudget) {
  // Each simulation round activates at most 2m cross edges (one
  // initiation per node), matching the game's 2m-guess budget.
  const auto gadget = singleton_gadget(8, 5);
  const ReductionResult r = run_gadget_reduction(
      gadget, ReductionProtocol::kPushPull, Rng(11), 500'000);
  EXPECT_LE(r.cross_activations,
            static_cast<std::size_t>(r.sim.rounds + 1) * 2 * 8);
  // Pinned: any change in which activations reach the game, or in how
  // they group into game rounds, moves these.
  EXPECT_EQ(r.cross_activations, 485u);
  EXPECT_EQ(r.game_solved_round, Round{6});
}

TEST(Reduction, FloodingAlsoReduces) {
  const auto gadget = singleton_gadget(8, 9);
  const ReductionResult r = run_gadget_reduction(
      gadget, ReductionProtocol::kFlooding, Rng(13), 500'000);
  ASSERT_TRUE(r.broadcast_completed);
  EXPECT_GE(r.sim.rounds, gadget.slow_latency);
  EXPECT_EQ(r.cross_activations, 400u);  // pinned, as above
  EXPECT_EQ(r.game_solved_round, Round{0});
}

TEST(Reduction, SymmetricGadgetWorks) {
  const auto gadget = singleton_gadget(10, 17, /*symmetric=*/true);
  const ReductionResult r = run_gadget_reduction(
      gadget, ReductionProtocol::kPushPull, Rng(19), 500'000);
  EXPECT_TRUE(r.broadcast_completed);
}

TEST(Reduction, GameTimeGrowsWithGadgetSize) {
  // The Ω(Δ) shape (Lemma 4 via the reduction): the round in which the
  // hidden fast edge is found grows with m. Compare means at m=8 vs
  // m=32, skipping the rare runs where the slow latency elapsed first.
  double small_mean = 0, large_mean = 0;
  int small_cnt = 0, large_cnt = 0;
  for (int t = 0; t < 10; ++t) {
    for (std::size_t m : {8u, 32u}) {
      const auto gadget = singleton_gadget(m, 100 + t);
      const ReductionResult r = run_gadget_reduction(
          gadget, ReductionProtocol::kPushPull, Rng(200 + t), 500'000);
      EXPECT_TRUE(r.broadcast_completed);
      if (!r.game_solved_round.has_value()) continue;
      if (m == 8) {
        small_mean += static_cast<double>(*r.game_solved_round);
        ++small_cnt;
      } else {
        large_mean += static_cast<double>(*r.game_solved_round);
        ++large_cnt;
      }
    }
  }
  ASSERT_GT(small_cnt, 5);
  ASSERT_GT(large_cnt, 5);
  EXPECT_GT(large_mean / large_cnt, 1.8 * (small_mean / small_cnt));
}

TEST(Reduction, OracleEngineGivesTheSameResult) {
  // Under a ScopedOracleEngine the reduction runs on the reference
  // oracle (it dispatches through dispatch_gossip); every field of the
  // result must match the optimized engine's.
  for (const bool symmetric : {false, true})
    for (const auto protocol :
         {ReductionProtocol::kPushPull, ReductionProtocol::kFlooding}) {
      const auto gadget = singleton_gadget(8, 21, symmetric);
      const ReductionResult e =
          run_gadget_reduction(gadget, protocol, Rng(23), 500'000);
      const ScopedOracleEngine oracle;
      const ReductionResult o =
          run_gadget_reduction(gadget, protocol, Rng(23), 500'000);
      EXPECT_EQ(e.sim, o.sim);
      EXPECT_EQ(e.broadcast_completed, o.broadcast_completed);
      EXPECT_EQ(e.cross_activations, o.cross_activations);
      EXPECT_EQ(e.game_solved_round, o.game_solved_round);
      EXPECT_GT(e.cross_activations, 0u);
    }
}

}  // namespace
}  // namespace latgossip
