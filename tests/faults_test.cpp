// Tests for failure injection (sim/faults.h) and the robustness claims
// of the paper's conclusion: push-pull tolerates crashes and lossy
// links; the spanner route is brittle once its overlay loses nodes.

#include <gtest/gtest.h>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/faults.h"

namespace latgossip {
namespace {

TEST(FaultPlan, CrashScheduling) {
  FaultPlan plan(4, 1);
  plan.crash_node(2, 10);
  EXPECT_FALSE(plan.crashed(2, 9));
  EXPECT_TRUE(plan.crashed(2, 10));
  EXPECT_TRUE(plan.crashed(2, 999));
  EXPECT_FALSE(plan.crashed(1, 999));
  EXPECT_EQ(plan.num_crashed_by(10), 1u);
  EXPECT_THROW(plan.crash_node(7, 0), std::out_of_range);
  EXPECT_THROW(plan.crash_node(0, -1), std::invalid_argument);
}

TEST(FaultPlan, RandomCrashesSpareTheSource) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FaultPlan plan(10, seed);
    plan.crash_random_nodes(5, 0, /*spare=*/3);
    EXPECT_FALSE(plan.crashed(3, 100));
    EXPECT_EQ(plan.num_crashed_by(0), 5u);
  }
}

TEST(FaultPlan, ValidatesDropProbability) {
  FaultPlan plan(3, 1);
  EXPECT_THROW(plan.set_link_drop_probability(1.5), std::invalid_argument);
  EXPECT_THROW(plan.crash_random_nodes(3, 0, 0), std::invalid_argument);
}

TEST(Faults, CrashedNodeNeverInitiatesOrReceives) {
  // Path 0-1-2 with node 1 crashed from the start: the rumor is stuck.
  const auto g = make_path(3);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  FaultPlan plan(3, 5);
  plan.crash_node(1, 0);
  SimOptions opts;
  plan.apply(opts);
  opts.max_rounds = 500;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(proto.informed(1));
  EXPECT_FALSE(proto.informed(2));
  EXPECT_GT(r.messages_dropped, 0u);
}

TEST(Faults, LateCrashAfterInformDoesNotUndo) {
  const auto g = make_clique(8);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(7));
  FaultPlan plan(8, 9);
  plan.crash_node(3, 100);  // long after completion
  SimOptions opts;
  plan.apply(opts);
  opts.max_rounds = 90;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

TEST(Faults, PushPullSurvivesHeavyLinkLoss) {
  // 30% delivery loss on a clique: push-pull still completes, just
  // slower — the conclusion's robustness claim.
  const auto g = make_clique(24);
  Round lossless = 0, lossy = 0;
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(11));
    SimOptions opts;
    opts.max_rounds = 100'000;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    lossless = r.rounds;
  }
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(11));
    FaultPlan plan(24, 13);
    plan.set_link_drop_probability(0.3);
    SimOptions opts;
    plan.apply(opts);
    opts.max_rounds = 100'000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_TRUE(r.completed);
    lossy = r.rounds;
    EXPECT_GT(r.messages_dropped, 0u);
  }
  EXPECT_GE(lossy, lossless);
}

TEST(Faults, PushPullSurvivesCrashesOfNonCutNodes) {
  // Crash a quarter of a clique mid-run; the survivors still finish.
  const auto g = make_clique(16);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(17));
  FaultPlan plan(16, 19);
  plan.crash_random_nodes(4, 2, /*spare=*/0);
  SimOptions opts;
  plan.apply(opts);
  opts.max_rounds = 100'000;
  run_gossip(g, proto, opts);
  // Completion flag can't fire (crashed nodes never inform), so check
  // the survivors directly.
  for (NodeId v = 0; v < 16; ++v) {
    if (!plan.crashed(v, 1'000'000)) {
      EXPECT_TRUE(proto.informed(v));
    }
  }
}

TEST(Faults, SpannerOverlayBrittleUnderCrash) {
  // RR broadcast over a sparse spanner: crash one spanner-internal node
  // and rumors relying on it stall — unlike push-pull on the full graph.
  Rng gen(23);
  auto g = make_erdos_renyi(24, 0.3, gen);
  Rng srng(29);
  const auto spanner = build_baswana_sen_spanner(g, {2, 0}, srng);
  // Find a node with positive out-degree to crash (overlay-relevant).
  NodeId victim = 1;
  for (NodeId v = 1; v < 24; ++v)
    if (spanner.out_degree(v) > 0) {
      victim = v;
      break;
    }
  NetworkView view(g, true);
  RRBroadcast proto(view, spanner, g.max_latency() * 10, own_id_rumors(24));
  FaultPlan plan(24, 31);
  plan.crash_node(victim, 0);
  SimOptions opts;
  plan.apply(opts);
  opts.max_rounds = proto.budget() * 2;
  run_gossip(g, proto, opts);
  // The crashed node's rumor cannot have reached anyone.
  for (NodeId v = 0; v < 24; ++v) {
    if (v != victim) {
      EXPECT_FALSE(proto.rumors()[v].test(victim));
    }
  }
}

TEST(Faults, RecorderCountsMatchSimResultUnderLinkLoss) {
  // Recorder event counts and the engine's aggregate counters are two
  // independent tallies of the same stream; under a seeded lossy run
  // they must agree exactly, and every initiated exchange must be fully
  // accounted for as deliveries + drops.
  const auto g = make_clique(24);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(11));
  FaultPlan plan(24, 13);
  plan.set_link_drop_probability(0.3);
  EventRecorder rec;
  SimOptions opts;
  plan.apply(opts);
  opts.recorder = &rec;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_EQ(rec.activations(), r.activations);
  EXPECT_EQ(rec.deliveries(), r.messages_delivered);
  EXPECT_EQ(rec.drops(), r.messages_dropped);
  // Each accepted exchange produces exactly two deliveries-or-drops.
  EXPECT_EQ(2 * (r.activations - r.exchanges_rejected),
            r.messages_delivered + r.messages_dropped);
}

TEST(Faults, RecorderSeparatesCrashDropsFromLinkDrops) {
  // Node 1 on a path is crashed from round 0: every loss is a crash
  // drop, none a link drop, and the totals still match SimResult.
  const auto g = make_path(3);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  FaultPlan plan(3, 5);
  plan.crash_node(1, 0);
  EventRecorder rec;
  SimOptions opts;
  plan.apply(opts);
  opts.recorder = &rec;
  opts.max_rounds = 500;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(rec.count(EventKind::kDrop), 0u);
  EXPECT_EQ(rec.count(EventKind::kCrashDrop), r.messages_dropped);
  EXPECT_GT(r.messages_dropped, 0u);
}

TEST(FaultPlan, CrashAllButOneLeavesOnlyTheSpare) {
  // count = n - 1 is the extreme the sampler allows: every node except
  // the spare ends up crashed, and the loop still terminates.
  const std::size_t n = 10;
  FaultPlan plan(n, 17);
  plan.crash_random_nodes(n - 1, 0, /*spare=*/4);
  EXPECT_EQ(plan.num_crashed_by(0), n - 1);
  EXPECT_FALSE(plan.crashed(4, 1'000'000));
  for (NodeId u = 0; u < n; ++u) {
    if (u != 4) {
      EXPECT_TRUE(plan.crashed(u, 0));
    }
  }
  // One more than n - 1 must throw, not spin forever.
  FaultPlan over(n, 17);
  EXPECT_THROW(over.crash_random_nodes(n, 0, 4), std::invalid_argument);
}

TEST(FaultPlan, CrashEveryoneButSourceAtRoundZeroStallsTheRun) {
  // The run degenerates to the source alone: no deliveries can land,
  // the engine stops idle and incomplete rather than spinning.
  const auto g = make_clique(8);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(21));
  FaultPlan plan(8, 9);
  plan.crash_random_nodes(7, 0, /*spare=*/0);
  SimOptions opts;
  plan.apply(opts);
  opts.max_rounds = 2000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  for (NodeId u = 1; u < 8; ++u) EXPECT_FALSE(proto.informed(u));
}

TEST(FaultPlan, DropProbabilityExtremes) {
  // p = 0.0 (and no crashes) leaves the run loss-free and bit-identical
  // to a run without the plan, although the plan is installed.
  const auto g = make_clique(12);
  {
    NetworkView view(g, false);
    PushPullBroadcast plain(view, 0, Rng(31));
    SimOptions plain_opts;
    plain_opts.max_rounds = 2000;
    const SimResult expected = run_gossip(g, plain, plain_opts);

    PushPullBroadcast proto(view, 0, Rng(31));
    FaultPlan plan(12, 7);
    plan.set_link_drop_probability(0.0);
    SimOptions opts;
    plan.apply(opts);
    EXPECT_EQ(opts.faults, &plan);
    opts.max_rounds = 2000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.messages_dropped, 0u);
    EXPECT_EQ(r, expected);
    for (NodeId u = 0; u < 12; ++u)
      EXPECT_EQ(proto.inform_round(u), plain.inform_round(u));
  }
  // p = 1.0 loses every payload: nothing is ever delivered, the source
  // stays alone, and every initiated exchange turns into drops.
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(31));
    FaultPlan plan(12, 7);
    plan.set_link_drop_probability(1.0);
    SimOptions opts;
    plan.apply(opts);
    opts.max_rounds = 2000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.messages_delivered, 0u);
    EXPECT_GT(r.messages_dropped, 0u);
    for (NodeId u = 1; u < 12; ++u) EXPECT_FALSE(proto.informed(u));
  }
}

TEST(FaultPlan, DetachReArmsApplyAndClearsHooks) {
  FaultPlan plan(6, 3);
  plan.set_link_drop_probability(0.5);
  SimOptions opts;
  plan.apply(opts);
  EXPECT_EQ(opts.faults, &plan);
  EXPECT_TRUE(opts.any_hooks());
  plan.detach(opts);
  EXPECT_EQ(opts.faults, nullptr);
  EXPECT_FALSE(opts.any_hooks());
  // A second apply/detach cycle works the same way.
  plan.apply(opts);
  EXPECT_EQ(opts.faults, &plan);
  plan.detach(opts);
  EXPECT_EQ(opts.faults, nullptr);
}

TEST(FaultPlan, DropDrawsHitRatePAndKeyOnTheInitiator) {
  // 40k hashed legs per p: the loss rate sits within 4 sigma of p.
  for (double p : {0.1, 0.5, 0.9}) {
    FaultPlan plan(100, 77);
    plan.set_link_drop_probability(p);
    std::size_t lost = 0;
    for (NodeId i = 0; i < 100; ++i)
      for (Round s = 0; s < 200; ++s)
        lost += plan.drops(i, s, false) + plan.drops(i, s, true);
    EXPECT_NEAR(static_cast<double>(lost) / 40'000.0, p, 0.01);
  }
  // When 0 and 1 open exchanges to each other in round s, two legs
  // travel 0 -> 1 starting at s: 0's push (leg 0 of initiator 0) and
  // 1's response (leg 1 of initiator 1). They share (to, from, edge,
  // start) yet must draw independently: at p = 0.5 their fates differ
  // in about half the rounds.
  FaultPlan plan(2, 11);
  plan.set_link_drop_probability(0.5);
  int split = 0;
  for (Round s = 0; s < 4000; ++s)
    split += plan.drops(0, s, false) != plan.drops(1, s, true);
  EXPECT_NEAR(split / 4000.0, 0.5, 0.05);
}

TEST(Jitter, UniformJitterStaysPositiveAndBounded) {
  const LatencyJitter jitter = make_uniform_jitter(3, 41);
  for (Round r = 0; r < 1000; ++r) {
    const Latency l = jitter.jittered(5, static_cast<NodeId>(r % 7), r);
    EXPECT_GE(l, 2);
    EXPECT_LE(l, 8);
  }
  const LatencyJitter tight = make_uniform_jitter(10, 43);
  for (Round r = 0; r < 1000; ++r) EXPECT_GE(tight.jittered(2, 0, r), 1);
  EXPECT_FALSE(make_uniform_jitter(0, 1).active());
  EXPECT_THROW(make_uniform_jitter(-1, 1), std::invalid_argument);
}

TEST(Jitter, PushPullCompletesUnderJitter) {
  auto g = make_clique(16);
  assign_uniform_latency(g, 6);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(47));
  SimOptions opts;
  opts.latency_jitter = make_uniform_jitter(4, 53);
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace latgossip
