// latbench — the workload runner behind perfbench/run.py (see README.md).
//
//   latbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --work-dir=DIR [--tiny]
//
// One process runs one workload: it builds the workload's inputs from
// the seed (several times, to time set-up), runs one untimed warm-up
// pass as the correctness reference, then repeats measured passes until
// --seconds have elapsed. Each pass computes the workload's results,
// runs its store cells through a fresh ExperimentStore (write path) and
// answers them again from the reopened store (read path). Every pass is
// checked: fault-free results must reproduce the reference digest,
// store answers must equal the computed trials, and fault runs must
// satisfy invariants that hold for any RNG stream. A last pass at one
// pool thread must reproduce the digest of the four-thread passes.
//
// --trace=0 prints the end-to-end metrics; --trace=1 alternates traced
// and untraced passes, records spans around every library call and
// prints the per-layer metrics derived from them, writing the spans to
// DIR/spans-NAME-N.jsonl. The last stdout line is one JSON object;
// run.py turns it into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/distance.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "game/reduction.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/parallel.h"
#include "store/cached_trials.h"
#include "store/key.h"
#include "store/store.h"
#include "util/args.h"
#include "util/rumor_set.h"
#include "spans.h"

using namespace latgossip;
using perfbench::SpanScope;
using perfbench::now_ns;
using perfbench::tracing;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Bookkeeping

/// FNV-1a over 64-bit words: the digest of a pass's fault-free results.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const SimResult& r) {
    add(static_cast<std::uint64_t>(r.rounds));
    add(r.completed);
    add(r.activations);
    add(r.messages_delivered);
    add(r.messages_dropped);
    add(r.exchanges_rejected);
    add(r.payload_bits);
    add(r.max_inflight);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Failed checks, from any thread (trial bodies run on pool workers),
/// counted as failed runs. A run is one engine run or gadget reduction,
/// or one stored trial computed into or answered from a store. A run
/// fails once however many of its checks fail. A check over a group of
/// runs (a pass, a store fill or resume) fails one run of the group,
/// unless one of them has already failed.
class ErrorLog {
 public:
  void begin_run() { state_ = kClean; }
  void end_run() {
    if (std::exchange(state_, kOutside) == kFailed) count_run();
  }
  /// A failed check of the run in progress on this thread.
  void fail(std::string msg) {
    keep(std::move(msg));
    if (state_ == kOutside)
      count_run();
    else
      state_ = kFailed;
  }
  /// A failed check over the group of runs that started when
  /// failed_runs() read `before`.
  void fail_group(std::string msg, std::size_t before) {
    keep(std::move(msg));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_runs_ == before) ++failed_runs_;
  }
  std::size_t failed_runs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_runs_;
  }
  std::vector<std::string> messages() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
  }

 private:
  enum State { kOutside, kClean, kFailed };
  static inline thread_local State state_ = kOutside;

  void count_run() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++failed_runs_;
  }
  void keep(std::string msg) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 20) messages_.push_back(std::move(msg));
  }

  mutable std::mutex mutex_;
  std::size_t failed_runs_ = 0;          // guarded
  std::vector<std::string> messages_;    // guarded
};
ErrorLog g_errors;

/// One run of the error log for its lifetime.
class RunScope {
 public:
  RunScope() { g_errors.begin_run(); }
  ~RunScope() { g_errors.end_run(); }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
};

/// `body` with each trial as one run of the error log.
TrialWsFn checked(const TrialWsFn& body) {
  return [&body](std::size_t t, Rng rng, TrialWorkspace& ws) {
    const RunScope run;
    return body(t, rng, ws);
  };
}

struct Family {
  std::size_t rounds = 0, deliveries = 0;
};

struct PoolShape {
  double batch_s = 0.0, cpu_s = 0.0;
  std::size_t threads = 0;
};

/// The steps of one timed sequence: each lap() closes a step, so the
/// steps partition the time from start() to the last lap().
class Laps {
 public:
  void start() {
    steps.clear();
    last_ = now_ns();
  }
  void lap() {
    const std::int64_t t = now_ns();
    steps.push_back(static_cast<double>(t - last_) * 1e-9);
    last_ = t;
  }

  std::vector<double> steps;

 private:
  std::int64_t last_ = 0;
};

/// What one pass computed, summed over its engine runs.
struct PassStats {
  Digest digest;
  std::size_t runs = 0, completed = 0;
  std::size_t rounds = 0, activations = 0, deliveries = 0, dropped = 0,
              payload_bits = 0, max_inflight = 0;
  std::map<std::string, Family> families;
  std::map<std::string, PoolShape> pools;
  std::size_t reductions = 0, solved = 0, cross_activations = 0;
  std::size_t sssp_runs = 0;
  double sssp_edge_work = 0.0;  ///< sum over SSSP runs of the edge count
  std::vector<std::vector<SimResult>> stored;  ///< per stored batch
  Laps laps;  ///< the pass's steps: direct items, batches, the rest

  void record(const SimResult& r, const char* family, bool pinned) {
    ++runs;
    completed += r.completed;
    rounds += static_cast<std::size_t>(r.rounds);
    activations += r.activations;
    deliveries += r.messages_delivered;
    dropped += r.messages_dropped;
    payload_bits += r.payload_bits;
    max_inflight = std::max(max_inflight, r.max_inflight);
    Family& f = families[family];
    f.rounds += static_cast<std::size_t>(r.rounds);
    f.deliveries += r.messages_delivered;
    if (pinned) digest.add(r);
  }
  Family family(const std::string& name) const {
    const auto it = families.find(name);
    return it == families.end() ? Family{} : it->second;
  }
  PoolShape pool(const std::string& shape) const {
    const auto it = pools.find(shape);
    return it == pools.end() ? PoolShape{} : it->second;
  }
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return trial_seed(trial_seed(seed, a), b);
}

// ---------------------------------------------------------------------------
// Workloads

/// One run_trials batch. Stored batches also run through the store.
struct Batch {
  const char* shape;   ///< pool batch shape (pool metrics are per shape)
  const char* family;  ///< engine family (ns per delivery is per family)
  std::size_t trials;
  std::uint64_t seed;
  bool pinned;         ///< fault-free: part of the pass digest
  bool stored;
  CellSpec cell;
  TrialWsFn body;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed`, replacing the previous ones.
  virtual void setup(std::uint64_t seed) = 0;
  /// The pass's work outside run_trials batches.
  virtual void direct(PassStats& st) = 0;
  /// Pool width for the batches; 1 for single-threaded workloads.
  virtual bool parallel() const = 0;
  /// Folds results the batches left outside their SimResults into the
  /// digest (called after every batch of a pass has run).
  virtual void after_batches(PassStats&) const {}
  /// Runs direct() makes.
  virtual std::size_t direct_runs() const = 0;

  /// Runs one pass makes (each trial of a batch is one run).
  std::size_t pass_runs() const {
    std::size_t n = direct_runs();
    for (const Batch& b : batches) n += b.trials;
    return n;
  }
  /// Trials in one sweep of the stored batches.
  std::size_t stored_trials() const {
    std::size_t n = 0;
    for (const Batch& b : batches) n += b.stored ? b.trials : 0;
    return n;
  }

  std::vector<Batch> batches;  ///< rebuilt by setup()
  std::size_t edges_built = 0; ///< edges generated by the last setup()
};

/// A graph generated under a "graph.build" span, counted in edges_built.
template <class Fn>
auto build_graph(Workload& w, const char* tag, Fn&& fn) {
  SpanScope span("graph.build", tag);
  auto g = fn();
  if constexpr (std::is_same_v<decltype(g), WeightedGraph>)
    w.edges_built += g.num_edges();
  else if constexpr (std::is_same_v<decltype(g), GuessingGadget>)
    w.edges_built += g.graph.num_edges();
  else
    w.edges_built += g.gadget.graph.num_edges();
  return g;
}

WeightedGraph er_with_uniform_latency(std::size_t n, double avg_degree,
                                      std::uint64_t seed) {
  auto g = make_erdos_renyi_streaming(n, avg_degree / static_cast<double>(n),
                                      seed);
  Rng lrng(seed ^ 0x5bd1e995ULL);
  assign_random_uniform_latency(g, 1, 8, lrng);
  return g;
}

/// Push-pull broadcast from node 0 on the NoHooks path, with the
/// protocol parked in the worker's workspace (the production sweep
/// configuration). Every fault-free broadcast must complete.
TrialWsFn broadcast_trial(const WeightedGraph& g, const char* family) {
  return [&g, family](std::size_t t, Rng rng, TrialWorkspace& ws) {
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
    proto.reset(view, 0, rng);
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.workspace = &ws;
    SimResult r;
    {
      SpanScope span("sim.engine.plain", family, static_cast<std::int64_t>(t));
      r = run_gossip(g, proto, opts);
    }
    if (!r.completed)
      g_errors.fail(std::string(family) + ": broadcast trial " +
                    std::to_string(t) + " did not complete");
    return r;
  };
}

CellSpec broadcast_cell(const WeightedGraph& g, std::string protocol) {
  CellSpec c;
  c.protocol = std::move(protocol);
  c.graph = graph_digest(g);
  c.source = 0;
  c.max_rounds = 1'000'000;
  return c;
}

// -- lb_gadgets ---------------------------------------------------------------
//
// The E3/E4/A1 sweeps single-threaded, as their exp_* binaries run them:
// Theorem-6 gadgets, Theorem-7 networks (each followed by the weighted
// diameter), and the fault ablation on ER n=64.

class LbGadgets final : public Workload {
 public:
  explicit LbGadgets(bool tiny)
      : max_delta_(tiny ? 32 : 256),
        thm7_n_(tiny ? 48 : 192),
        crash_rounds_(tiny ? 500 : 5000) {}

  bool parallel() const override { return false; }
  std::size_t direct_runs() const override {
    return thm6_.size() + thm7_.size();
  }

  void setup(std::uint64_t seed) override {
    edges_built = 0;
    thm6_.clear();
    thm7_.clear();
    for (std::size_t delta = 16; delta <= max_delta_; delta *= 2)
      thm6_.push_back(build_graph(*this, "thm6", [&] {
        Rng grng(derive(seed, 6, delta));
        return make_guessing_gadget(delta, make_singleton_target(delta, grng),
                                    1, static_cast<Latency>(8 * delta), false);
      }));
    std::uint64_t k = 0;
    for (double phi : {0.32, 0.16, 0.08, 0.05})
      thm7_.push_back(build_graph(*this, "thm7", [&] {
        Rng grng(derive(seed, 7, k++));
        return make_theorem7_network(thm7_n_, 4, phi, grng);
      }));
    er_ = build_graph(*this, "er64", [&] {
      Rng grng(derive(seed, 64));
      auto g = make_erdos_renyi(64, 10.0 / 64.0, grng);
      assign_two_level_latency(g, 1, 12, 0.7, grng);
      return g;
    });
    reduction_seed_ = derive(seed, 1);
    build_fault_batches(derive(seed, 2));
  }

  void direct(PassStats& st) override {
    std::uint64_t k = 0;
    for (const GuessingGadget& gadget : thm6_) {
      const RunScope run;
      reduce(gadget, k++, st);
      st.laps.lap();
    }
    for (const Theorem7Network& net : thm7_) {
      const RunScope run;
      reduce(net.gadget, k++, st);
      st.laps.lap();
      Latency diam = 0;
      {
        SpanScope span("analysis.diameter", "thm7");
        diam = weighted_diameter(net.gadget.graph);
      }
      const auto n = net.gadget.graph.num_nodes();
      st.sssp_runs += n;
      st.sssp_edge_work += static_cast<double>(n) *
                           static_cast<double>(net.gadget.graph.num_edges());
      st.digest.add(static_cast<std::uint64_t>(diam));
      if (diam <= 0 || diam >= kUnreachable)
        g_errors.fail("thm7: network not connected");
      st.laps.lap();
    }
    {
      SpanScope span("core.spanner", "er64");
      overlay_ = std::make_unique<DirectedGraph>(build_greedy_spanner(er_, 3));
    }
    st.digest.add(overlay_->num_arcs());
  }

 private:
  void reduce(const GuessingGadget& gadget, std::uint64_t k, PassStats& st) {
    ReductionResult r;
    {
      SpanScope span("game.reduction", "pushpull",
                     static_cast<std::int64_t>(k));
      r = run_gadget_reduction(gadget, ReductionProtocol::kPushPull,
                               Rng(trial_seed(reduction_seed_, k)), 10'000'000);
    }
    st.record(r.sim, "gadget", true);
    ++st.reductions;
    st.solved += r.game_solved_round.has_value();
    st.cross_activations += r.cross_activations;
    st.digest.add(r.cross_activations);
    st.digest.add(static_cast<std::uint64_t>(r.game_solved_round.value_or(-1)));
    if (!r.broadcast_completed) g_errors.fail("reduction did not complete");
  }

  // Fault ablation cells. Drop, crash and jitter runs draw their faults
  // from RNG streams a later engine change may redraw, so they are
  // checked by invariants only; the fault-free cells are pinned.
  enum class Fault { kNone, kDrop, kCrash, kJitter };

  void add_fault_batch(const std::string& label, Fault kind, double level,
                       bool rr, std::uint64_t seed) {
    const WeightedGraph& g = er_;
    const bool hooked = kind != Fault::kNone;
    const Round cap = kind == Fault::kCrash ? crash_rounds_ : 1'000'000;
    CellSpec cell = broadcast_cell(g, rr ? "rr/spanner3" : "pushpull");
    cell.max_rounds = cap;
    cell.faults = label;
    TrialWsFn body = [this, &g, kind, level, rr, hooked, cap, seed, label](
                         std::size_t t, Rng rng, TrialWorkspace&) {
      const std::size_t n = g.num_nodes();
      FaultPlan plan(n, trial_seed(seed, t));
      SimOptions opts;
      opts.max_rounds = cap;
      if (kind == Fault::kDrop) plan.set_link_drop_probability(level);
      if (kind == Fault::kCrash)
        plan.crash_random_nodes(static_cast<std::size_t>(level), 0, 0);
      if (kind == Fault::kDrop || kind == Fault::kCrash) plan.apply(opts);
      if (kind == Fault::kJitter)
        opts.latency_jitter = make_uniform_jitter(
            static_cast<Latency>(level), trial_seed(seed ^ 0x9e37, t));
      const char* engine = hooked ? "sim.engine.hooked" : "sim.engine.plain";
      const char* family = hooked ? "hooked" : "ablation";
      NetworkView view(g, rr);
      SimResult r;
      std::vector<bool> informed(n);
      if (rr) {
        RRBroadcast proto(view, *overlay_, g.max_latency() * 12,
                          own_id_rumors(n));
        opts.max_rounds = proto.budget() * 2;
        {
          SpanScope span(engine, family, static_cast<std::int64_t>(t));
          r = run_gossip(g, proto, opts);
        }
        for (NodeId v = 0; v < n; ++v)
          informed[v] = proto.rumors()[v].count() > 1;
        if (kind == Fault::kNone && !all_sets_full(proto.rumors()))
          g_errors.fail("rr: fault-free overlay broadcast left a set short");
      } else {
        PushPullBroadcast proto(view, 0, rng);
        {
          SpanScope span(engine, family, static_cast<std::int64_t>(t));
          r = run_gossip(g, proto, opts);
        }
        for (NodeId v = 0; v < n; ++v) informed[v] = proto.informed(v);
      }
      plan.detach(opts);
      for (NodeId v = 0; v < n; ++v) {
        const bool crashed = plan.crashed(v, 0);
        if (crashed && informed[v])
          g_errors.fail(label + ": crashed node was informed");
        if (!rr && r.completed && !crashed && !informed[v])
          g_errors.fail(label + ": completed run missed a survivor");
      }
      if (kind != Fault::kCrash && !rr && !r.completed)
        g_errors.fail(label + ": push-pull did not complete");
      return r;
    };
    batches.push_back(Batch{"faults", hooked ? "hooked" : "ablation",
                            kFaultTrials, trial_seed(seed, 1), !hooked, true,
                            std::move(cell), std::move(body)});
  }

  void build_fault_batches(std::uint64_t seed) {
    batches.clear();
    std::uint64_t k = 0;
    const auto add = [&](const std::string& label, Fault kind, double level,
                         bool rr) {
      add_fault_batch(label, kind, level, rr, derive(seed, k++));
    };
    add("none", Fault::kNone, 0, false);
    add("rr-none", Fault::kNone, 0, true);
    for (double p : {0.1, 0.2, 0.4, 0.6})
      add("drop=" + std::to_string(p), Fault::kDrop, p, false);
    for (int c : {2, 4, 8}) {
      add("crash=" + std::to_string(c), Fault::kCrash, c, false);
      add("rr-crash=" + std::to_string(c), Fault::kCrash, c, true);
    }
    for (int j : {2, 6, 10})
      add("jitter=" + std::to_string(j), Fault::kJitter, j, false);
  }

  static constexpr std::size_t kFaultTrials = 2;
  const std::size_t max_delta_, thm7_n_;
  const Round crash_rounds_;
  std::vector<GuessingGadget> thm6_;
  std::vector<Theorem7Network> thm7_;
  WeightedGraph er_{0};
  std::unique_ptr<DirectedGraph> overlay_;
  std::uint64_t reduction_seed_ = 0;
};

// -- mc_broadcast -------------------------------------------------------------
//
// Monte-Carlo push-pull broadcast (Boolean payload, NoHooks path) at the
// full pool width, in the three batch shapes the sweeps use: small
// batches of long trials, one large batch, and a sweep of tiny trials,
// plus low-conductance ring-of-cliques cells whose rounds carry few
// deliveries. The small-graph cells also go through the store. Each
// ER n=4096 batch is a cell of its own graph, as in a sweep grid; the
// generator retries until the graph is connected (about one attempt in
// four is), so one graph would make set-up time a geometric draw of
// the seed, and eleven average it out.

class McBroadcast final : public Workload {
 public:
  explicit McBroadcast(bool tiny)
      : big_n_(tiny ? 512 : 4096),
        small_batches_(tiny ? 2 : 10),
        large_trials_(tiny ? 24 : 400),
        sweep_trials_(tiny ? 400 : 10'000),
        lowphi_trials_(tiny ? 8 : 32) {}

  bool parallel() const override { return true; }
  std::size_t direct_runs() const override { return 0; }

  void setup(std::uint64_t seed) override {
    edges_built = 0;
    batches.clear();
    er_.clear();
    for (std::size_t b = 0; b <= small_batches_; ++b)
      er_.push_back(build_graph(*this, "er4096", [&] {
        return er_with_uniform_latency(big_n_, 8.0, derive(seed, 1, b));
      }));
    tiny_ = build_graph(*this, "er64", [&] {
      return er_with_uniform_latency(64, 8.0, derive(seed, 2));
    });
    lowphi_.clear();
    // Ring of cliques with slow bridges: conductance ~1/(clique^2 *
    // cliques), so most rounds wait on a bridge in flight.
    const std::size_t cliques = 16;
    for (Latency bridge : {Latency{32}, Latency{64}, Latency{128}}) {
      lowphi_.push_back(build_graph(*this, "ring_of_cliques", [&] {
        return make_ring_of_cliques(cliques, 8, bridge);
      }));
    }
    std::uint64_t k = 0;
    for (std::size_t b = 0; b < small_batches_; ++b)
      batches.push_back(Batch{"b8", "bool_er", 8, derive(seed, 10, k++), true,
                              false, {}, broadcast_trial(er_[b], "bool_er")});
    batches.push_back(Batch{"b400", "bool_er", large_trials_,
                            derive(seed, 10, k++), true, false, {},
                            broadcast_trial(er_.back(), "bool_er")});
    for (const WeightedGraph& g : lowphi_)
      batches.push_back(Batch{"lowphi", "bool_lowphi", lowphi_trials_,
                              derive(seed, 10, k++), true, true,
                              broadcast_cell(g, "pushpull"),
                              broadcast_trial(g, "bool_lowphi")});
    batches.push_back(Batch{"sweep", "bool_tiny", sweep_trials_,
                            derive(seed, 10, k++), true, true,
                            broadcast_cell(tiny_, "pushpull"),
                            broadcast_trial(tiny_, "bool_tiny")});
  }

  void direct(PassStats&) override {}

 private:
  const std::size_t big_n_, small_batches_, large_trials_, sweep_trials_,
      lowphi_trials_;
  WeightedGraph tiny_{0};
  std::deque<WeightedGraph> er_, lowphi_;  // stable addresses for trial bodies
};

// -- rumor_sets ---------------------------------------------------------------
//
// Rumor-set payloads: all-to-all push-pull under the dense and the count
// representation (few long trials at full pool width), General EID, and
// one single-source gossip under the sparse representation at the
// representation auto-selection threshold.

template <class R>
TrialWsFn alltoall_trial(const WeightedGraph& g, const char* family) {
  return [&g, family](std::size_t t, Rng rng, TrialWorkspace& ws) {
    const std::size_t n = g.num_nodes();
    NetworkView view(g, false);
    auto& proto = ws.slot<BasicPushPullGossip<R>>(
        view, GossipGoal::kAllToAll, NodeId{0}, own_id_rumor_sets<R>(n), rng);
    proto.reset_own_id(view, GossipGoal::kAllToAll, 0, rng);
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.workspace = &ws;
    SimResult r;
    {
      SpanScope span("sim.engine.plain", family, static_cast<std::int64_t>(t));
      r = run_gossip(g, proto, opts);
    }
    bool full = r.completed;
    for (const R& s : proto.rumors()) full = full && s.count() == n;
    if (!full)
      g_errors.fail(std::string(family) + ": all-to-all trial " +
                    std::to_string(t) + " left a rumor set short");
    return r;
  };
}

class RumorSets final : public Workload {
 public:
  explicit RumorSets(bool tiny)
      : a2a_n_(tiny ? 512 : 4096),
        a2a_trials_(tiny ? 2 : 4),
        eid_n_(tiny ? 64 : 256),
        eid_trials_(tiny ? 2 : 4),
        sparse_n_(tiny ? 4096 : kDenseNodeThreshold) {}

  bool parallel() const override { return true; }
  std::size_t direct_runs() const override { return 1; }

  void setup(std::uint64_t seed) override {
    edges_built = 0;
    batches.clear();
    er_ = build_graph(*this, "er4096", [&] {
      return er_with_uniform_latency(a2a_n_, 8.0, derive(seed, 1));
    });
    eid_g_ = build_graph(*this, "er256", [&] {
      return er_with_uniform_latency(eid_n_, 8.0, derive(seed, 2));
    });
    sparse_g_ = build_graph(*this, "regular", [&] {
      auto g = make_random_regular_streaming(sparse_n_, 8, derive(seed, 3));
      Rng lrng(derive(seed, 4));
      assign_random_uniform_latency(g, 1, 8, lrng);
      return g;
    });
    sparse_seed_ = derive(seed, 5);
    batches.push_back(Batch{"a2a", "dense", a2a_trials_, derive(seed, 10, 0),
                            true, false, {},
                            alltoall_trial<Bitset>(er_, "dense")});
    batches.push_back(Batch{"a2a", "count", a2a_trials_, derive(seed, 10, 1),
                            true, false, {},
                            alltoall_trial<CountRumorSet>(er_, "count")});
    eid_.assign(eid_trials_, GeneralEidOutcome{});
    CellSpec eid_cell = broadcast_cell(eid_g_, "eid/general");
    batches.push_back(Batch{
        "eid", "eid", eid_trials_, derive(seed, 10, 2), true, true,
        std::move(eid_cell),
        [this](std::size_t t, Rng rng, TrialWorkspace& ws) {
          GeneralEidOutcome out;
          {
            SpanScope span("core.eid", "er256", static_cast<std::int64_t>(t));
            out = run_general_eid(eid_g_, eid_g_.num_nodes(), rng, 1, nullptr,
                                  &ws);
          }
          if (!out.success || !out.checks_unanimous ||
              !all_sets_full(out.rumors))
            g_errors.fail("eid: trial " + std::to_string(t) + " failed");
          out.rumors.clear();
          // The last phase is the termination check, whose own
          // completion says nothing; the run is useful iff EID succeeded.
          SimResult r = out.sim;
          r.completed = out.success;
          eid_[t] = std::move(out);
          return r;
        }});
  }

  void direct(PassStats& st) override {
    const RunScope run;
    const std::size_t n = sparse_g_.num_nodes();
    NetworkView view(sparse_g_, false);
    std::vector<SparseRumorSet> rumors(n, SparseRumorSet(n));
    rumors[0].set(0);
    BasicPushPullGossip<SparseRumorSet> proto(
        view, GossipGoal::kSingleSource, 0, std::move(rumors),
        Rng(sparse_seed_));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    SimResult r;
    {
      SpanScope span("sim.engine.plain", "sparse");
      r = run_gossip(sparse_g_, proto, opts);
    }
    st.record(r, "sparse", true);
    bool all = r.completed;
    for (const SparseRumorSet& s : proto.rumors()) all = all && s.test(0);
    if (!all) g_errors.fail("sparse: single-source gossip missed a node");
  }

  void after_batches(PassStats& st) const override {
    for (const GeneralEidOutcome& o : eid_) {
      st.digest.add(static_cast<std::uint64_t>(o.final_estimate));
      st.digest.add(o.attempts);
      st.digest.add(o.success);
    }
  }

 private:
  const std::size_t a2a_n_, a2a_trials_, eid_n_, eid_trials_, sparse_n_;
  WeightedGraph er_{0}, eid_g_{0}, sparse_g_{0};
  std::uint64_t sparse_seed_ = 0;
  std::vector<GeneralEidOutcome> eid_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "lb_gadgets") return std::make_unique<LbGadgets>(tiny);
  if (name == "mc_broadcast") return std::make_unique<McBroadcast>(tiny);
  if (name == "rumor_sets") return std::make_unique<RumorSets>(tiny);
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Passes

void run_batch(const Batch& b, std::size_t threads, PassStats& st) {
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const TrialWsFn body = checked(b.body);
  TrialAggregate agg;
  {
    SpanScope span("sim.pool.batch", b.shape);
    if (tracing()) {
      const std::uint64_t parent = span.id();
      const TrialWsFn traced = [&b, &body, parent](std::size_t t, Rng rng,
                                                   TrialWorkspace& ws) {
        SpanScope s("sim.pool.trial", b.shape, static_cast<std::int64_t>(t),
                    parent);
        return body(t, rng, ws);
      };
      agg = run_trials(b.trials, threads, b.seed, traced);
    } else {
      agg = run_trials(b.trials, threads, b.seed, body);
    }
  }
  const double wall = seconds_since(t0);
  PoolShape& p = st.pools[b.shape];
  p.batch_s += wall;
  p.cpu_s += cpu_seconds() - cpu0;
  p.threads = std::min(threads, b.trials);
  for (const SimResult& r : agg.trials) st.record(r, b.family, b.pinned);
  if (b.stored) st.stored.push_back(agg.trials);
}

/// One pass; a pass that throws, or whose digest differs from
/// `expected` (when given), fails as a group.
void run_pass(Workload& w, std::size_t threads, PassStats& st,
              const std::string& label, const Digest* expected) {
  const std::size_t before = g_errors.failed_runs();
  {
    SpanScope span("pass", threads == 1 ? "t1" : "pool");
    st.laps.start();
    try {
      w.direct(st);
      st.laps.lap();
      for (const Batch& b : w.batches) {
        run_batch(b, threads, st);
        st.laps.lap();
      }
      w.after_batches(st);
      st.laps.lap();
    } catch (const std::exception& e) {
      g_errors.fail_group(label + " threw: " + e.what(), before);
    }
  }
  if (expected != nullptr && st.digest.h != expected->h)
    g_errors.fail_group(label + ": fault-free results differ from the "
                        "warm-up pass", before);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in (0, 1]).
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The lower decile of a run's samples. Noise on a shared host only ever
/// adds time, and it comes in bursts that cover a varying share of a run,
/// so the median moves with the neighbours' load while the fast samples
/// measure the program.
double lower_decile(const std::vector<double>& v) {
  return nearest_rank(v, 0.10);
}

/// The laps of a sequence repeated with the same steps (a pass, a store
/// fill or resume). Its end-to-end time is the sum over steps of each
/// step's lower decile: a quiet stretch of the host then only has to
/// cover one step, not a whole sequence, to be measured, and the steps
/// still cover every part of the sequence.
class StepTimes {
 public:
  void add(const std::vector<double>& steps) {
    if (samples_.empty()) samples_.resize(steps.size());
    if (steps.size() != samples_.size()) return;  // a pass that threw
    for (std::size_t i = 0; i < steps.size(); ++i)
      samples_[i].push_back(steps[i]);
  }
  double lower_decile_sum() const {
    double sum = 0.0;
    for (const std::vector<double>& s : samples_) sum += lower_decile(s);
    return sum;
  }

 private:
  std::vector<std::vector<double>> samples_;  ///< [step][repetition]
};

struct StoreRun {
  /// Steps of each fill and resume: open, each stored batch, close.
  std::vector<std::vector<double>> fills, resumes;
  std::vector<double> insert_us;  ///< per trial, insert-only fills
  double open_s = 0.0, replay_s = 0.0;  ///< medians over the samples
  std::size_t runs = 0;  ///< stored trials computed or answered, planned
  std::size_t hits = 0, lookups = 0, log_bytes = 0;
};

/// The stored batches through a fresh store (every trial computed and
/// inserted), then again from the reopened store (every trial a hit).
/// Both answers must equal what the pass computed. Fills and resumes are
/// repeated a fixed number of times (a time-dependent count would make
/// the heap, and so peak_rss_mb, depend on the host's speed). With
/// `inserts`, the cells then go through a fresh store again with every
/// trial answered by the pass's result instead of computed, which times
/// the write path alone.
StoreRun run_store(const Workload& w, std::size_t threads, const PassStats& st,
                   const fs::path& dir, bool inserts) {
  constexpr std::size_t kFills = 3, kResumes = 10;
  const std::size_t trials = w.stored_trials();
  StoreRun out;
  out.runs = (kFills + kResumes) * trials;
  std::size_t before = g_errors.failed_runs();
  try {
    std::vector<std::vector<SimResult>> filled;
    std::vector<double> open_samples;
    while (out.fills.size() < kFills) {
      before = g_errors.failed_runs();
      fs::remove_all(dir);
      filled.clear();
      Laps laps;
      laps.start();
      {
        ExperimentStore store(dir.string());
        laps.lap();
        open_samples.push_back(laps.steps.back());
        for (const Batch& b : w.batches) {
          if (!b.stored) continue;
          StoredBatchStats s;
          const TrialAggregate agg = run_trials_stored(
              StoreBinding{&store, b.cell, false, {}, {}}, &s, b.trials,
              threads, b.seed, checked(b.body));
          if (s.hits != 0)
            g_errors.fail_group("store: fresh store answered a hit", before);
          filled.push_back(agg.trials);
          laps.lap();
        }
        store.flush();
        out.log_bytes =
            static_cast<std::size_t>(fs::file_size(store.log_path()));
      }
      laps.lap();
      out.fills.push_back(std::move(laps.steps));
      if (filled != st.stored)
        g_errors.fail_group("store: filled results differ from computed "
                            "results", before);
    }
    out.open_s = median(open_samples);

    std::vector<double> replay_samples;
    while (out.resumes.size() < kResumes) {
      before = g_errors.failed_runs();
      Laps laps;
      laps.start();
      std::vector<std::vector<SimResult>> resumed;
      std::size_t hits = 0;
      {
        ExperimentStore store(dir.string());
        laps.lap();
        replay_samples.push_back(laps.steps.back());
        for (const Batch& b : w.batches) {
          if (!b.stored) continue;
          StoredBatchStats s;
          const TrialAggregate agg = run_trials_stored(
              StoreBinding{&store, b.cell, false, {}, {}}, &s, b.trials,
              threads, b.seed, checked(b.body));
          hits += s.hits;
          resumed.push_back(agg.trials);
          laps.lap();
        }
      }
      laps.lap();
      out.resumes.push_back(std::move(laps.steps));
      out.hits += hits;
      out.lookups += trials;
      if (resumed != filled)
        g_errors.fail_group("store: replayed results differ from computed "
                            "results", before);
      if (hits != trials)
        g_errors.fail_group("store: reopened store missed a stored trial",
                            before);
    }
    out.replay_s = median(replay_samples);

    while (inserts && out.insert_us.size() < kFills &&
           st.stored.size() == filled.size()) {
      fs::remove_all(dir);
      ExperimentStore store(dir.string());
      const std::int64_t t0 = now_ns();
      std::size_t k = 0;
      for (const Batch& b : w.batches) {
        if (!b.stored) continue;
        const std::vector<SimResult>& done = st.stored[k++];
        StoredBatchStats s;
        run_trials_stored(
            StoreBinding{&store, b.cell, false, {}, {}}, &s, b.trials,
            threads, b.seed,
            [&done](std::size_t t, Rng, TrialWorkspace&) { return done[t]; });
      }
      store.flush();
      out.insert_us.push_back(seconds_since(t0) * 1e6 /
                              static_cast<double>(trials));
    }
  } catch (const std::exception& e) {
    g_errors.fail_group(std::string("store threw: ") + e.what(), before);
  }
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics

class MetricOut {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit +
             "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double num(std::size_t v) { return static_cast<double>(v); }
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct SpanSums {
  std::vector<perfbench::Span> spans;
  std::vector<double> self;

  explicit SpanSums(std::vector<perfbench::Span> s)
      : spans(std::move(s)), self(perfbench::self_seconds(spans)) {}

  double self_of(const char* name, const char* tag = nullptr) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (std::string_view(spans[i].name) == name &&
          (tag == nullptr || std::string_view(spans[i].tag) == tag))
        sum += self[i];
    return sum;
  }
  std::vector<double> durations(const char* name, const char* tag) const {
    std::vector<double> out;
    for (const auto& s : spans)
      if (std::string_view(s.name) == name && std::string_view(s.tag) == tag)
        out.push_back(s.seconds());
    return out;
  }
  double engine_time(const char* family) const {
    return self_of("sim.engine.plain", family) +
           self_of("sim.engine.hooked", family);
  }
};

constexpr const char* kPoolShapes[] = {"b8",     "b400", "sweep",
                                       "lowphi", "a2a",  "eid"};
constexpr const char* kDeliveryFamilies[] = {
    "bool_er", "bool_lowphi", "bool_tiny", "dense",
    "count",   "sparse",      "hooked"};

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"workload", "seed", "seconds", "trace", "work-dir", "tiny"});
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const bool tiny = args.get_bool("tiny");
  const fs::path work_dir = args.get("work-dir", ".bench_build/work");

  std::unique_ptr<Workload> w;
  try {
    w = make_workload(name, tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latbench: %s\n", e.what());
    return 2;
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t pool_threads =
      w->parallel() ? std::min<std::size_t>(4, hw) : 1;
  fs::create_directories(work_dir);
  const fs::path store_dir = work_dir / ("store-" + name);

  // -- set-up: every input built from the seed, repeated a fixed number
  // of times (the heap it leaves behind is part of peak_rss_mb). Stores
  // are opened inside the store phase, which times them.
  constexpr int kSetups = 15;
  perfbench::set_tracing(trace);
  std::vector<double> setup_samples;
  try {
    for (int i = 0; i < kSetups; ++i) {
      const std::int64_t t0 = now_ns();
      {
        SpanScope span("setup");
        w->setup(seed);
      }
      setup_samples.push_back(seconds_since(t0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const SpanSums setup_spans(perfbench::take_spans());
  std::vector<perfbench::Span> all_spans = setup_spans.spans;

  // -- warm-up pass: untimed, the digest every later pass must reproduce.
  perfbench::set_tracing(false);
  PassStats reference;
  run_pass(*w, pool_threads, reference, "warm-up pass", nullptr);
  std::size_t attempted = w->pass_runs();

  // -- measured passes.
  std::vector<double> walls, traced_walls;
  StepTimes pass_steps, fill_steps, resume_steps;
  std::vector<perfbench::Span> pass_spans;
  std::vector<PassStats> traced_stats;
  std::vector<StoreRun> stores;
  double peak_rss_mb = 0.0;
  const std::int64_t start = now_ns();
  for (int pass = 0;; ++pass) {
    if ((pass >= 3 && seconds_since(start) >= seconds) || pass >= 200) break;
    const bool traced = trace && pass % 2 == 0;
    perfbench::set_tracing(traced);
    PassStats st;
    const std::int64_t t0 = now_ns();
    run_pass(*w, pool_threads, st, "pass " + std::to_string(pass),
             &reference.digest);
    const double wall = seconds_since(t0);
    // The store phase is timed directly and runs untraced: it recomputes
    // trials whose engine spans would count twice.
    perfbench::set_tracing(false);
    std::vector<perfbench::Span> spans = perfbench::take_spans();
    StoreRun sr = run_store(*w, pool_threads, st, store_dir, trace);
    (traced ? traced_walls : walls).push_back(wall);
    if (!traced) pass_steps.add(st.laps.steps);
    for (const std::vector<double>& f : sr.fills) fill_steps.add(f);
    for (const std::vector<double>& r : sr.resumes) resume_steps.add(r);
    attempted += w->pass_runs() + sr.runs;
    // Peak memory after a fixed amount of work (set-up, warm-up and three
    // passes), so the number of passes the time allows cannot move it.
    if (pass == 2) peak_rss_mb = peak_rss_mib();
    if (traced) {
      all_spans.insert(all_spans.end(), spans.begin(), spans.end());
      pass_spans.insert(pass_spans.end(), spans.begin(), spans.end());
      traced_stats.push_back(std::move(st));
    }
    stores.push_back(std::move(sr));
  }

  // -- the same pass on one pool thread must give the same results.
  PassStats t1;
  if (w->parallel()) {
    perfbench::set_tracing(trace);
    run_pass(*w, 1, t1, "one-thread pass", &reference.digest);
    perfbench::set_tracing(false);
    const std::vector<perfbench::Span> t1_spans = perfbench::take_spans();
    all_spans.insert(all_spans.end(), t1_spans.begin(), t1_spans.end());
    attempted += w->pass_runs();
  }

  if (trace) {
    const fs::path spans_path =
        work_dir / ("spans-" + name + "-" + std::to_string(seed) + ".jsonl");
    if (!perfbench::write_spans(all_spans, spans_path.string()))
      g_errors.fail("cannot write spans to " + spans_path.string());
  }

  MetricOut m;
  const std::size_t failed = g_errors.failed_runs();
  if (!trace) {
    m.add("wall_s", pass_steps.lower_decile_sum(), "s");
    m.add("setup_s", lower_decile(setup_samples), "s");
    m.add("peak_rss_mb", peak_rss_mb, "MiB");
    m.add("failed_frac", ratio(num(failed), num(attempted)), "ratio");
    m.add("store_fill_s", fill_steps.lower_decile_sum(), "s");
    m.add("resume_s", resume_steps.lower_decile_sum(), "s");
  } else {
    // Times are per traced pass; counts come from the first traced pass
    // (every pass computes the same results).
    const SpanSums ps(std::move(pass_spans));
    const double np = num(std::max<std::size_t>(traced_stats.size(), 1));
    const PassStats& st =
        traced_stats.empty() ? reference : traced_stats.front();
    m.add("graph.build_s", setup_spans.self_of("graph.build") / kSetups, "s");
    m.add("graph.edges", num(w->edges_built), "count");
    const double diam_s = ps.self_of("analysis.diameter") / np;
    m.add("analysis.diameter_s", diam_s, "s");
    m.add("analysis.sssp_runs", num(st.sssp_runs), "count");
    m.add("analysis.ns_per_sssp_edge", ratio(diam_s * 1e9, st.sssp_edge_work),
          "ns");
    m.add("game.reduction_s", ps.self_of("game.reduction") / np, "s");
    m.add("game.cross_activations", num(st.cross_activations), "count");
    m.add("game.solved_frac", ratio(num(st.solved), num(st.reductions)),
          "ratio");
    m.add("core.eid_s", ps.self_of("core.eid") / np, "s");
    m.add("core.spanner_s", ps.self_of("core.spanner") / np, "s");
    m.add("sim.engine.hooked_s", ps.self_of("sim.engine.hooked") / np, "s");
    m.add("sim.engine.plain_s", ps.self_of("sim.engine.plain") / np, "s");
    m.add("sim.engine.rounds", num(st.rounds), "count");
    m.add("sim.engine.activations", num(st.activations), "count");
    m.add("sim.engine.deliveries", num(st.deliveries), "count");
    m.add("sim.engine.dropped", num(st.dropped), "count");
    m.add("sim.engine.payload_bits", num(st.payload_bits), "count");
    m.add("sim.engine.max_inflight", num(st.max_inflight), "count");
    m.add("sim.engine.completed_frac", ratio(num(st.completed), num(st.runs)),
          "ratio");
    for (const char* fam : kDeliveryFamilies)
      m.add(std::string("sim.engine.ns_per_delivery.") + fam,
            ratio(ps.engine_time(fam) / np * 1e9,
                  num(st.family(fam).deliveries)),
            "ns");
    m.add("sim.engine.ns_per_round.lowphi",
          ratio(ps.engine_time("bool_lowphi") / np * 1e9,
                num(st.family("bool_lowphi").rounds)),
          "ns");
    for (const char* shape : kPoolShapes) {
      double batch_s = 0.0, cpu_s = 0.0, threads = 0.0;
      for (const PassStats& s : traced_stats) {
        const PoolShape p = s.pool(shape);
        batch_s += p.batch_s / np;
        cpu_s += p.cpu_s / np;
        threads = num(p.threads);
      }
      const std::vector<double> trials = ps.durations("sim.pool.trial", shape);
      double busy = 0.0;
      for (double d : trials) busy += d / np;
      const std::string sfx = std::string(".") + shape;
      m.add("sim.pool.batch_s" + sfx, batch_s, "s");
      m.add("sim.pool.busy_s" + sfx, busy, "s");
      m.add("sim.pool.idle_s" + sfx, std::max(0.0, threads * batch_s - busy),
            "s");
      m.add("sim.pool.utilization" + sfx, ratio(busy, threads * batch_s),
            "ratio");
      m.add("sim.pool.cpu_s" + sfx, cpu_s, "s");
      m.add("sim.pool.trial_p50_ms" + sfx, nearest_rank(trials, 0.50) * 1e3,
            "ms");
      m.add("sim.pool.trial_p99_ms" + sfx, nearest_rank(trials, 0.99) * 1e3,
            "ms");
      m.add("sim.pool.samples" + sfx, num(trials.size()), "count");
      m.add("sim.pool.speedup_t4" + sfx, ratio(t1.pool(shape).batch_s, batch_s),
            "ratio");
    }
    std::vector<double> insert_us, open_s, replay_s;
    double hits = 0.0, lookups = 0.0, log_bytes = 0.0;
    for (const StoreRun& sr : stores) {
      insert_us.insert(insert_us.end(), sr.insert_us.begin(),
                       sr.insert_us.end());
      open_s.push_back(sr.open_s);
      replay_s.push_back(sr.replay_s);
      hits += num(sr.hits);
      lookups += num(sr.lookups);
      log_bytes = num(sr.log_bytes);
    }
    m.add("store.insert_us", median(insert_us), "us");
    m.add("store.open_s", median(open_s), "s");
    m.add("store.replay_s", median(replay_s), "s");
    m.add("store.hit_frac", ratio(hits, lookups), "ratio");
    m.add("store.log_bytes", log_bytes, "bytes");
    m.add("trace.overhead_frac",
          ratio(lower_decile(traced_walls), lower_decile(walls)) - 1.0,
          "ratio");
  }

  std::string errors = "[";
  for (const std::string& e : g_errors.messages()) {
    if (errors.size() > 1) errors += ",";
    errors += "\"";
    for (char c : e) errors += (c == '"' || c == '\\') ? ' ' : c;
    errors += "\"";
  }
  errors += "]";
  std::printf(
      "{\"passes\":%zu,\"threads\":%zu,\"digest\":\"%s\","
      "\"attempted\":%zu,\"failed\":%zu,\"errors\":%s,\"metrics\":%s}\n",
      walls.size() + traced_walls.size(), pool_threads,
      hex(reference.digest.h).c_str(), attempted, failed, errors.c_str(),
      m.json().c_str());
  return failed == 0 ? 0 : 1;
}
