// Tests for the happens-before reconstruction and critical-path profiler
// (obs/causal.h): unit chain extraction and attribution on hand-built
// traces, the exact attribution identity on real simulator trials, the
// byte-stable golden rendering of a fixed-seed cell across trial-pool
// thread counts, and cross-runtime causal parity
// (the same structural chain invariants hold on the thread substrate).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "runtime/runtime.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace abe {
namespace {

TraceEvent make_event(std::int64_t id, TraceKind kind, std::int64_t node,
                      SimTime time, std::int64_t cause, std::int64_t arg = -1,
                      double delay = 0.0, double work = 0.0) {
  TraceEvent e;
  e.id = id;
  e.kind = kind;
  e.node = NodeId{node};
  e.time = time;
  e.cause = cause;
  e.arg = arg;
  e.delay = delay;
  e.work = work;
  return e;
}

// A two-hop chain: tick on node 0 at t=1, token to node 1 (gap 2 = 1.5
// delay + 0.25 work + 0.25 queue), token on to node 2 (gap 3 = 2 + 0.5 +
// 0.5), decision at t=6.
std::vector<TraceEvent> two_hop_chain() {
  return {
      make_event(0, TraceKind::kTick, 0, 1.0, -1),
      make_event(1, TraceKind::kSend, 0, 1.0, 0, /*arg=*/0),
      make_event(2, TraceKind::kDeliver, 1, 3.0, 1, /*arg=*/0, 1.5, 0.25),
      make_event(3, TraceKind::kSend, 1, 3.0, 2, /*arg=*/1),
      make_event(4, TraceKind::kDeliver, 2, 6.0, 3, /*arg=*/1, 2.0, 0.5),
  };
}

TEST(CriticalPath, ExtractsChainAndAttributesExactly) {
  const CriticalPath path =
      extract_critical_path(two_hop_chain(), NodeId{2}, 6.0);
  ASSERT_TRUE(path.found);
  EXPECT_FALSE(path.truncated);
  EXPECT_EQ(path.hops, 2u);
  ASSERT_EQ(path.chain.size(), 5u);
  EXPECT_EQ(path.chain.front().id, 0);
  EXPECT_EQ(path.chain.back().id, 4);
  EXPECT_DOUBLE_EQ(path.span, 6.0);
  EXPECT_DOUBLE_EQ(path.waiting, 1.0);        // root tick lead-in
  EXPECT_DOUBLE_EQ(path.channel_delay, 3.5);  // 1.5 + 2.0
  EXPECT_DOUBLE_EQ(path.processing, 0.75);    // 0.25 + 0.5
  EXPECT_DOUBLE_EQ(path.queueing, 0.75);      // the rest of the two gaps
  EXPECT_DOUBLE_EQ(
      path.waiting + path.channel_delay + path.processing + path.queueing,
      path.span);
}

TEST(CriticalPath, DecisionEventIsLastHandlerAtOrBeforeDecisionTime) {
  std::vector<TraceEvent> events = two_hop_chain();
  // Later traffic at the decision node must not steal the anchor.
  events.push_back(
      make_event(5, TraceKind::kDeliver, 2, 9.0, -1, /*arg=*/1, 1.0, 0.0));
  const CriticalPath path = extract_critical_path(events, NodeId{2}, 6.0);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.chain.back().id, 4);
  // And an unknown node finds nothing.
  EXPECT_FALSE(extract_critical_path(events, NodeId{7}, 6.0).found);
}

TEST(CriticalPath, BackgroundTickDoesNotStealTheAnchor) {
  // On the thread runtime a queued tick can pop at the decision node
  // between the deciding DELIVER and the wall-clock decision_time read.
  // The anchor must stay on the DELIVER — a TICK anchors only when the
  // node saw no message/timer handler at all.
  std::vector<TraceEvent> events = two_hop_chain();
  events.push_back(make_event(5, TraceKind::kTick, 2, 6.5, -1));
  const CriticalPath path = extract_critical_path(events, NodeId{2}, 7.0);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.chain.back().id, 4);
  EXPECT_EQ(path.hops, 2u);
  // A node with only tick activity still anchors on its last tick.
  const std::vector<TraceEvent> ticks = {
      make_event(0, TraceKind::kTick, 0, 1.0, -1),
      make_event(1, TraceKind::kTick, 0, 2.0, 0),
  };
  const CriticalPath tick_path = extract_critical_path(ticks, NodeId{0}, 2.0);
  ASSERT_TRUE(tick_path.found);
  EXPECT_EQ(tick_path.chain.back().id, 1);
  EXPECT_EQ(tick_path.hops, 0u);
  EXPECT_DOUBLE_EQ(tick_path.waiting, 2.0);
}

TEST(CriticalPath, EvictedCauseMarksTruncated) {
  // Drop the first two events, as ring eviction would: the walk hits
  // cause=1 below the retained window and must stop, flagged truncated,
  // with span measuring only the retained extent.
  std::vector<TraceEvent> events = two_hop_chain();
  events.erase(events.begin(), events.begin() + 2);
  const CriticalPath path = extract_critical_path(events, NodeId{2}, 6.0);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(path.truncated);
  ASSERT_EQ(path.chain.size(), 3u);
  EXPECT_EQ(path.chain.front().id, 2);
  EXPECT_DOUBLE_EQ(path.span, 3.0);  // 6.0 - 3.0
}

TEST(CriticalPath, EdgeSharesSumPerEdge) {
  const CriticalPath path =
      extract_critical_path(two_hop_chain(), NodeId{2}, 6.0);
  const std::vector<EdgeShare> shares = path.edge_shares();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].edge, 0);
  EXPECT_DOUBLE_EQ(shares[0].delay, 1.5);
  EXPECT_EQ(shares[1].edge, 1);
  EXPECT_DOUBLE_EQ(shares[1].delay, 2.0);
}

TEST(CriticalPathAggregate, WorstTrialTieBreaksOnSmallerSeed) {
  CriticalPath path = extract_critical_path(two_hop_chain(), NodeId{2}, 6.0);
  const CriticalPathStats stats = CriticalPathStats::from_path(path);
  CriticalPathAggregate agg;
  agg.add(stats, /*seed=*/9);
  agg.add(stats, /*seed=*/4);  // same span, smaller seed wins
  ASSERT_TRUE(agg.has_worst);
  EXPECT_EQ(agg.worst_seed, 4u);
  EXPECT_EQ(agg.considered, 2u);
  EXPECT_EQ(agg.found, 2u);
  // Channels sum across trials; top_channels ranks by delay descending.
  const std::vector<EdgeShare> top = agg.top_channels(8);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].edge, 1);
  EXPECT_DOUBLE_EQ(top[0].delay, 4.0);
  EXPECT_EQ(top[1].edge, 0);
}

// ---------------------------------------------------------------------------
// Real trials

ScenarioSpec ring_spec() {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 8, 0.0};
  spec.settle_time = 5.0;
  spec.causal_history = true;
  return spec;
}

TEST(CriticalPath, AttributionSumsToDecisionTimeOnSimulator) {
  // The headline invariant: the four components telescope EXACTLY (not
  // approximately) to the trial's decision time on the simulator — with a
  // non-zero processing model so all four components are live.
  ScenarioSpec spec = ring_spec();
  spec.processing = ProcessingModel::fixed(0.05);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ScenarioTrialResult trial = run_scenario_trial(spec, seed);
    ASSERT_TRUE(trial.completed) << "seed " << seed;
    ASSERT_TRUE(trial.has_critical_path) << "seed " << seed;
    const CriticalPathStats& cp = trial.critical_path;
    ASSERT_TRUE(cp.found) << "seed " << seed;
    EXPECT_FALSE(cp.truncated) << "seed " << seed;
    EXPECT_GE(cp.hops, 1u);
    EXPECT_GT(cp.processing, 0.0);
    EXPECT_DOUBLE_EQ(cp.span, trial.time) << "seed " << seed;
    EXPECT_DOUBLE_EQ(
        cp.waiting + cp.channel_delay + cp.processing + cp.queueing,
        trial.time)
        << "seed " << seed;
  }
}

TEST(CriticalPath, GoldenByteStableAcrossBackendsAndThreads) {
  // The serialized aggregate of a fixed-seed cell is the golden artifact:
  // every trial-pool width must produce the same bytes (same JSON number
  // rendering, same Summary merge order).
  std::string golden;
  for (const unsigned threads : {1u, 4u}) {
    const ScenarioAggregate agg = run_scenario_trials(
        ring_spec(), /*trials=*/6, /*seed_base=*/1, threads);
    EXPECT_EQ(agg.critical_path.found, 6u);
    std::string json;
    append_critical_path_json(agg.critical_path, &json);
    if (golden.empty()) {
      golden = json;
      // The aggregate carries real content, not an all-zero skeleton.
      EXPECT_NE(json.find("\"worst\""), std::string::npos) << json;
    } else {
      EXPECT_EQ(json, golden) << "threads " << threads;
    }
  }
}

// Structural invariants every reconstructed chain must satisfy on BOTH
// substrates: root-first order, DELIVER hops caused by the SEND on the
// same edge, SEND hops caused by a handler-kind event.
void check_chain_structure(const CriticalPath& path) {
  ASSERT_TRUE(path.found);
  ASSERT_FALSE(path.chain.empty());
  for (std::size_t i = 1; i < path.chain.size(); ++i) {
    const CriticalPathHop& prev = path.chain[i - 1];
    const CriticalPathHop& hop = path.chain[i];
    EXPECT_LT(prev.id, hop.id);
    if (hop.kind == TraceKind::kDeliver) {
      EXPECT_EQ(prev.kind, TraceKind::kSend) << "hop " << i;
      EXPECT_EQ(prev.arg, hop.arg) << "hop " << i << ": edge mismatch";
    } else if (hop.kind == TraceKind::kSend) {
      const bool handler = prev.kind == TraceKind::kDeliver ||
                           prev.kind == TraceKind::kTimer ||
                           prev.kind == TraceKind::kTick;
      EXPECT_TRUE(handler) << "hop " << i;
    }
  }
}

TEST(CriticalPath, CausalLinksParityAcrossRuntimes) {
  // Every substrate stamps the same send->deliver and schedule->fire links:
  // a decision-terminated chain exists on each, with identical structural
  // invariants. (Wall-clock timing differs by design, so the parity is
  // structural, not bit-exact — the simulator side additionally keeps the
  // exact attribution identity.)
  ScenarioSpec spec = ring_spec();
  spec.topology.n = 6;
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;

  for (const RuntimeKind runtime :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    spec.runtime = runtime;
    ASSERT_EQ(runtime_cell_problem(spec), "");
    // Mirrors run_scenario_trial's per-trial topology substream.
    Rng topo_rng = Rng(/*seed=*/1).substream("scenario-topology");
    const Topology topology = spec.topology.build(topo_rng);
    ScenarioTrialDriver binding = make_scenario_driver(spec, topology, 1);
    RuntimeConfig config = scenario_runtime_config(spec, topology, 1);
    binding.driver->configure(config);
    const SimTime deadline = config.deadline;
    const std::unique_ptr<Runtime> rt =
        make_runtime(runtime, std::move(config));
    rt->build_nodes(
        [&](std::size_t i) { return binding.driver->make_node(i); });
    rt->start();
    const bool completed = rt->run_until_done(
        [&] { return binding.driver->done(*rt); }, deadline);
    ASSERT_TRUE(completed) << runtime_kind_name(runtime);
    binding.driver->on_complete(*rt);
    const Trace decided = rt->trace_snapshot();
    binding.driver->settle(*rt, completed);
    rt->stop();
    const TrialOutcome outcome = binding.driver->extract(*rt, completed);
    ASSERT_GE(outcome.decision_node, 0) << runtime_kind_name(runtime);

    const CriticalPath path = extract_critical_path(
        decided.events(), NodeId{outcome.decision_node}, outcome.time);
    SCOPED_TRACE(runtime_kind_name(runtime));
    check_chain_structure(path);
    EXPECT_FALSE(path.truncated);  // causal_history widens every ring
    EXPECT_GE(path.hops, 1u);
    if (runtime == RuntimeKind::kSim) {
      EXPECT_DOUBLE_EQ(path.waiting + path.channel_delay + path.processing +
                           path.queueing,
                       outcome.time);
    }
  }
}

}  // namespace
}  // namespace abe
