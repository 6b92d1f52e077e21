#include "runtime/runtime.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/harness.h"
#include "runtime/threaded_runtime.h"
#include "util/check.h"

namespace abe {

const char* runtime_kind_name(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return "sim";
    case RuntimeKind::kThread:
      return "thread";
    case RuntimeKind::kUdp:
      return "udp";
  }
  return "?";
}

bool runtime_kind_from_name(const std::string& name, RuntimeKind* out) {
  for (RuntimeKind kind :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    if (name == runtime_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

NodeBudget runtime_node_budget(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return {std::numeric_limits<std::size_t>::max(), "no OS resources"};
    case RuntimeKind::kThread:
      return {kMaxThreadRuntimeNodes, "one OS thread per node"};
    case RuntimeKind::kUdp:
      return {kMaxUdpRuntimeNodes,
              "one loopback socket and two OS threads per node"};
  }
  ABE_CHECK(false) << "unhandled runtime kind";
  return {0, ""};
}

// ---------------------------------------------------------------------------
// SimRuntime

NetworkConfig SimRuntime::to_network_config(RuntimeConfig config) {
  NetworkConfig net;
  net.topology = std::move(config.topology);
  net.delay = std::move(config.delay);
  net.adversary_delay = std::move(config.adversary_delay);
  net.ordering = config.ordering;
  net.clock_bounds = config.clock_bounds;
  net.drift = config.drift;
  net.processing = config.processing;
  net.enable_ticks = config.enable_ticks;
  net.tick_local_period = config.tick_local_period;
  net.loss_probability = config.loss_probability;
  net.seed = config.seed;
  net.metrics = config.metrics;
  net.causal_history = config.causal_history;
  net.timeseries_interval = config.timeseries_interval;
  return net;
}

SimRuntime::SimRuntime(RuntimeConfig config)
    : trace_(config.trace), net_(to_network_config(std::move(config))) {
  if (trace_) net_.trace().enable();
}

void SimRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void SimRuntime::start() { net_.start(); }

bool SimRuntime::run_until_done(const std::function<bool()>& done,
                                SimTime deadline) {
  return net_.run_until(done, deadline);
}

void SimRuntime::run_for(SimTime duration) {
  net_.run_until([] { return false; }, net_.now() + duration);
}

bool SimRuntime::drain(SimTime max_wait) {
  const SimTime deadline = max_wait >= kTimeInfinity
                               ? kTimeInfinity
                               : net_.now() + max_wait;
  net_.run_until_quiescent(deadline);
  return net_.metrics().in_flight() == 0;
}

bool SimRuntime::terminated(std::size_t i) const {
  return const_cast<Network&>(net_).node(i).is_terminated();
}

RunStats SimRuntime::stats() const {
  const NetworkMetrics& m = net_.metrics();
  RunStats stats;
  stats.messages_sent = m.messages_sent;
  stats.messages_delivered = m.messages_delivered;
  stats.messages_dropped = m.messages_dropped;
  stats.ticks_fired = m.ticks_fired;
  stats.now = net_.now();
  stats.terminated.resize(net_.size());
  for (std::size_t i = 0; i < net_.size(); ++i) {
    stats.terminated[i] = terminated(i);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Factory and trial loop

std::unique_ptr<Runtime> make_runtime(RuntimeKind kind,
                                      RuntimeConfig config) {
  const NodeBudget budget = runtime_node_budget(kind);
  ABE_CHECK_LE(config.topology.n, budget.max_nodes)
      << runtime_kind_name(kind) << " runtime needs " << budget.per_node;
  if (kind == RuntimeKind::kSim) {
    return std::make_unique<SimRuntime>(std::move(config));
  }
  return std::make_unique<ThreadedRuntime>(kind, std::move(config));
}

TrialOutcome run_algorithm_trial(RuntimeKind kind, RuntimeConfig config,
                                 AlgorithmDriver& driver) {
  using WallClock = std::chrono::steady_clock;
  const auto ms_between = [](WallClock::time_point a, WallClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  driver.configure(config);
  const SimTime deadline = config.deadline;
  const bool want_metrics = config.metrics;
  const auto wall_begin = WallClock::now();
  std::unique_ptr<Runtime> rt = make_runtime(kind, std::move(config));
  rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
  const auto wall_built = WallClock::now();
  rt->start();
  const bool completed =
      rt->run_until_done([&] { return driver.done(*rt); }, deadline);
  const auto wall_ran = WallClock::now();
  if (completed) driver.on_complete(*rt);
  // The decision's causal history must be snapshotted BEFORE the settle
  // phase: settle traffic keeps recording and would evict the decision
  // neighborhood from the lite flight ring. The decision NODE is only known
  // after extract(), so hold the whole (bounded) ring.
  Trace decided_trace;
  if (completed) decided_trace = rt->trace_snapshot();
  driver.settle(*rt, completed);
  rt->stop();
  const auto wall_settled = WallClock::now();
  TrialOutcome outcome = driver.extract(*rt, completed);
  // Observability harvest happens here, after extract(): wall phases and
  // metrics belong to the trial loop, not to individual drivers.
  outcome.wall.build_ms = ms_between(wall_begin, wall_built);
  outcome.wall.run_ms = ms_between(wall_built, wall_ran);
  outcome.wall.settle_ms = ms_between(wall_ran, wall_settled);
  // Computed from the SAME chained reads as the phases — one clock read
  // per phase boundary — so build + run + settle == total identically.
  outcome.wall.total_ms = ms_between(wall_begin, wall_settled);
  if (want_metrics) {
    outcome.metrics = rt->metrics_snapshot();
    outcome.has_metrics = true;
  }
  if (outcome.completed && outcome.decision_node >= 0) {
    // Decision-terminated critical path (obs/causal.h). Pure analysis of
    // the pre-settle snapshot: no RNG, no event reordering, so aggregates
    // are untouched; chains may be `truncated` in lite flight mode
    // (RuntimeConfig::causal_history widens the ring).
    const CriticalPath path = extract_critical_path(
        decided_trace.events(), NodeId{outcome.decision_node}, outcome.time);
    outcome.critical_path = CriticalPathStats::from_path(path);
    outcome.has_critical_path = true;
  }
  {
    TimeSeries series = rt->timeseries_snapshot();
    if (series.enabled()) {
      series.trials = 1;
      outcome.timeseries = std::move(series);
      outcome.has_timeseries = true;
    }
  }
  if (!outcome.completed || outcome.stalled || !outcome.safety_ok) {
    // Failure forensics: dump the always-on flight recorder's recent
    // history so stalled or violating trials are diagnosable without
    // having pre-enabled tracing.
    outcome.flight_tail = rt->trace_snapshot().events();
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Threaded election harness (shim over ThreadedRuntime + the ring driver)

ThreadedElectionResult run_threaded_election(
    std::size_t n, double a0, double mean_delay, std::uint64_t seed,
    double time_scale_us, std::chrono::milliseconds timeout,
    ClockBounds clock_bounds, double loss_probability) {
  ElectionExperiment experiment;
  experiment.n = n;
  experiment.election.a0 = a0;
  experiment.delay = exponential_delay(mean_delay);
  experiment.clock_bounds = clock_bounds;
  experiment.drift = DriftModel::kFixedRandomRate;
  experiment.loss_probability = loss_probability;
  experiment.seed = seed;
  // The old harness always slept 100 ms before freezing state; a positive
  // settle_time hits ThreadedRuntime::run_for's kMinSettleWallMs floor, which
  // realises exactly that window.
  experiment.settle_time = 1.0;

  RuntimeConfig config = election_runtime_config(experiment);
  config.time_scale_us = time_scale_us;
  config.wall_timeout_ms = static_cast<double>(timeout.count());

  ElectionRunResult run;
  const auto driver = make_ring_election_driver(experiment, &run);
  run_algorithm_trial(RuntimeKind::kThread, std::move(config), *driver);

  ThreadedElectionResult result;
  result.elected = run.elected;
  result.leader_index = run.leader_index;
  result.election_time_sim = run.election_time;
  result.messages = run.messages_total > 0 ? run.messages_total : run.messages;
  result.safety_ok = run.safety_ok;
  return result;
}

}  // namespace abe
