// Experiment harness for the ring election.
//
// One place that builds the unidirectional ring environment per the
// experiment spec, runs the election to completion, verifies the safety
// postconditions (exactly one leader, everyone else passive, no in-flight
// messages), and returns the measurements every bench and test consumes.
//
// Since the Runtime redesign this is a thin shim: the election's execution
// logic lives in the ring AlgorithmDriver (make_ring_election_driver), which
// runs unchanged on the simulator AND the real-thread runtime via
// run_algorithm_trial (runtime/runtime.h). run_election pins the simulator
// so every seeded result stays bit-identical to the pre-Runtime harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/election.h"
#include "net/network.h"
#include "runtime/runtime.h"
#include "stats/summary.h"

namespace abe {

struct ElectionExperiment {
  std::size_t n = 8;
  ElectionOptions election{};
  // Delay model by factory name (net/delay.h) with the given mean, or an
  // explicit model in `delay` which then takes precedence.
  std::string delay_name = "exponential";
  double mean_delay = 1.0;
  DelayModelPtr delay;
  ChannelOrdering ordering = ChannelOrdering::kArbitrary;
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  // Per-attempt silent message drop (failure injection; scenario engine).
  // The ABE model itself requires reliable delivery, so the default is 0;
  // lossy runs report robustness, not the paper's regime.
  double loss_probability = 0.0;
  // Set by the scenario engine when behavior profiles or an adversarial
  // delay policy are injected (src/adversary/). Relaxes the HONEST-RING
  // environment postconditions (exactly n-1 passives, zero in-flight at
  // quiescence — crashed nodes are never knocked out, equivocated tokens
  // may still circulate) while keeping the actual safety property probed
  // under attack: exactly one leader, and never two leaders ever.
  bool adversarial = false;
  std::uint64_t seed = 1;
  // Give up (and report failure) past this simulated time.
  SimTime deadline = 1e7;
  // Extra simulated time after the election used to confirm stability
  // (no second leader can appear; the network stays quiet).
  SimTime settle_time = 0.0;
  // Enable trace recording (tests only; slows large runs).
  bool trace = false;
};

struct ElectionRunResult {
  bool elected = false;
  // Refinement of !elected: the run went quiescent with no leader AND no
  // way to make progress (no message in flight, no idle node left to
  // activate) — the ring's rare all-passive deadlock under loss — rather
  // than still working when the deadline hit.
  bool stalled = false;
  std::size_t leader_index = 0;
  SimTime election_time = 0.0;     // real time at which the leader appeared
  std::uint64_t messages = 0;      // messages sent up to the election moment
  std::uint64_t messages_total = 0;  // including the settle window
  std::uint64_t ticks = 0;         // clock ticks fired up to the election
  std::uint64_t activations = 0;   // activations summed over nodes
  std::uint64_t purges = 0;        // knockout purges summed over nodes
  std::uint64_t max_leaders_ever = 0;  // safety: must never exceed 1
  bool safety_ok = false;          // postcondition bundle (see .cpp)
  std::string safety_detail;       // human-readable failure reason
};

// Runs one election. Aborts only on internal invariant violations; model
// level safety results are reported in the result for tests to assert on.
ElectionRunResult run_election(const ElectionExperiment& experiment);

// The experiment's environment as a runtime-agnostic RuntimeConfig
// (topology, delay, clocks, loss, seed, deadline; the driver enables ticks).
RuntimeConfig election_runtime_config(const ElectionExperiment& experiment);

// The ring election as an AlgorithmDriver for run_algorithm_trial: node
// factory (ElectionNode per slot, shared options + leader observer),
// done-predicate (a leader exists), settle window, and extraction of the
// full ElectionRunResult into `*sink`. One driver instance per trial.
std::unique_ptr<AlgorithmDriver> make_ring_election_driver(
    const ElectionExperiment& experiment, ElectionRunResult* sink);

struct ElectionAggregate {
  Summary messages;      // per-trial messages until election
  Summary time;          // per-trial election_time
  Summary ticks;
  Summary activations;
  Summary purges;
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;  // trials that missed the deadline
  std::uint64_t safety_violations = 0;

  // Folds another aggregate in (parallel Welford combination per Summary).
  // Merge order matters for floating-point bit-exactness; callers that need
  // reproducibility must merge in a deterministic order.
  void merge(const ElectionAggregate& other);
};

// Runs `trials` independent elections with seeds seed_base, seed_base+1, ….
//
// Per-trial seeds make trials embarrassingly parallel: with `threads` > 1
// they are distributed over a thread pool. Statistics are accumulated over
// fixed-size seed chunks and the per-chunk aggregates are merged in seed
// order, so the returned aggregate is bit-identical for EVERY thread count
// (including 1). `threads` == 0 resolves to the ABE_TRIAL_THREADS
// environment variable when set (a count, or "all" for every hardware
// thread), else to 1 — parallelism is an explicit opt-in so ctest -j and
// bench sweeps don't oversubscribe the host.
ElectionAggregate run_election_trials(ElectionExperiment experiment,
                                      std::uint64_t trials,
                                      std::uint64_t seed_base = 1,
                                      unsigned threads = 0);

}  // namespace abe
