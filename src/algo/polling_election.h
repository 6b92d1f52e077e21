// Polling leader election for anonymous ABE networks over general graphs.
//
// The paper proves that every *deterministic* election algorithm possible in
// an anonymous ABE network is a polling algorithm: each node must be woken
// explicitly before the leader may announce, because with unbounded delays
// silence never certifies anything. This file makes that theorem runnable as
// a baseline: a spanning-tree broadcast/echo wake-up layer (the polling
// skeleton — deterministic, every node explicitly woken) composed with an
// extinction-style election (the symmetry breaker — random draws, which no
// deterministic anonymous algorithm can avoid needing).
//
// Protocol, per round r (tree precomputed offline from the topology, like
// the β-synchronizer: coordination structure is infrastructure, not
// anonymous algorithm state):
//   WAKE(r)  — broadcast down the tree; every node is explicitly polled and
//              draws a fresh random id for round r;
//   ECHO(r)  — convergecast up the tree carrying (best id seen, count of
//              nodes holding it); waves from smaller ids are extinguished
//              by the max-combine on the way up;
//   RESULT(r) — the root learns the global maximum and its multiplicity;
//              a unique maximum is broadcast down and its holder becomes
//              the leader; a tie (count > 1) starts round r+1 instead.
//
// Message cost is (2r+1)(n−1) tree messages for r rounds; with 64-bit ids a
// tie is a ~n²/2⁶⁴ event, so the expected cost is Θ(n) — the price of the
// polling structure the theorem forces, paid on EVERY run, where the
// paper's probabilistic ring algorithm wakes most nodes implicitly. The
// scenario engine (src/scenario) sweeps the two against each other.
//
// Requires a bidirectional topology (every tree edge needs its reverse for
// the echo), i.e. every builder in net/topology.h except the unidirectional
// ring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/node.h"
#include "net/spanning_tree.h"
#include "runtime/runtime.h"
#include "stats/summary.h"

namespace abe {

enum class PollingState : std::uint8_t {
  kAsleep,   // not yet polled
  kPolled,   // woken, awaiting the round outcome
  kPassive,  // polled and lost the final round
  kLeader,   // terminal winner
};

const char* polling_state_name(PollingState s);

// Wire message of the polling protocol.
class PollPayload final : public Payload {
 public:
  enum class Kind : std::uint8_t { kWake, kEcho, kResult };
  PollPayload(Kind kind, std::uint64_t round, std::uint64_t id,
              std::uint64_t count)
      : kind_(kind), round_(round), id_(id), count_(count) {}
  Kind kind() const { return kind_; }
  std::uint64_t round() const { return round_; }
  std::uint64_t id() const { return id_; }
  std::uint64_t count() const { return count_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<PollPayload>(kind_, round_, id_, count_);
  }
  std::string describe() const override;

 private:
  Kind kind_;
  std::uint64_t round_;
  std::uint64_t id_;
  std::uint64_t count_;
};

// Static per-node wiring derived from the spanning tree (cf. BetaWiring).
struct PollingWiring {
  bool is_root = false;
  std::size_t parent_out = 0;  // out-channel toward the parent (non-root)
  std::vector<std::size_t> children_out;
};

// Builds the wiring for every node from a BFS tree rooted at `root`.
// Requires every tree edge to have a reverse channel.
std::vector<PollingWiring> build_polling_wiring(const Topology& topology,
                                                std::size_t root = 0);

struct PollingOptions {
  // Ids are drawn uniformly from [0, 2^id_bits). 64 makes ties negligible;
  // tests shrink it to force multi-round extinction.
  unsigned id_bits = 64;
  // Invoked once when a node becomes leader.
  std::function<void(NodeId, SimTime)> on_leader;
};

class PollingElectionNode final : public Node {
 public:
  PollingElectionNode(PollingWiring wiring, PollingOptions options);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override {
    return polling_state_name(state_);
  }
  bool is_terminated() const override {
    return state_ == PollingState::kLeader ||
           state_ == PollingState::kPassive;
  }

  // --- observable state (tests & metrics) --------------------------------
  PollingState state() const { return state_; }
  bool woken() const { return woken_; }  // the polling postcondition
  std::uint64_t round() const { return round_; }

 private:
  std::uint64_t draw_id(Context& ctx);
  void begin_round(Context& ctx, std::uint64_t round);
  void report_or_decide(Context& ctx);
  void finish(Context& ctx, std::uint64_t winner);

  PollingWiring wiring_;
  PollingOptions options_;
  PollingState state_ = PollingState::kAsleep;
  bool woken_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t best_ = 0;
  std::uint64_t best_count_ = 0;
  std::size_t children_reported_ = 0;
};

struct PollingExperiment {
  Topology topology;                    // bidirectional, strongly connected
  std::string delay_name = "exponential";
  double mean_delay = 1.0;
  DelayModelPtr delay;                  // takes precedence when set
  ChannelOrdering ordering = ChannelOrdering::kArbitrary;
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  double loss_probability = 0.0;        // failure injection
  unsigned id_bits = 64;
  std::uint64_t seed = 1;
  SimTime deadline = 1e7;
  // No settle knob: the protocol is purely message-driven, so after the
  // election the runner simply drains the queue to quiescence.
};

struct PollingRunResult {
  bool elected = false;
  std::size_t leader_index = 0;
  SimTime election_time = 0.0;
  std::uint64_t messages = 0;        // sent up to the election moment
  std::uint64_t messages_total = 0;  // including the settle window
  std::uint64_t rounds = 0;          // rounds the winner needed (1 = no tie)
  std::uint64_t woken = 0;           // nodes explicitly polled (must be n)
  std::uint64_t max_leaders_ever = 0;
  // Full termination: one leader, n−1 passive, every node woken, nothing
  // in flight. Guaranteed on reliable channels; under loss injection a
  // dropped WAKE/ECHO/RESULT legitimately leaves this false (the
  // robustness measurement), which callers count as a failure — never as
  // a safety violation.
  bool terminated = false;
  // Safety proper: at most one leader, ever. On reliable channels this
  // also folds in `terminated` (an incomplete lossless run IS a bug).
  bool safety_ok = false;
  std::string safety_detail;
};

// Runs one polling election on the simulator. Safety postconditions mirror
// core/harness.h: exactly one leader, everyone else passive, every node
// woken (the theorem's polling requirement), no messages in flight.
// (Thin shim over the polling AlgorithmDriver below; seeded results are
// bit-identical to the pre-Runtime runner.)
PollingRunResult run_polling_election(const PollingExperiment& experiment);

// The experiment's environment as a runtime-agnostic RuntimeConfig.
RuntimeConfig polling_runtime_config(const PollingExperiment& experiment);

// The polling election as an AlgorithmDriver (runtime/runtime.h): tree
// wiring derived from config.topology in configure(), done once a leader
// exists, post-completion drain to quiescence, full PollingRunResult into
// `*sink`. One driver instance per trial.
std::unique_ptr<AlgorithmDriver> make_polling_driver(
    const PollingExperiment& experiment, PollingRunResult* sink);

struct PollingAggregate {
  Summary messages;
  Summary time;
  Summary rounds;
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  std::uint64_t safety_violations = 0;

  void merge(const PollingAggregate& other);
};

// Seed-ordered, bit-identical parallel trials (see core/trial_pool.h).
PollingAggregate run_polling_trials(PollingExperiment experiment,
                                    std::uint64_t trials,
                                    std::uint64_t seed_base = 1,
                                    unsigned threads = 0);

}  // namespace abe
