// The threaded runtime: one dispatcher thread per node, blocking mailboxes,
// wall-clock delays — the wall-clock implementation of the unified Runtime
// contract (runtime/runtime.h). Algorithm code reaches it through the same
// Node/Context interface the simulator provides, so the exact same node
// objects run on every substrate.
//
// One runtime, two transports. Everything that realises the ABE model on
// wall time is shared: the node Context, per-node RNG and clock-rate draws,
// the dispatcher loop (ticks, timers, Definition 1(3) processing sleeps,
// causal `cause` stamping), quiescence detection, the flight recorder, the
// net.* metrics and the wall-budget Runtime lifecycle. Only the way a
// sampled message crosses from sender to receiver differs, behind the
// Transport seam below:
//   * RuntimeKind::kThread — in-process mailbox delivery; the channel delay
//     is EMULATED by enqueueing at a due time;
//   * RuntimeKind::kUdp — one real loopback datagram per message, whose
//     transit is MEASURED (runtime/udp_transport.h).
//
// One simulated time unit maps to `time_scale_us` microseconds of wall
// time. Local clocks are wall clocks scaled by a per-node fixed drift rate
// within the configured bounds — an honest (if small-scale) physical
// realisation of the ABE model, used as a fidelity check on the simulator's
// conclusions. Failure injection mirrors the simulator: per-attempt silent
// loss (`loss_probability`, drops counted in messages_dropped()) and
// congestion-degraded delays (RuntimeConfig::delay arrives already wrapped
// by FailureProfile::apply). Definition 1(3) processing time is realised
// literally: the dispatcher sleeps for the sampled handling time before
// processing a delivered message.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/node.h"
#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "util/thread_annotations.h"

namespace abe {

// The transport seam: how a message whose delay send() already sampled
// reaches the receiver's mailbox. A transport may run its own threads
// (start/stop) and its own timers: it arms one by posting a
// ThreadedRuntime::kTransportTimerId item into a node's mailbox, and the
// node's dispatcher hands it back through on_timer.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  // True when send() draws the injected-loss coin before handing the
  // message over; false when the transport draws it per wire attempt.
  virtual bool loss_before_wire() const { return true; }
  // Called on the sender's dispatcher thread with a complete kMessage
  // item except for its due time.
  virtual void deliver(std::size_t from, std::size_t to, MailItem item) = 0;
  // A transport timer popped from `node`'s mailbox; dispatcher thread.
  virtual void on_timer(std::size_t /*node*/, std::uint64_t /*tag*/) {}
  // Around the dispatchers' lifetime: start() runs before the first
  // on_start, stop() after every dispatcher has joined.
  virtual void start() {}
  virtual void stop() {}
  // Transport-specific metrics_snapshot() rows.
  virtual void add_metrics(MetricsSnapshot& /*snap*/) const {}
};

class ThreadedRuntime final : public Runtime {
 public:
  // Mailbox timer_id sentinels (user timers are nonnegative): the local
  // tick generator, and the transport's own timer (ARQ retransmission).
  static constexpr std::int64_t kTickTimerId = -1;
  static constexpr std::int64_t kTransportTimerId = -2;

  // `kind` (kThread or kUdp) picks the transport and is what kind()
  // reports. The simulator-only fields of `config` (ordering, equeue,
  // timeseries_interval) are ignored.
  ThreadedRuntime(RuntimeKind kind, RuntimeConfig config);
  ~ThreadedRuntime() override;
  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // --- Runtime -----------------------------------------------------------
  RuntimeKind kind() const override { return kind_; }
  std::size_t size() const override { return config_.topology.n; }
  void build_nodes(
      const std::function<NodePtr(std::size_t)>& factory) override;
  // Starts the transport, spawns the dispatcher threads and delivers
  // on_start on each node's dispatcher thread. The per-trial wall budget
  // (RuntimeConfig::wall_timeout_ms) counts from here.
  void start() override;
  // Sim-unit deadlines and waits convert to wall time, capped by what is
  // left of the per-trial wall budget.
  bool run_until_done(const std::function<bool()>& done,
                      SimTime deadline) override;
  void run_for(SimTime duration) override;
  bool drain(SimTime max_wait) override;
  // Freezes now(), closes all mailboxes, joins the dispatchers, then stops
  // the transport. Idempotent; also runs on destruction.
  void stop() override;
  SimTime now() const override;
  // Race-free terminated flag, updated by the node's thread after each event.
  bool terminated(std::size_t i) const override;
  // Only safe after stop(): node state is owned by its thread while running.
  Node& node(std::size_t i) override;
  RunStats stats() const override;
  // Deterministic-by-name harvest mirroring Network::metrics_snapshot():
  // net.* counters shared with the simulator, <kind>.* rows (CV wakeups,
  // mailbox high-water, per-node handler time when RuntimeConfig::metrics
  // is on; <kind> is runtime_kind_name) and the transport's own rows.
  // Values are wall-clock facts, so unlike simulator snapshots they are
  // not bit-reproducible across runs.
  MetricsSnapshot metrics_snapshot() const EXCLUDES(trace_mutex_) override;
  // Copy of the flight recorder (trace/trace.h): always-on ring of recent
  // events, stamped with mailbox DELIVERY time (now_sim() at pop), so the
  // transcript orders events the way the node experienced them, not the
  // way producers enqueued them. RuntimeConfig::trace switches it to the
  // full-detail ring the CrossRuntimeParity transcript checks read.
  Trace trace_snapshot() const EXCLUDES(trace_mutex_) override;

  // --- wall-clock primitives ---------------------------------------------
  // Blocks until `pred()` holds or the wall timeout expires, and returns
  // whether pred() held. The predicate is re-evaluated on every node-event
  // completion via condition-variable notification (no busy polling), so a
  // satisfied predicate returns promptly. It runs concurrently with node
  // threads and must only read atomics (terminated(i), the message
  // counters, or caller-owned atomic observers).
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout) EXCLUDES(progress_mutex_);

  // Blocks until no message is in flight or being handled (quiescence for
  // message-driven protocols; meaningless with tick generators or live
  // timers) or the wall timeout expires. Returns whether quiescence held.
  bool wait_quiescent(std::chrono::milliseconds timeout);

  std::uint64_t messages_sent() const { return messages_sent_.load(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.load();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.load(); }
  std::uint64_t ticks_fired() const { return ticks_fired_.load(); }
  // Wall time since start(), in sim units — measured from the single
  // monotonic-clock read start() took, which the wall budget shares (one
  // clock read point per phase). Unlike now(), it keeps running after stop().
  double now_sim() const;

  // --- transport-facing -------------------------------------------------
  const RuntimeConfig& config() const { return config_; }
  // Position of global channel `edge` among its receiver's in-channels.
  std::size_t in_index_of(std::size_t edge) const {
    return in_index_of_edge_[edge];
  }
  // Enqueues into `node`'s mailbox; safe from any thread.
  void post(std::size_t node, MailItem item);
  // `node`'s RNG stream; only its dispatcher thread may draw from it.
  Rng& dispatcher_rng(std::size_t node) { return slots_[node].rng; }
  MailItem::Clock::time_point sim_to_wall(double sim_delay_from_now) const;
  // Counts one message on `edge` lost in transit and records its DROP,
  // caused by the message's SEND record `send_id`.
  void drop(std::size_t edge, std::int64_t send_id,
            const std::string& detail = std::string());

 private:
  class NodeContext;
  struct Slot {
    NodePtr node;
    Mailbox mailbox;
    std::unique_ptr<NodeContext> context;
    std::thread thread;
    Rng rng;
    double clock_rate = 1.0;
    // Trace id of the event this node's thread is currently handling (-1
    // outside handlers). Like `rng`, touched only by the owning thread:
    // sends stamp it as their cause, pops overwrite it.
    std::int64_t current_cause = -1;
    std::atomic<bool> terminated{false};
    // Nanoseconds spent inside event handlers (metrics mode only). Written
    // by the owning node thread, read by metrics_snapshot().
    std::atomic<std::uint64_t> handler_ns{0};
  };

  void dispatcher_main(std::size_t index);
  // Wall wait for a phase that may last at most `cap_sim` more sim units:
  // the cap in wall time, clamped to what is left of the per-trial budget,
  // and at least 1 ms so an exhausted budget still polls once.
  std::chrono::milliseconds wait_budget(SimTime cap_sim) const;
  // Wakes wait_until/wait_quiescent callers after a state change.
  void signal_progress() EXCLUDES(progress_mutex_);
  // Appends to the flight recorder and returns the record's id; called
  // concurrently from node threads. `detail` is recorded only in full-trace
  // mode (or for kCustom, whose payload IS the string). `cause`/`delay`/
  // `work` mirror Trace::record (obs/causal.h attribution).
  std::int64_t record_trace(TraceKind kind, NodeId node, std::int64_t arg,
                            const std::string& detail = std::string(),
                            std::int64_t cause = -1, double delay = 0.0,
                            double work = 0.0) EXCLUDES(trace_mutex_);
  // "edge=N <payload>" in full-trace mode, empty otherwise — so lite-mode
  // sends never pay for string formatting.
  std::string trace_detail(const Payload& payload, std::size_t edge) const;

  RuntimeKind kind_;
  RuntimeConfig config_;
  std::vector<Slot> slots_;
  std::vector<std::vector<std::size_t>> out_channels_;
  std::vector<std::vector<std::size_t>> in_channels_;
  std::vector<std::size_t> in_index_of_edge_;
  std::unique_ptr<Transport> transport_;
  MailItem::Clock::time_point start_time_{};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> ticks_fired_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> cv_wakeups_{0};
  // Nodes currently inside an event handler; part of the quiescence
  // condition (a handler may still send).
  std::atomic<std::uint64_t> active_handlers_{0};
  // Nodes whose on_start has completed; quiescence is meaningless before
  // every node came up (a fresh network has sent nothing yet).
  std::atomic<std::size_t> nodes_started_{0};
  std::atomic<std::int64_t> next_timer_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  SimTime stop_time_ = 0.0;  // now() after stop(); written before the joins
  // Pure wakeup fence: no field is guarded by it — waiter predicates read
  // only the atomics above — so its whole job is the missed-wakeup pairing
  // in signal_progress()/wait_until(). The EXCLUDES contracts on those two
  // are what -Wthread-safety checks here.
  mutable AnnotatedMutex progress_mutex_;
  AnnotatedCondVar progress_cv_;
  // Flight recorder, shared by all node threads. Separate mutex from the
  // progress fence: trace records happen on every event, progress waits
  // only at the run boundary, and the two must not contend.
  mutable AnnotatedMutex trace_mutex_;
  Trace trace_ GUARDED_BY(trace_mutex_);
};

// Convenience harness mirroring core/harness.h on the thread runtime.
// (Thin shim over ThreadedRuntime + the ring-election AlgorithmDriver; see
// runtime/runtime.h.)
struct ThreadedElectionResult {
  bool elected = false;
  std::size_t leader_index = 0;
  double election_time_sim = 0.0;
  std::uint64_t messages = 0;
  bool safety_ok = false;
};

// `clock_bounds` realises the drift band on real threads (one fixed rate
// per node drawn within the bounds); the default is ideal clocks.
// `loss_probability` injects per-attempt silent message loss.
ThreadedElectionResult run_threaded_election(
    std::size_t n, double a0, double mean_delay, std::uint64_t seed,
    double time_scale_us = 200.0,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(30000),
    ClockBounds clock_bounds = {}, double loss_probability = 0.0);

}  // namespace abe
