#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <utility>

#include "runtime/udp_transport.h"
#include "util/check.h"

namespace abe {

namespace {

// In-process delivery: the sampled delay becomes the item's due time in
// the receiver's mailbox.
class MailboxTransport final : public Transport {
 public:
  explicit MailboxTransport(ThreadedRuntime& rt) : rt_(rt) {}

  void deliver(std::size_t /*from*/, std::size_t to, MailItem item) override {
    item.due = rt_.sim_to_wall(item.delay_sim);
    rt_.post(to, std::move(item));
  }

 private:
  ThreadedRuntime& rt_;
};

}  // namespace

// Context implementation whose methods run exclusively on the node's
// dispatcher thread.
class ThreadedRuntime::NodeContext final : public Context {
 public:
  NodeContext(ThreadedRuntime* rt, std::size_t index)
      : rt_(rt), index_(index) {}

  NodeId self() const override {
    return NodeId{static_cast<std::int64_t>(index_)};
  }
  std::size_t out_degree() const override {
    return rt_->out_channels_[index_].size();
  }
  std::size_t in_degree() const override {
    return rt_->in_channels_[index_].size();
  }
  std::size_t network_size() const override { return rt_->size(); }

  void send(std::size_t out_index, PayloadPtr payload) override {
    ABE_CHECK_LT(out_index, rt_->out_channels_[index_].size());
    ABE_CHECK(static_cast<bool>(payload));
    Slot& self_slot = rt_->slots_[index_];
    const RuntimeConfig& config = rt_->config_;
    const std::size_t edge = rt_->out_channels_[index_][out_index];
    const std::size_t to = config.topology.edges[edge].to;

    rt_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // The send's cause is the handler this thread is currently running; the
    // send's id travels with the message so the pop-side DELIVER links back.
    const std::int64_t send_id = rt_->record_trace(
        TraceKind::kSend, self(), static_cast<std::int64_t>(edge),
        rt_->trace_detail(*payload, edge), self_slot.current_cause);
    // Silent loss (failure injection): the message vanishes in transit.
    // Sent-then-dropped counting mirrors NetworkMetrics, so in-flight
    // arithmetic (sent - delivered - dropped) works on every runtime.
    if (rt_->transport_->loss_before_wire() &&
        config.loss_probability > 0.0 &&
        self_slot.rng.bernoulli(config.loss_probability)) {
      rt_->drop(edge, send_id, rt_->trace_detail(*payload, edge));
      return;
    }

    // Policies synchronise internally (make_bounded_adversary) — this call
    // runs concurrently from every node thread.
    const double delay = config.adversary_delay != nullptr
                             ? config.adversary_delay->next_delay(index_, to)
                             : config.delay->sample(self_slot.rng);
    MailItem item;
    item.kind = MailItem::Kind::kMessage;
    item.cause = send_id;
    item.in_index = rt_->in_index_of_edge_[edge];
    item.edge = edge;
    item.payload = std::shared_ptr<const Payload>(payload.release());
    item.delay_sim = delay;
    rt_->transport_->deliver(index_, to, std::move(item));
  }

  double local_now() override {
    return rt_->now_sim() * rt_->slots_[index_].clock_rate;
  }
  SimTime real_now() const override { return rt_->now_sim(); }

  TimerId set_timer_local(double local_delay, std::uint64_t tag) override {
    ABE_CHECK_GE(local_delay, 0.0);
    const double real_delay =
        local_delay / rt_->slots_[index_].clock_rate;
    const std::int64_t id =
        rt_->next_timer_id_.fetch_add(1, std::memory_order_relaxed);
    MailItem item;
    item.kind = MailItem::Kind::kTimer;
    item.due = rt_->sim_to_wall(real_delay);
    // set_timer_local runs on the node's own thread: the arming handler is
    // this slot's current event.
    item.cause = rt_->slots_[index_].current_cause;
    item.timer_id = id;
    item.tag = tag;
    rt_->post(index_, std::move(item));
    return TimerId{id};
  }

  bool cancel_timer(TimerId id) override {
    rt_->slots_[index_].mailbox.cancel_timer(id.value());
    return true;
  }

  Rng& rng() override { return rt_->slots_[index_].rng; }

  void log(const std::string& detail) override {
    rt_->record_trace(TraceKind::kCustom, self(), -1, detail,
                       rt_->slots_[index_].current_cause);
  }

 private:
  ThreadedRuntime* rt_;
  std::size_t index_;
};

ThreadedRuntime::ThreadedRuntime(RuntimeKind kind, RuntimeConfig config)
    : kind_(kind), config_(std::move(config)) {
  ABE_CHECK(kind_ == RuntimeKind::kThread || kind_ == RuntimeKind::kUdp)
      << "the threaded runtime realises only the thread and udp kinds";
  const std::string name = runtime_kind_name(kind_);
  validate_topology(config_.topology);
  config_.clock_bounds.validate();
  if (!config_.delay) config_.delay = exponential_delay(1.0);
  ABE_CHECK_GT(config_.time_scale_us, 0.0);
  ABE_CHECK_GT(config_.wall_timeout_ms, 0.0);
  ABE_CHECK_GE(config_.loss_probability, 0.0);
  ABE_CHECK_LT(config_.loss_probability, 1.0)
      << "loss probability 1 would never deliver";
  ABE_CHECK(config_.drift != DriftModel::kPiecewiseRandom)
      << name << " runtime realises clocks as scaled wall time; only kNone "
      << "and kFixedRandomRate are possible";

  const std::size_t n = config_.topology.n;
  out_channels_ = out_adjacency(config_.topology);
  in_channels_ = in_adjacency(config_.topology);
  in_index_of_edge_ = in_index_of_edge(config_.topology);

  // Substream names carry the runtime kind ("thread-node", "udp-clock"), so
  // each substrate keeps its own seed-pinned per-node draws.
  const Rng root_rng(config_.seed);
  slots_ = std::vector<Slot>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].context = std::make_unique<NodeContext>(this, i);
    slots_[i].rng = root_rng.substream(name + "-node", i);
    if (config_.drift == DriftModel::kFixedRandomRate) {
      Rng clock_rng = root_rng.substream(name + "-clock", i);
      slots_[i].clock_rate = clock_rng.uniform(config_.clock_bounds.s_low,
                                               config_.clock_bounds.s_high);
    }
  }
  // After the wiring: the udp transport opens its sockets here, so every
  // sender knows every port before the first datagram.
  if (kind_ == RuntimeKind::kUdp) {
    transport_ = std::make_unique<UdpTransport>(*this);
  } else {
    transport_ = std::make_unique<MailboxTransport>(*this);
  }
  {
    MutexLock lock(trace_mutex_);
    if (config_.trace) trace_.enable();
    // Lite records at full capacity: enough retained history for complete
    // cause chains without the detail-string cost.
    if (config_.causal_history) trace_.set_capacity(Trace::kFullCapacity);
  }
}

ThreadedRuntime::~ThreadedRuntime() { stop(); }

std::string ThreadedRuntime::trace_detail(const Payload& payload,
                                          std::size_t edge) const {
  if (!config_.trace) return std::string();
  return "edge=" + std::to_string(edge) + " " + payload.describe();
}

std::int64_t ThreadedRuntime::record_trace(TraceKind kind, NodeId node,
                                           std::int64_t arg,
                                           const std::string& detail,
                                           std::int64_t cause, double delay,
                                           double work) {
  // Delivery-side records are stamped with now_sim() at the moment the
  // consumer popped the item — mailbox delivery time, the threaded
  // runtime's analogue of the simulator's event time.
  const double t = now_sim();
  MutexLock lock(trace_mutex_);
  if (detail.empty()) {
    return trace_.record(t, kind, node, arg, cause, delay, work);
  }
  return trace_.record(t, kind, node, detail, arg, cause, delay, work);
}

void ThreadedRuntime::drop(std::size_t edge, std::int64_t send_id,
                           const std::string& detail) {
  messages_dropped_.fetch_add(1, std::memory_order_relaxed);
  record_trace(TraceKind::kDrop,
               NodeId{static_cast<std::int64_t>(
                   config_.topology.edges[edge].to)},
               static_cast<std::int64_t>(edge), detail, send_id);
}

void ThreadedRuntime::post(std::size_t node, MailItem item) {
  slots_[node].mailbox.push(std::move(item));
}

Trace ThreadedRuntime::trace_snapshot() const {
  MutexLock lock(trace_mutex_);
  return trace_;
}

MetricsSnapshot ThreadedRuntime::metrics_snapshot() const {
  MetricsSnapshot snap;
  transport_->add_metrics(snap);
  const std::string prefix = runtime_kind_name(kind_);
  snap.add_counter("net.sent", static_cast<double>(messages_sent_.load()));
  snap.add_counter("net.delivered",
                   static_cast<double>(messages_delivered_.load()));
  snap.add_counter("net.dropped",
                   static_cast<double>(messages_dropped_.load()));
  snap.add_counter("net.ticks", static_cast<double>(ticks_fired_.load()));
  snap.add_counter("net.timers", static_cast<double>(timers_fired_.load()));
  snap.add_counter(prefix + ".cv_wakeups",
                   static_cast<double>(cv_wakeups_.load()));
  std::size_t mailbox_high_water = 0;
  for (const auto& slot : slots_) {
    mailbox_high_water = std::max(mailbox_high_water,
                                  slot.mailbox.high_water());
  }
  snap.add_gauge(prefix + ".mailbox_high_water",
                 static_cast<double>(mailbox_high_water));
  if (config_.metrics) {
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    for (const auto& slot : slots_) {
      const std::uint64_t ns =
          slot.handler_ns.load(std::memory_order_relaxed);
      total_ns += ns;
      max_ns = std::max(max_ns, ns);
    }
    snap.add_counter(prefix + ".handler_us.sum",
                     static_cast<double>(total_ns) / 1e3);
    snap.add_gauge(prefix + ".handler_us.max",
                   static_cast<double>(max_ns) / 1e3);
  }
  {
    MutexLock lock(trace_mutex_);
    snap.add_counter("trace.recorded",
                     static_cast<double>(trace_.total_recorded()));
  }
  return snap;
}

void ThreadedRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  ABE_CHECK(!started_.load());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].node = factory(i);
    ABE_CHECK(static_cast<bool>(slots_[i].node)) << "node " << i << " is null";
  }
}

MailItem::Clock::time_point ThreadedRuntime::sim_to_wall(
    double sim_delay_from_now) const {
  return MailItem::Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(
             sim_delay_from_now * config_.time_scale_us));
}

double ThreadedRuntime::now_sim() const {
  const auto elapsed = MailItem::Clock::now() - start_time_;
  const double us =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count());
  return us / config_.time_scale_us;
}

void ThreadedRuntime::start() {
  ABE_CHECK(!started_.exchange(true)) << "start() called twice";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ABE_CHECK(static_cast<bool>(slots_[i].node)) << "node " << i << " missing";
  }
  start_time_ = MailItem::Clock::now();
  // Transport first: every socket must have someone draining it before any
  // on_start sends (prompt draining keeps measured transits honest from the
  // first message).
  transport_->start();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].thread = std::thread([this, i] { dispatcher_main(i); });
  }
}

void ThreadedRuntime::signal_progress() {
  // The empty critical section pairs with the wait in wait_until: a
  // predicate flip made by this thread can never slip between the waiter's
  // pred() check and its block (classic missed-wakeup fence).
  cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
  { MutexLock lock(progress_mutex_); }
  progress_cv_.notify_all();
}

void ThreadedRuntime::dispatcher_main(std::size_t index) {
  Slot& slot = slots_[index];
  Context& ctx = *slot.context;
  active_handlers_.fetch_add(1, std::memory_order_acq_rel);
  slot.node->on_start(ctx);
  slot.terminated.store(slot.node->is_terminated(),
                        std::memory_order_release);
  nodes_started_.fetch_add(1, std::memory_order_acq_rel);
  active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
  signal_progress();

  // Self-generated ticks: computed from the node's local clock.
  std::uint64_t tick_seq = 0;
  const auto push_next_tick = [&](std::int64_t cause) {
    // Local time (tick_seq + 1) * period, converted to real (sim) time by
    // the node's clock rate, then to wall microseconds since start().
    const double due_us = static_cast<double>(tick_seq + 1) *
                          config_.tick_local_period / slot.clock_rate *
                          config_.time_scale_us;
    MailItem tick;
    tick.kind = MailItem::Kind::kTimer;
    tick.timer_id = kTickTimerId;
    tick.cause = cause;
    tick.due = start_time_ + std::chrono::microseconds(
                                 static_cast<std::int64_t>(due_us));
    slot.mailbox.push(std::move(tick));
  };
  if (config_.enable_ticks) push_next_tick(-1);

  MailItem item;
  while (slot.mailbox.pop(item)) {
    // The handler scope participates in quiescence detection: in-flight can
    // read 0 while a just-delivered message is still being handled (and may
    // yet send), so wait_quiescent also requires active_handlers_ == 0.
    // Ordering matters — the increment must precede messages_delivered_.
    active_handlers_.fetch_add(1, std::memory_order_acq_rel);
    if (item.kind == MailItem::Kind::kTimer &&
        item.timer_id == kTransportTimerId) {
      // Transport bookkeeping (ARQ retransmission): not a node event — no
      // trace record, no timer counter — but bracketed like one so a
      // give-up's dropped++ never lands outside a handler window.
      transport_->on_timer(index, item.tag);
      active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
      signal_progress();
      continue;
    }
    // Handler-time accounting (metrics mode): wall-clock reads bracket the
    // handler body only, not the mailbox wait.
    const auto handler_start = config_.metrics
                                   ? MailItem::Clock::now()
                                   : MailItem::Clock::time_point{};
    if (item.kind == MailItem::Kind::kMessage) {
      messages_delivered_.fetch_add(1, std::memory_order_relaxed);
      // The processing draw happens before the record so the DELIVER can
      // carry its `work` attribution; same per-thread draw sequence either
      // way (this thread's rng sees no other draw in between).
      double ptime = 0.0;
      if (config_.processing.kind != ProcessingModel::Kind::kZero) {
        ptime = config_.processing.sample(slot.rng);
      }
      // arg is the global edge id, as on the simulator, so cross-runtime
      // edge attribution and the SEND->DELIVER edge match line up.
      slot.current_cause = record_trace(
          TraceKind::kDeliver, ctx.self(),
          static_cast<std::int64_t>(item.edge),
          trace_detail(*item.payload, item.edge), item.cause, item.delay_sim,
          ptime);
      // Definition 1(3): handling occupies the node for the sampled time.
      if (ptime > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(ptime * config_.time_scale_us)));
      }
      slot.node->on_message(ctx, item.in_index, *item.payload);
    } else if (item.timer_id == kTickTimerId) {
      ++tick_seq;
      ticks_fired_.fetch_add(1, std::memory_order_relaxed);
      slot.current_cause = record_trace(TraceKind::kTick, ctx.self(),
                                        static_cast<std::int64_t>(tick_seq),
                                        std::string(), item.cause);
      slot.node->on_tick(ctx, tick_seq);
      // This tick schedules the next one.
      if (!slot.node->is_terminated()) push_next_tick(slot.current_cause);
    } else {
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
      slot.current_cause = record_trace(TraceKind::kTimer, ctx.self(),
                                        static_cast<std::int64_t>(item.tag),
                                        std::string(), item.cause);
      slot.node->on_timer(ctx, TimerId{item.timer_id}, item.tag);
    }
    if (config_.metrics) {
      const auto handler_ns = std::chrono::duration_cast<
          std::chrono::nanoseconds>(MailItem::Clock::now() - handler_start);
      slot.handler_ns.fetch_add(
          static_cast<std::uint64_t>(handler_ns.count()),
          std::memory_order_relaxed);
    }
    slot.terminated.store(slot.node->is_terminated(),
                          std::memory_order_release);
    active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
    signal_progress();
  }
}

bool ThreadedRuntime::wait_until(const std::function<bool()>& pred,
                                 std::chrono::milliseconds timeout) {
  const auto deadline = MailItem::Clock::now() + timeout;
  MutexLock lock(progress_mutex_);
  return progress_cv_.wait_until(progress_mutex_, deadline,
                                 [&] { return pred(); });
}

bool ThreadedRuntime::wait_quiescent(std::chrono::milliseconds timeout) {
  return wait_until(
      [&] {
        // Freshly spawned threads look quiescent before their on_start has
        // run (and sent anything), so quiescence starts counting only once
        // every node came up.
        if (nodes_started_.load(std::memory_order_acquire) != size()) {
          return false;
        }
        // Consistent-snapshot dance: counters balanced → no handler active
        // → counters unchanged. The three reads happen at different times,
        // so each alone can race a node popping the last in-flight message
        // (delivered++ lands between our reads while its handler, which
        // may yet send, is still running). The re-read closes that window
        // for message-driven protocols: a handler active at the middle
        // read would have bumped `delivered` between the two counter
        // snapshots (its increment precedes the handler body), and any
        // message still in a mailbox keeps sent > delivered + dropped in
        // both snapshots. A transport needs no extra clause: a message it
        // still carries (a datagram in the kernel, an unACKed ARQ send)
        // keeps sent > delivered + dropped until the receiving dispatcher
        // pops it or the sender gives up — both counted.
        const std::uint64_t sent1 = messages_sent_.load();
        const std::uint64_t done1 =
            messages_delivered_.load() + messages_dropped_.load();
        if (sent1 != done1) return false;
        if (active_handlers_.load(std::memory_order_acquire) != 0) {
          return false;
        }
        const std::uint64_t sent2 = messages_sent_.load();
        const std::uint64_t done2 =
            messages_delivered_.load() + messages_dropped_.load();
        return sent2 == sent1 && done2 == done1;
      },
      timeout);
}

void ThreadedRuntime::stop() {
  if (!started_.load() || stopped_.load()) return;
  stop_time_ = now_sim();
  stopped_.store(true);
  for (auto& slot : slots_) {
    slot.mailbox.close();
  }
  for (auto& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  transport_->stop();
}

Node& ThreadedRuntime::node(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

bool ThreadedRuntime::terminated(std::size_t i) const {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].terminated.load(std::memory_order_acquire);
}

std::chrono::milliseconds ThreadedRuntime::wait_budget(SimTime cap_sim) const {
  const double ms_per_unit = config_.time_scale_us / 1000.0;
  double budget_ms = config_.wall_timeout_ms;
  // The budget counts from the clock read start() took — the origin
  // now_sim() shares — so budget arithmetic and the reported clock line up.
  if (started_.load()) {
    budget_ms = std::max(1.0, budget_ms - now_sim() * ms_per_unit);
  }
  budget_ms = std::min(budget_ms, cap_sim * ms_per_unit);
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms)));
}

bool ThreadedRuntime::run_until_done(const std::function<bool()>& done,
                                     SimTime deadline) {
  // The deadline is absolute sim time (contract shared with SimRuntime),
  // so only the remainder beyond the current clock converts to wall time;
  // the per-trial wall budget caps it so a deadline meant for the
  // simulator (often 1e7 units) cannot turn into an hours-long wall hang.
  return wait_until(done, wait_budget(std::max(0.0, deadline - now_sim())));
}

void ThreadedRuntime::run_for(SimTime duration) {
  // Wall-clock floor: below ~kMinSettleWallMs of wall time, OS scheduling
  // jitter dominates and the requested settle window is not actually
  // realised (in-flight wakeups land later than any sim-unit conversion
  // suggests).
  const double ms =
      std::max(kMinSettleWallMs, duration * config_.time_scale_us / 1000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
}

bool ThreadedRuntime::drain(SimTime max_wait) {
  return wait_quiescent(wait_budget(max_wait));
}

SimTime ThreadedRuntime::now() const {
  return stopped_.load() ? stop_time_ : now_sim();
}

RunStats ThreadedRuntime::stats() const {
  RunStats stats;
  stats.messages_sent = messages_sent();
  stats.messages_delivered = messages_delivered();
  stats.messages_dropped = messages_dropped();
  stats.ticks_fired = ticks_fired();
  stats.now = now();
  stats.terminated.resize(size());
  for (std::size_t i = 0; i < size(); ++i) {
    stats.terminated[i] = terminated(i);
  }
  return stats;
}

}  // namespace abe
