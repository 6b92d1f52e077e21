#include "runtime/udp_transport.h"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace abe {

namespace {

std::int64_t steady_ns(MailItem::Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

MailItem::Clock::time_point from_steady_ns(std::int64_t ns) {
  return MailItem::Clock::time_point(
      std::chrono::duration_cast<MailItem::Clock::duration>(
          std::chrono::nanoseconds(ns)));
}

}  // namespace

UdpTransport::UdpTransport(ThreadedRuntime& rt)
    : rt_(rt),
      reliable_(rt.config().udp_reliable),
      endpoints_(rt.size()),
      next_seq_(rt.config().topology.edges.size(), 0),
      rx_(rt.config().topology.edges.size()) {
  static_assert(sizeof(Wire) == 64,
                "wire header layout is part of the datagram format");
  static_assert(std::is_trivially_copyable<Wire>::value,
                "wire header is sent as raw bytes");
  if (reliable_) {
    rtt_hist_ = &registry_.histogram("arq.rtt",
                                     FixedHistogram::log2_bounds(1.0, 6, 10));
  }
}

void UdpTransport::add_metrics(MetricsSnapshot& snap) const {
  snap.merge(registry_.snapshot());
}

void UdpTransport::start() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    endpoints_[i].reader = std::thread([this, i] { reader_main(i); });
  }
}

void UdpTransport::stop() {
  // Set the flag first, then wake each reader out of its receive() poll so
  // it sees the flag now rather than one poll interval later.
  stop_readers_.store(true, std::memory_order_release);
  for (auto& endpoint : endpoints_) endpoint.socket.wake_receivers();
  for (auto& endpoint : endpoints_) {
    if (endpoint.reader.joinable()) endpoint.reader.join();
  }
}

void UdpTransport::deliver(std::size_t from, std::size_t /*to*/,
                           MailItem item) {
  const std::uint64_t msg_id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(inflight_mutex_);
    inflight_[msg_id] = std::move(item.payload);
  }
  Wire wire;
  wire.from = static_cast<std::uint32_t>(from);
  wire.edge = static_cast<std::uint32_t>(item.edge);
  wire.msg_id = msg_id;
  wire.send_id = item.cause;
  wire.first_send_ns = steady_ns(MailItem::Clock::now());
  wire.delay_sim = item.delay_sim;
  if (reliable_) {
    wire.seq = ++next_seq_[item.edge];
    Endpoint& endpoint = endpoints_[from];
    MutexLock lock(endpoint.tx_mutex);
    endpoint.unacked.emplace(msg_id, PendingTx{wire});
  }
  transmit(from, wire);
}

void UdpTransport::transmit(std::size_t from, const Wire& wire) {
  if (reliable_) {
    // The retransmission timer for this attempt, into the sender's own
    // mailbox: on_timer rearms or gives up unless an ACK lands first.
    MailItem timer;
    timer.kind = MailItem::Kind::kTimer;
    timer.timer_id = ThreadedRuntime::kTransportTimerId;
    timer.tag = wire.msg_id;
    timer.due = rt_.sim_to_wall(kArqTimeout);
    rt_.post(from, std::move(timer));
  }
  Wire out = wire;
  out.send_ns = steady_ns(MailItem::Clock::now());
  // Reliable mode injects loss per transmission ATTEMPT: the datagram is
  // suppressed, the ARQ timer retries. (Unreliable injected loss was
  // already realised in send(), before the wire.)
  const double loss = rt_.config().loss_probability;
  if (reliable_ && loss > 0.0 && rt_.dispatcher_rng(from).bernoulli(loss)) {
    attempt_drops_.inc();
    return;
  }
  const std::size_t to = rt_.config().topology.edges[wire.edge].to;
  if (endpoints_[from].socket.send_to(endpoints_[to].socket.port(), &out,
                                      sizeof(out))) {
    datagrams_tx_.inc();
  } else {
    // Kernel refused the send (shutdown race, transient ENOBUFS): treat as
    // transit loss — ARQ retries it, unreliable mode genuinely loses it.
    attempt_drops_.inc();
  }
}

void UdpTransport::on_timer(std::size_t node, std::uint64_t msg_id) {
  Endpoint& endpoint = endpoints_[node];
  Wire wire;
  bool give_up = false;
  {
    MutexLock lock(endpoint.tx_mutex);
    auto it = endpoint.unacked.find(msg_id);
    if (it == endpoint.unacked.end()) return;  // ACKed since the timer armed
    wire = it->second.wire;
    // Attempt cap: with ACKs immune to injected loss, reaching it takes
    // ~loss^max_attempts consecutive data-attempt losses — the give-up
    // exists so a pathological channel cannot wedge quiescence forever.
    give_up = it->second.attempts >= kArqMaxAttempts;
    if (give_up) {
      endpoint.unacked.erase(it);
    } else {
      it->second.attempts += 1;
    }
  }
  if (give_up) {
    {
      MutexLock lock(inflight_mutex_);
      inflight_.erase(msg_id);
    }
    giveups_.inc();
    rt_.drop(wire.edge, wire.send_id);
    return;
  }
  retransmits_.inc();
  transmit(node, wire);
}

void UdpTransport::reader_main(std::size_t index) {
  const UdpSocket& socket = endpoints_[index].socket;
  Wire wire;
  while (!stop_readers_.load(std::memory_order_acquire)) {
    const int got = socket.receive(&wire, sizeof(wire));
    if (got == 0) continue;  // poll elapsed or woken; re-check stop flag
    if (got < 0) return;     // unrecoverable socket error (shutdown)
    if (static_cast<std::size_t>(got) != sizeof(Wire) ||
        wire.magic != Wire::kMagic) {
      // Not ours (stray datagram on a reused port): drop silently.
      continue;
    }
    const std::int64_t recv_ns = steady_ns(MailItem::Clock::now());
    if (wire.kind == Wire::kKindAck) {
      handle_ack(index, wire, recv_ns);
    } else {
      handle_data(index, wire, recv_ns);
    }
  }
}

void UdpTransport::handle_data(std::size_t index, const Wire& wire,
                               std::int64_t recv_ns) {
  datagrams_rx_.inc();
  // The measurement this substrate exists for: real kernel+loopback transit
  // of this datagram, in wall microseconds.
  transit_hist_.record(static_cast<double>(recv_ns - wire.send_ns) / 1e3);

  if (reliable_) {
    // Always ACK — duplicates too (the earlier ACK may have raced the
    // retransmit timer). ACKs are deliberately exempt from injected loss,
    // mirroring run_arq_experiment's lossless ack channel (net/arq.h):
    // this keeps sender give-up of an already-delivered message (which
    // would double-count it as both delivered and dropped) out of the
    // model, at ~loss^max_attempts residual probability.
    Wire ack = wire;
    ack.kind = Wire::kKindAck;
    ack.from = static_cast<std::uint32_t>(index);
    ack.send_ns = steady_ns(MailItem::Clock::now());
    if (endpoints_[index].socket.send_to(endpoints_[wire.from].socket.port(),
                                         &ack, sizeof(ack))) {
      acks_tx_.inc();
    }
    RxChannel& rx = rx_[wire.edge];
    if (wire.seq <= rx.cum_delivered ||
        rx.delivered_ahead.count(wire.seq) != 0) {
      duplicates_.inc();
      return;
    }
    rx.delivered_ahead.insert(wire.seq);
    while (rx.delivered_ahead.erase(rx.cum_delivered + 1) != 0) {
      rx.cum_delivered += 1;
    }
  }

  std::shared_ptr<const Payload> payload;
  {
    MutexLock lock(inflight_mutex_);
    auto it = inflight_.find(wire.msg_id);
    if (it != inflight_.end()) {
      payload = std::move(it->second);
      inflight_.erase(it);
    }
  }
  if (!payload) {
    // The sender already reclaimed the payload (give-up racing a late
    // datagram) or the kernel duplicated an unreliable datagram. The
    // message was accounted for elsewhere; this wire copy is inert.
    orphan_datagrams_.inc();
    return;
  }

  // The sampled model delay is realised against the SEND instant, so real
  // transit slower than the sampled delay degrades into immediate dispatch
  // rather than stacking on top (hybrid semantics; see README).
  MailItem item;
  item.kind = MailItem::Kind::kMessage;
  item.due = from_steady_ns(wire.send_ns) +
             std::chrono::microseconds(static_cast<std::int64_t>(
                 wire.delay_sim * rt_.config().time_scale_us));
  item.cause = wire.send_id;
  item.in_index = rt_.in_index_of(wire.edge);
  item.edge = wire.edge;
  item.payload = std::move(payload);
  item.delay_sim = wire.delay_sim;
  rt_.post(index, std::move(item));
}

void UdpTransport::handle_ack(std::size_t index, const Wire& wire,
                              std::int64_t recv_ns) {
  acks_rx_.inc();
  bool newly_acked = false;
  {
    Endpoint& endpoint = endpoints_[index];
    MutexLock lock(endpoint.tx_mutex);
    newly_acked = endpoint.unacked.erase(wire.msg_id) > 0;
  }
  if (newly_acked && rtt_hist_ != nullptr) {
    // First-send -> ACK round trip, converted to sim units so arq.rtt is
    // comparable with the simulated ARQ experiments.
    rtt_hist_->record(static_cast<double>(recv_ns - wire.first_send_ns) /
                      1e3 / rt_.config().time_scale_us);
  }
}

// ---------------------------------------------------------------------------
// Calibration

UdpCalibration fit_udp_calibration(const MetricsSnapshot& snapshot) {
  UdpCalibration cal;
  const MetricValue* mv = snapshot.find("udp.transit_us");
  if (mv == nullptr || mv->kind != MetricKind::kHistogram) return cal;
  std::uint64_t total = 0;
  for (const std::uint64_t c : mv->buckets) total += c;
  if (total == 0) return cal;
  cal.samples = total;
  // Offset: the 5th-percentile transit. The true minimum is noisier than a
  // low quantile under scheduler jitter, and the shifted-exponential fit
  // only needs "the deterministic floor, roughly".
  cal.offset_us = FixedHistogram::quantile_of(mv->bounds, mv->buckets, 0.05);
  // Mean from bucket midpoints; the overflow bucket contributes at the last
  // bound (a deliberate under-estimate — tail samples there are outliers
  // the fit should not chase).
  double weighted_sum = 0.0;
  double lower = 0.0;
  for (std::size_t i = 0; i < mv->bounds.size(); ++i) {
    weighted_sum += static_cast<double>(mv->buckets[i]) * 0.5 *
                    (lower + mv->bounds[i]);
    lower = mv->bounds[i];
  }
  weighted_sum +=
      static_cast<double>(mv->buckets.back()) * mv->bounds.back();
  const double mean = weighted_sum / static_cast<double>(total);
  cal.mean_extra_us = std::max(0.0, mean - cal.offset_us);
  cal.ok = true;
  return cal;
}

DelayModelPtr UdpCalibration::to_delay_model(double time_scale_us) const {
  ABE_CHECK(ok) << "no transit samples to fit";
  ABE_CHECK_GT(time_scale_us, 0.0);
  // A degenerate all-one-bucket histogram can fit mean_extra == 0; keep the
  // model a genuine (if tiny) exponential rather than a point mass.
  const double mean_extra = std::max(mean_extra_us, 1e-6);
  return shifted_exponential_delay(offset_us / time_scale_us,
                                   mean_extra / time_scale_us);
}

}  // namespace abe
