// Real-socket transport for the threaded runtime (runtime/threaded_runtime.h):
// one loopback UDP socket per node, every message a real datagram. This is
// what RuntimeKind::kUdp adds on top of the shared threaded skeleton.
//
// Where the simulator ASSUMES bounded expected delay (Definition 1(1):
// sampled DelayModel) and the mailbox transport EMULATES it (due-time
// sleeps), this transport carries the same algorithm traffic over a wire
// whose delay is a measured property: every datagram's real loopback
// transit (send → recv, monotonic clock) is recorded into the
// `udp.transit_us` histogram, and fit_udp_calibration() fits those
// measurements back into a DelayModel (shifted exponential) so simulated
// and real cells cross-validate on the same sweep.
//
// Per node: one UdpSocket (runtime/udp_socket.h — the only raw-socket
// site) plus a READER thread that blocks in receive(), answers ACKs and
// turns wire headers into mailbox items for the node's dispatcher. The
// SEND record id rides the datagram, so the DELIVER links back and
// `abe_scenarios trace` and critical-path extraction work on real packets
// unchanged.
//
// Payloads are polymorphic C++ objects with no wire format (net/message.h),
// and every node lives in this process — so datagrams carry a fixed header
// (edge, seq, trace cause, timestamps) while the payload pointer crosses
// through an in-process table keyed by message id. The network path is
// real (kernel, loopback device, real loss under pressure); the payload
// hand-off is honestly in-memory. README § "Real-socket runtime" spells
// out the caveat.
//
// Reliability: RuntimeConfig::udp_reliable layers the net/arq.h
// retransmission logic onto every channel — per-edge sequence numbers,
// per-datagram ACKs, timeout retransmission with an attempt cap, receiver-
// side dedup (cumulative base + out-of-order set, duplicates re-ACKed) — so
// injected per-attempt loss degrades goodput instead of dropping messages,
// and `arq.rtt` records first-send→ack round trips. Unreliable mode keeps
// the shared behaviour: per-attempt Bernoulli loss drops the message before
// the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/delay.h"
#include "obs/metrics.h"
#include "runtime/threaded_runtime.h"
#include "runtime/udp_socket.h"
#include "util/thread_annotations.h"

namespace abe {

class UdpTransport final : public Transport {
 public:
  // Retransmission timeout in sim units (scaled to wall time like every
  // other delay); a few times the delay models' unit mean.
  static constexpr double kArqTimeout = 4.0;
  // Attempt cap per message: past it the sender gives up and counts the
  // message dropped, so a pathological channel cannot wedge quiescence.
  // With ACKs immune to injected loss, a capped message is (up to
  // astronomically unlikely kernel-drop streaks) genuinely undelivered.
  static constexpr int kArqMaxAttempts = 64;

  // Opens one socket per node of `rt`, so every sender knows every port
  // before the first datagram.
  explicit UdpTransport(ThreadedRuntime& rt);
  ~UdpTransport() override { stop(); }

  // Reliable mode injects loss per ATTEMPT (transmit), not before the wire.
  bool loss_before_wire() const override { return !reliable_; }
  void deliver(std::size_t from, std::size_t to, MailItem item) override;
  // The ARQ retransmission timer (tag: message id): rearm or give up.
  void on_timer(std::size_t node, std::uint64_t msg_id) override;
  void start() override;
  void stop() override;
  // udp.* transport tallies, the measured udp.transit_us histogram and
  // arq.rtt in reliable mode.
  void add_metrics(MetricsSnapshot& snap) const override;

 private:
  // The fixed-size datagram header — the only bytes that cross the socket.
  // Payload objects stay in the in-process inflight table (see the file
  // comment); `msg_id` is the key that reunites them at delivery.
  struct Wire {
    static constexpr std::uint32_t kMagic = 0x41424544u;  // "ABED"
    static constexpr std::uint8_t kKindData = 0;
    static constexpr std::uint8_t kKindAck = 1;

    std::uint32_t magic = kMagic;
    std::uint8_t kind = kKindData;
    std::uint8_t pad[3] = {0, 0, 0};
    std::uint32_t from = 0;        // sending node index (ACKs route back)
    std::uint32_t edge = 0;        // global channel id
    std::uint64_t seq = 0;         // per-channel ARQ sequence; 0 = unreliable
    std::uint64_t msg_id = 0;      // inflight-table key; ACKs echo it
    std::int64_t send_id = -1;     // SEND trace record (DELIVER's cause)
    std::int64_t send_ns = 0;      // steady-clock ns of THIS attempt
    std::int64_t first_send_ns = 0;  // first attempt (arq.rtt base; ACK echo)
    double delay_sim = 0.0;        // sampled model delay (sim units)
  };

  // A message the reliable layer has transmitted but not yet seen ACKed:
  // its wire header (reused verbatim by retransmissions) and attempt count.
  struct PendingTx {
    Wire wire;
    int attempts = 1;
  };

  // Receiver-side dedup state for one channel (receiver's reader thread
  // only): sequences <= cum_delivered plus the out-of-order set have been
  // delivered; anything else is new.
  struct RxChannel {
    std::uint64_t cum_delivered = 0;
    std::set<std::uint64_t> delivered_ahead;
  };

  struct Endpoint {
    UdpSocket socket;
    std::thread reader;
    // Reliable-mode transmit ledger, keyed by message id. Shared between
    // the dispatcher (send, retransmit, give-up) and the reader (ACK).
    AnnotatedMutex tx_mutex;
    std::map<std::uint64_t, PendingTx> unacked GUARDED_BY(tx_mutex);
  };

  void reader_main(std::size_t index);
  void handle_data(std::size_t index, const Wire& wire, std::int64_t recv_ns);
  void handle_ack(std::size_t index, const Wire& wire, std::int64_t recv_ns);
  // One DATA transmission attempt (initial or retransmission). Reliable
  // mode arms the attempt's retransmission timer (due one kArqTimeout from
  // now) and draws the per-attempt loss coin. Stamps send_ns and sends the
  // datagram. Sender's dispatcher thread only (the coin uses its rng).
  void transmit(std::size_t from, const Wire& wire);

  ThreadedRuntime& rt_;
  const bool reliable_;
  std::vector<Endpoint> endpoints_;
  // Per-channel ARQ state, indexed by global edge id: next sequence number
  // (sender's dispatcher only) and dedup (receiver's reader only).
  std::vector<std::uint64_t> next_seq_;
  std::vector<RxChannel> rx_;
  std::atomic<std::uint64_t> next_msg_id_{0};
  std::atomic<bool> stop_readers_{false};
  // In-process payload hand-off: message id -> payload, inserted by the
  // sender before the datagram leaves, removed by the receiving reader at
  // delivery (or by the sender on reliable give-up).
  AnnotatedMutex inflight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<const Payload>> inflight_
      GUARDED_BY(inflight_mutex_);
  // Every add_metrics() row lives in this registry and is always on: the
  // whole point of this substrate is the measurement, and wall-clock
  // transits are nondeterministic regardless. Instruments are thread-safe.
  MetricsRegistry registry_;
  Counter& datagrams_tx_ = registry_.counter("udp.datagrams_tx");
  Counter& datagrams_rx_ = registry_.counter("udp.datagrams_rx");
  Counter& acks_tx_ = registry_.counter("udp.acks_tx");
  Counter& acks_rx_ = registry_.counter("udp.acks_rx");
  Counter& retransmits_ = registry_.counter("udp.retransmits");
  Counter& duplicates_ = registry_.counter("udp.duplicates");
  Counter& attempt_drops_ = registry_.counter("udp.attempt_drops");
  Counter& giveups_ = registry_.counter("udp.giveups");
  Counter& orphan_datagrams_ = registry_.counter("udp.orphans");
  // One-way datagram transit in wall microseconds.
  FixedHistogram& transit_hist_ = registry_.histogram(
      "udp.transit_us", FixedHistogram::log2_bounds(64.0, 4, 10));
  // First-send -> ack round trip in sim units (reliable mode only).
  FixedHistogram* rtt_hist_ = nullptr;
};

// ---------------------------------------------------------------------------
// Calibration: measured loopback delay -> DelayModel parameters

// Shifted-exponential fit of the `udp.transit_us` histogram in a harvested
// snapshot: offset = the 5th-percentile transit (the deterministic kernel
// floor), mean_extra = histogram mean above that offset. The measured
// analogue of Definition 1(1)'s expected-delay bound — feed to_delay_model
// back into a simulator cell to cross-validate against real transport.
struct UdpCalibration {
  bool ok = false;              // histogram present with nonzero samples
  std::uint64_t samples = 0;
  double offset_us = 0.0;       // fitted minimum transit (wall us)
  double mean_extra_us = 0.0;   // fitted mean above the offset (wall us)

  // The fitted model in sim units under `time_scale_us`
  // (shifted_exponential_delay, net/delay.h). ok must hold.
  DelayModelPtr to_delay_model(double time_scale_us) const;
};

UdpCalibration fit_udp_calibration(const MetricsSnapshot& snapshot);

}  // namespace abe
