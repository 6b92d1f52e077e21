// Tests for the real-socket runtime (runtime/udp_transport.h): the UdpSocket
// wrapper, datagram elections through the scenario driver stack, the ARQ
// reliable layer under injected per-attempt loss (exactly-once delivery),
// the measured-transit histogram, and the measured-delay -> DelayModel
// calibration path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/delay.h"
#include "net/message.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "runtime/threaded_runtime.h"
#include "runtime/udp_transport.h"
#include "runtime/udp_socket.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/rng.h"

namespace abe {
namespace {

// ---------------------------------------------------------------------
// UdpSocket wrapper

TEST(UdpSocket, RoundTripsOneDatagram) {
  UdpSocket tx;
  UdpSocket rx;
  ASSERT_NE(rx.port(), 0);
  const char ping[] = "ping";
  ASSERT_TRUE(tx.send_to(rx.port(), ping, sizeof(ping)));
  char buffer[64] = {};
  int got = 0;
  // Loopback delivery is fast but asynchronous; each receive() polls one
  // kernel timeout interval.
  for (int attempt = 0; attempt < 100 && got == 0; ++attempt) {
    got = rx.receive(buffer, sizeof(buffer));
  }
  ASSERT_EQ(got, static_cast<int>(sizeof(ping)));
  EXPECT_STREQ(buffer, "ping");
}

TEST(UdpSocket, ReceiveOnEmptySocketReturnsZeroPromptly) {
  UdpSocket idle;
  char buffer[8];
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(idle.receive(buffer, sizeof(buffer)), 0);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // One poll interval plus scheduling slack, not a hang.
  EXPECT_LT(waited.count(), 10 * UdpSocket::kPollIntervalMs);
}

// ---------------------------------------------------------------------
// End-to-end elections over real datagrams (scenario driver stack)

ScenarioSpec udp_ring_spec(std::size_t n) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
  spec.runtime = RuntimeKind::kUdp;
  spec.settle_time = 5.0;
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;
  return spec;
}

TEST(UdpNet, ElectsExactlyOneLeaderOverRealDatagrams) {
  ScenarioSpec spec = udp_ring_spec(8);
  ASSERT_EQ(runtime_cell_problem(spec), "");
  const TrialOutcome trial = run_scenario_trial(spec, /*seed=*/1);
  ASSERT_TRUE(trial.completed);
  EXPECT_TRUE(trial.safety_ok) << trial.safety_detail;
  EXPECT_GE(trial.messages, 7u);
}

TEST(UdpNet, LossyCellCompletesUnderArq) {
  ScenarioSpec spec = udp_ring_spec(8);
  spec.failure = FailureProfile::loss(0.1);
  spec.udp_reliable = true;
  ASSERT_EQ(runtime_cell_problem(spec), "");
  const TrialOutcome trial = run_scenario_trial(spec, /*seed=*/2);
  ASSERT_TRUE(trial.completed)
      << "ARQ must mask 10% per-attempt loss on loopback";
  EXPECT_TRUE(trial.safety_ok) << trial.safety_detail;
}

// ---------------------------------------------------------------------
// ARQ over real injected loss: every message delivered exactly once

// Sends `count` messages down edge 0 from on_start, then idles terminated.
class Burster final : public Node {
 public:
  explicit Burster(std::uint64_t count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (std::uint64_t i = 0; i < count_; ++i) {
      ctx.send(0, std::make_unique<IntPayload>(static_cast<std::int64_t>(i)));
    }
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  bool is_terminated() const override { return true; }

 private:
  std::uint64_t count_;
};

// Counts deliveries; exactly-once is checked against this tally.
class CountingSink final : public Node {
 public:
  void on_message(Context&, std::size_t, const Payload&) override {
    ++received_;
  }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

TEST(UdpNet, ArqOverRealLossDeliversExactlyOnce) {
  constexpr std::uint64_t kMessages = 300;
  RuntimeConfig config;
  config.topology = unidirectional_ring(2);
  config.delay = fixed_delay(0.05);
  config.time_scale_us = 100.0;
  config.loss_probability = 0.3;  // drawn per ATTEMPT, masked by ARQ
  config.udp_reliable = true;
  config.seed = 3;  // pinned: the attempt-loss coin sequence is replayable
  ThreadedRuntime net(RuntimeKind::kUdp, std::move(config));
  net.build_nodes([&](std::size_t i) -> NodePtr {
    if (i == 0) return std::make_unique<Burster>(kMessages);
    return std::make_unique<CountingSink>();
  });
  net.start();
  // Quiescence on the reliable channel means: every message ACKed AND
  // handled — an unACKed message keeps sent > done, so this wait is the
  // delivery guarantee's enforcement point.
  ASSERT_TRUE(net.wait_quiescent(std::chrono::milliseconds(30000)));
  net.stop();

  EXPECT_EQ(net.messages_sent(), kMessages);
  EXPECT_EQ(net.messages_delivered(), kMessages) << "every message, despite "
                                                 << "30% per-attempt loss";
  EXPECT_EQ(net.messages_dropped(), 0u) << "no give-ups expected";
  const auto& sink = static_cast<const CountingSink&>(net.node(1));
  EXPECT_EQ(sink.received(), kMessages) << "exactly once at the algorithm";

  // ~30% of first attempts were suppressed, so the ARQ layer must have
  // actually retransmitted — this is what distinguishes the test from a
  // lossless run.
  const MetricsSnapshot snapshot = net.metrics_snapshot();
  double retransmits = -1.0;
  double attempt_drops = -1.0;
  for (const MetricValue& entry : snapshot.entries()) {
    if (entry.name == "udp.retransmits") retransmits = entry.value;
    if (entry.name == "udp.attempt_drops") attempt_drops = entry.value;
  }
  EXPECT_GT(attempt_drops, 0.0);
  EXPECT_GT(retransmits, 0.0);
}

// stop() wakes every reader out of its receive() poll, so shutting an idle
// udp runtime down costs thread joins, not a poll interval. The readers are
// ~2 ms into their first poll when stop() runs: a stop that waited the poll
// out would take ~18 ms, against a bound of half the interval.
TEST(UdpNet, StopOfIdleRuntimeDoesNotWaitOutThePollInterval) {
  std::vector<double> stop_ms;
  for (int rep = 0; rep < 5; ++rep) {
    RuntimeConfig config;
    config.topology = unidirectional_ring(8);
    config.delay = fixed_delay(1.0);
    ThreadedRuntime net(RuntimeKind::kUdp, std::move(config));
    net.build_nodes(
        [](std::size_t) -> NodePtr { return std::make_unique<CountingSink>(); });
    net.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto t0 = std::chrono::steady_clock::now();
    net.stop();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[stop_ms.size() / 2], UdpSocket::kPollIntervalMs / 2.0)
      << "median stop() of an idle udp runtime, ms (min " << stop_ms.front()
      << ", max " << stop_ms.back() << ")";
}

// ---------------------------------------------------------------------
// Measured transit + calibration

TEST(UdpNet, TransitHistogramMeasuresRealDelays) {
  ScenarioSpec spec = udp_ring_spec(6);
  const TrialOutcome trial = run_scenario_trial(spec, /*seed=*/5);
  ASSERT_TRUE(trial.completed);
  ASSERT_TRUE(trial.has_metrics);
  std::uint64_t samples = 0;
  bool found = false;
  for (const MetricValue& entry : trial.metrics.entries()) {
    if (entry.name != "udp.transit_us") continue;
    found = true;
    ASSERT_EQ(entry.kind, MetricKind::kHistogram);
    for (const std::uint64_t bucket : entry.buckets) samples += bucket;
  }
  ASSERT_TRUE(found) << "udp cells must harvest the measured-delay histogram";
  EXPECT_GT(samples, 0u) << "every delivered datagram records its transit";
}

TEST(UdpCalibrationFit, FitsMeasuredTransitIntoDelayModel) {
  ScenarioSpec spec = udp_ring_spec(6);
  const TrialOutcome trial = run_scenario_trial(spec, /*seed=*/6);
  ASSERT_TRUE(trial.completed);
  ASSERT_TRUE(trial.has_metrics);

  const UdpCalibration cal = fit_udp_calibration(trial.metrics);
  ASSERT_TRUE(cal.ok);
  EXPECT_GT(cal.samples, 0u);
  EXPECT_GE(cal.offset_us, 0.0);
  EXPECT_GE(cal.mean_extra_us, 0.0);

  // The fitted model must be a usable simulator delay source: nonnegative
  // samples at or above the fitted floor (in sim units at this scale).
  const double scale = 100.0;
  const DelayModelPtr model = cal.to_delay_model(scale);
  ASSERT_NE(model, nullptr);
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    const double d = model->sample(rng);
    EXPECT_GE(d, cal.offset_us / scale - 1e-12);
  }
}

TEST(UdpCalibrationFit, EmptySnapshotIsNotOk) {
  const UdpCalibration cal = fit_udp_calibration(MetricsSnapshot{});
  EXPECT_FALSE(cal.ok);
  EXPECT_EQ(cal.samples, 0u);
}

// ---------------------------------------------------------------------
// Structural gates

TEST(UdpNet, OverSocketBudgetCellIsRejectedStructurally) {
  ScenarioSpec spec = udp_ring_spec(kMaxUdpRuntimeNodes + 1);
  const std::string problem = runtime_cell_problem(spec);
  ASSERT_NE(problem, "");
  EXPECT_NE(problem.find("socket"), std::string::npos) << problem;
  // Same size is fine on the thread runtime (bigger budget, no sockets).
  spec.runtime = RuntimeKind::kThread;
  EXPECT_EQ(runtime_cell_problem(spec), "");
}

TEST(UdpNet, PiecewiseDriftRejected) {
  RuntimeConfig config;
  config.topology = unidirectional_ring(3);
  config.drift = DriftModel::kPiecewiseRandom;
  EXPECT_DEATH(ThreadedRuntime net(RuntimeKind::kUdp, std::move(config)),
               "udp runtime");
}

TEST(UdpNet, ArqSuffixAppearsOnlyOnReliableUdpCells) {
  ScenarioSpec spec = udp_ring_spec(8);
  const std::string plain = spec.cell_id();
  EXPECT_NE(plain.find("/rt-udp"), std::string::npos);
  EXPECT_EQ(plain.find("/arq"), std::string::npos);
  spec.udp_reliable = true;
  EXPECT_NE(spec.cell_id().find("/rt-udp/arq"), std::string::npos);
  // The flag is a udp-realisation knob: other substrates ignore it.
  spec.runtime = RuntimeKind::kSim;
  EXPECT_EQ(spec.cell_id().find("/arq"), std::string::npos);
}

}  // namespace
}  // namespace abe
