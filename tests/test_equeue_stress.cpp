// Slow-label event-queue stress: the heap-vs-reference differential
// contract (tests/reference_scheduler.h) at n ≈ 10^5 live events with
// heavy-tailed Erlang/exponential delay mixes, plus the scenario-level
// check — the registered scale-sweep torus cell at n = 10^4, whose
// aggregates must be bit-identical across trial-thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reference_scheduler.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace abe {
namespace {

// Erlang(k) / exponential / Lomax-ish mixture: most mass near now() with a
// genuinely heavy tail, so the pending set spans many orders of magnitude
// in time.
double heavy_mix_delay(Rng& rng) {
  const double r = rng.uniform01();
  if (r < 0.5) return rng.exponential(1.0);
  if (r < 0.8) {
    double sum = 0.0;  // Erlang(4)
    for (int i = 0; i < 4; ++i) sum += rng.exponential(0.25);
    return sum;
  }
  // Pareto/Lomax-ish tail via inverse transform.
  return 0.1 * (std::pow(1.0 - rng.uniform01() * 0.999, -0.75) - 1.0);
}

using Trace = std::vector<double>;

template <class Sched>
Trace drive_hold(Sched& s, std::uint64_t seed, std::size_t live,
                 std::uint64_t events) {
  Trace times;
  times.reserve(events);
  Rng rng(seed);
  struct Hold {
    Sched* s;
    Rng* rng;
    Trace* times;
    void operator()() const {
      times->push_back(s->now());
      s->schedule_in(heavy_mix_delay(*rng), *this);
    }
  };
  for (std::size_t i = 0; i < live; ++i) {
    s.schedule_in(heavy_mix_delay(rng), Hold{&s, &rng, &times});
  }
  s.run_steps(events);
  return times;
}

TEST(EqueueStress, HoldAt100kLiveBitIdenticalAcrossBackends) {
  constexpr std::size_t kLive = 100000;
  constexpr std::uint64_t kEvents = 400000;
  ReferenceScheduler reference_scheduler;
  const Trace reference = drive_hold(reference_scheduler, 11, kLive, kEvents);
  ASSERT_EQ(reference.size(), kEvents);
  Scheduler heap;
  const Trace got = drive_hold(heap, 11, kLive, kEvents);
  ASSERT_EQ(got.size(), reference.size());
  EXPECT_TRUE(got == reference) << "heap pop times diverged from the reference";
}

// Cancel-heavy mix at scale: ARQ-style schedule/cancel churn layered over a
// large pending set, driven identically through the heap and the reference.
TEST(EqueueStress, ChurnAt100kLiveBitIdenticalAcrossBackends) {
  constexpr std::size_t kLive = 100000;
  const auto drive = [](auto& s) {
    Trace times;
    Rng rng(29);
    std::vector<EventId> timers;
    for (std::size_t i = 0; i < kLive; ++i) {
      s.schedule_in(heavy_mix_delay(rng), [&times, &s] {
        times.push_back(s.now());
      });
    }
    for (int round = 0; round < 60000; ++round) {
      const EventId id =
          s.schedule_in(10.0 + rng.uniform01(), [&times, &s] {
            times.push_back(s.now());
          });
      if (rng.bernoulli(0.9)) {
        EXPECT_TRUE(s.cancel(id));
      } else {
        timers.push_back(id);
      }
      if (rng.bernoulli(0.2)) s.run_steps(1 + rng.uniform_int(4));
      if (!timers.empty() && rng.bernoulli(0.1)) {
        const std::size_t pick = rng.uniform_int(timers.size());
        s.cancel(timers[pick]);
        timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    s.run_until(s.now() + 5.0);
    return times;
  };
  ReferenceScheduler reference_scheduler;
  const Trace reference = drive(reference_scheduler);
  Scheduler heap;
  EXPECT_TRUE(drive(heap) == reference);
}

// The registered scale-sweep torus cell at n = 10^4: aggregates
// bit-identical across trial-thread counts (the seed-chunked trial pool
// must not reorder the merge).
TEST(EqueueStress, ScaleSweepTorusCellBitIdenticalAcrossBackendsAndThreads) {
  const ScenarioMatrix* scale = find_sweep("scale");
  ASSERT_NE(scale, nullptr);
  const std::vector<ScenarioSpec> cells = scale->expand();
  const ScenarioSpec* small = nullptr;
  for (const ScenarioSpec& cell : cells) {
    if (cell.topology.n == 10000) small = &cell;
  }
  ASSERT_NE(small, nullptr) << "the scale sweep has an n = 10^4 cell";

  constexpr std::uint64_t kTrials = 2;
  const ScenarioAggregate reference =
      run_scenario_trials(*small, kTrials, /*seed_base=*/1, /*threads=*/1);
  EXPECT_EQ(reference.trials, kTrials);
  EXPECT_EQ(reference.failures, 0u);
  EXPECT_EQ(reference.safety_violations, 0u);
  const ScenarioAggregate agg =
      run_scenario_trials(*small, kTrials, 1, /*threads=*/3);
  EXPECT_TRUE(agg.messages == reference.messages);
  EXPECT_TRUE(agg.time == reference.time);
  EXPECT_EQ(agg.failures, reference.failures);
  EXPECT_EQ(agg.safety_violations, reference.safety_violations);
}

}  // namespace
}  // namespace abe
