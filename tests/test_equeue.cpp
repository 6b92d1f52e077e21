// Event-queue tests: the heap's unit behavior and the randomized
// differential trace that pins the scheduler's core contract — for one
// schedule/cancel/run trace, the heap-backed Scheduler executes the same
// actions at the same times in the same order as a trivially correct
// reference (tests/reference_scheduler.h: a std::map on the (time, seq)
// key applying the same cancels).
//
// The tier-1 differential here runs at n ≈ 4k live events; the n ≈ 10^5
// version (and the n = 10^4 scenario-level thread-count check) lives in
// test_equeue_stress.cpp under the `slow` label.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "reference_scheduler.h"
#include "sim/equeue/heap_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace abe {
namespace {

std::uint64_t bits_of(double t) {
  std::uint64_t b;
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

double time_of(const QueueEntry& e) {
  double t;
  std::memcpy(&t, &e.time_bits, sizeof(t));
  return t;
}

// --- HeapQueue unit behavior -----------------------------------------------

TEST(Equeue, PopsInKeyOrderWithFifoTies) {
  HeapQueue q;
  // Three distinct times, each with three FIFO-tied entries.
  std::uint64_t seq = 0;
  for (double t : {5.0, 1.0, 3.0}) {
    for (int i = 0; i < 3; ++i) {
      q.push(QueueEntry{bits_of(t), seq, static_cast<std::uint32_t>(seq)});
      ++seq;
    }
  }
  ASSERT_EQ(q.size(), 9u);
  std::uint64_t prev_seq = 0;
  double prev_t = -1.0;
  for (int i = 0; i < 9; ++i) {
    const QueueEntry e = q.pop_min();
    const double t = time_of(e);
    ASSERT_GE(t, prev_t);
    if (t == prev_t) {
      EXPECT_GT(e.seq, prev_seq) << "ties must pop FIFO";
    }
    prev_t = t;
    prev_seq = e.seq;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek_min(), nullptr);
}

TEST(Equeue, PeekMatchesPopAndEraseRemoves) {
  HeapQueue q;
  q.push(QueueEntry{bits_of(2.0), 0, 10});
  q.push(QueueEntry{bits_of(1.0), 1, 20});
  q.push(QueueEntry{bits_of(3.0), 2, 30});
  const QueueEntry* top = q.peek_min();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->slot, 20u);
  EXPECT_TRUE(q.erase_slot(20));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_min().slot, 10u);
  EXPECT_EQ(q.pop_min().slot, 30u);
}

TEST(Equeue, InfinityAndZeroTimesStayOrdered) {
  HeapQueue q;
  q.push(QueueEntry{bits_of(kTimeInfinity), 0, 0});
  q.push(QueueEntry{bits_of(0.0), 1, 1});
  q.push(QueueEntry{bits_of(1e300), 2, 2});
  q.push(QueueEntry{bits_of(kTimeInfinity), 3, 3});
  EXPECT_EQ(q.pop_min().slot, 1u);
  EXPECT_EQ(q.pop_min().slot, 2u);
  EXPECT_EQ(q.pop_min().slot, 0u);
  EXPECT_EQ(q.pop_min().slot, 3u);
}

// --- randomized differential trace -----------------------------------------

// One trace event: (time, tag) in execution order.
using Trace = std::vector<std::pair<double, int>>;

// Drives `s` (Scheduler or ReferenceScheduler) through a deterministic
// pseudo-random schedule/cancel/run trace (seeded by `seed`) and records
// every executed action. The trace covers: schedule_at/schedule_in (with
// time clusters, exact ties, lattice times, heavy tails), direct cancels,
// cancels of stale ids (already run / already cancelled), run_steps,
// run_until with request_stop fired from inside actions, and a final drain.
template <class Sched>
Trace drive(Sched& s, std::uint64_t seed, int rounds, int target_live) {
  Trace trace;
  Rng rng(seed);
  std::vector<EventId> handles;   // mix of live and stale handles
  std::vector<EventId> retired;   // known-stale (cancelled or likely run)
  int tag = 0;

  const auto schedule_one = [&] {
    const double r = rng.uniform01();
    double t;
    if (r < 0.35) {
      t = s.now() + rng.exponential(1.0);
    } else if (r < 0.5) {
      t = s.now() + rng.uniform01() * 100.0;
    } else if (r < 0.6) {
      t = s.now();  // simultaneous with the current instant
    } else if (r < 0.7) {
      t = s.now() + 10.0 + rng.uniform01() * 1e-7;  // tight cluster
    } else if (r < 0.8) {
      t = s.now() + static_cast<double>(1 + rng.uniform_int(5));  // lattice
    } else if (r < 0.9) {
      t = s.now() + rng.exponential(1.0) * 1000.0;  // far tail
    } else {
      t = s.now() + 0.25 * static_cast<double>(rng.uniform_int(4));
    }
    const int this_tag = tag++;
    const bool stopper = rng.bernoulli(0.02);
    handles.push_back(s.schedule_at(t, [&trace, &s, this_tag, stopper] {
      trace.emplace_back(s.now(), this_tag);
      if (stopper) s.request_stop();
    }));
  };

  for (int round = 0; round < rounds; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_int(
                              static_cast<std::size_t>(target_live / 8)));
    for (int i = 0; i < burst && s.live_count() <
                                     static_cast<std::uint64_t>(target_live);
         ++i) {
      schedule_one();
    }
    // Cancels: a mix of live, already-cancelled and already-run handles.
    const int cancels = static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      const std::size_t pick = rng.uniform_int(handles.size());
      if (s.cancel(handles[pick])) {
        retired.push_back(handles[pick]);
      }
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!retired.empty() && rng.bernoulli(0.5)) {
      // Stale-handle cancels must be rejected (and must not disturb state).
      const std::size_t pick = rng.uniform_int(retired.size());
      EXPECT_FALSE(s.cancel(retired[pick]));
    }
    // Run: steps or a deadline window (which exercises peek-then-pop and
    // the request_stop/run_until interleaving semantics).
    if (rng.bernoulli(0.5)) {
      s.run_steps(1 + rng.uniform_int(16));
    } else {
      s.run_until(s.now() + rng.uniform01() * 10.0);
    }
  }
  s.run();  // drain
  return trace;
}

// The two implementations compared are the heap-backed Scheduler and the
// ordered-map reference.
TEST(EqueueDifferential, IdenticalTraceAcrossAllBackends) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    ReferenceScheduler reference_scheduler;
    const Trace reference = drive(reference_scheduler, seed, /*rounds=*/300,
                                  /*target_live=*/4096);
    ASSERT_FALSE(reference.empty());
    // Times must be nondecreasing (sanity of the reference itself).
    for (std::size_t i = 1; i < reference.size(); ++i) {
      ASSERT_GE(reference[i].first, reference[i - 1].first);
    }
    Scheduler heap;
    const Trace got = drive(heap, seed, 300, 4096);
    ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
    EXPECT_TRUE(got == reference)
        << "seed " << seed << ": pop sequence diverged from the reference";
  }
}

}  // namespace
}  // namespace abe
