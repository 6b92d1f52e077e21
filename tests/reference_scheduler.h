// A trivially correct reference for the scheduler's event order, used by
// the differential tests in test_equeue.cpp and test_equeue_stress.cpp.
//
// Pending events live in a std::map keyed on (time, seq): the standard
// library's ordered tree does the ordering, so there is no heap, no slot
// reuse and no generation counting to get wrong. It mirrors Scheduler's
// observable contract — FIFO among equal times, cancel returning false for
// events that already ran or were cancelled, run/run_steps/run_until with
// request_stop — so one schedule/cancel/run trace driven through both must
// execute the same actions at the same times in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "sim/time.h"
#include "util/check.h"
#include "util/ids.h"

namespace abe {

class ReferenceScheduler {
 public:
  SimTime now() const { return now_; }
  std::uint64_t live_count() const { return pending_.size(); }
  void request_stop() { stop_requested_ = true; }

  // Handles are the insertion sequence number, never reused.
  EventId schedule_at(SimTime when, std::function<void()> action) {
    ABE_CHECK_GE(when, now_);
    const std::uint64_t seq = next_seq_++;
    pending_.emplace(Key{when, seq}, std::move(action));
    time_of_[seq] = when;
    return EventId{static_cast<std::int64_t>(seq)};
  }

  EventId schedule_in(SimTime delay, std::function<void()> action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(EventId id) {
    const auto seq = static_cast<std::uint64_t>(id.value());
    const auto it = time_of_.find(seq);
    if (it == time_of_.end()) return false;  // ran, cancelled or never was
    pending_.erase(Key{it->second, seq});
    time_of_.erase(it);
    return true;
  }

  std::uint64_t run() {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!stop_requested_ && !pending_.empty()) {
      run_top();
      ++n;
    }
    return n;
  }

  std::uint64_t run_steps(std::uint64_t max_events) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (n < max_events && !stop_requested_ && !pending_.empty()) {
      run_top();
      ++n;
    }
    return n;
  }

  std::uint64_t run_until(SimTime deadline) {
    stop_requested_ = false;
    std::uint64_t n = 0;
    while (!stop_requested_ && !pending_.empty() &&
           pending_.begin()->first.first <= deadline) {
      run_top();
      ++n;
    }
    const SimTime next =
        pending_.empty() ? kTimeInfinity : pending_.begin()->first.first;
    if (now_ < deadline && next > deadline) now_ = deadline;
    return n;
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;

  void run_top() {
    const auto top = pending_.begin();
    now_ = top->first.first;
    time_of_.erase(top->first.second);
    std::function<void()> action = std::move(top->second);
    pending_.erase(top);
    action();
  }

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  std::map<Key, std::function<void()>> pending_;
  std::map<std::uint64_t, SimTime> time_of_;  // seq -> time, pending only
};

}  // namespace abe
