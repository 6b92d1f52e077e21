#include "sim/scheduler.h"

#include <utility>

#include "util/check.h"

namespace abe {

EventId Scheduler::schedule_at(SimTime when, Action action) {
  ABE_CHECK_GE(when, now_);
  ABE_CHECK(static_cast<bool>(action)) << "scheduled action must be callable";
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    ABE_CHECK_LT(slots_.size(), static_cast<std::size_t>(kMaxSlot));
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.live = true;
  queue_.push(QueueEntry{time_to_bits(when), next_seq_, slot});
  ++next_seq_;
  ++scheduled_;
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
  return EventId{encode(slot, s.gen)};
}

EventId Scheduler::schedule_in(SimTime delay, Action action) {
  ABE_CHECK_GE(delay, 0.0);
  return schedule_at(now_ + delay, std::move(action));
}

EventId Scheduler::peek_next_id() const {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    return EventId{encode(slot, slots_[slot].gen)};
  }
  return EventId{encode(static_cast<std::uint32_t>(slots_.size()), 0)};
}

bool Scheduler::cancel(EventId id) {
  const std::int64_t v = id.value();
  if (v < 0) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(v) & 0xffffffffu);
  const std::uint32_t gen =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // !live: the event already ran or was cancelled and the slot is free.
  // Generation mismatch: the slot was reused by a newer event — this
  // handle's event is long gone; never touch the new occupant.
  if (!s.live || (s.gen & kGenMask) != gen) return false;
  ABE_CHECK(queue_.erase_slot(slot)) << "live slot missing from the queue";
  release_slot(slot);
  ++cancelled_;
  return true;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  s.live = false;
  ++s.gen;  // invalidates every outstanding EventId for this slot
  // Generations are encoded in 31 bits; rather than let a slot's counter
  // wrap (after 2^31 reuses a sufficiently stale handle could alias a live
  // event), retire the slot permanently once the encoding saturates. Costs
  // one ~64-byte record per 2^31 events through a slot — nothing.
  if (s.gen < kGenMask) free_.push_back(slot);
}

void Scheduler::run_top() {
  const QueueEntry top = queue_.pop_min();
  const SimTime when = bits_to_time(top.time_bits);
  ABE_CHECK_GE(when, now_);
  now_ = when;
  // Move the action out and retire the record *before* invoking: the action
  // may schedule new events, growing the slab under our feet.
  Action action = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  action.invoke_and_reset();
  ++processed_;
}

std::uint64_t Scheduler::run() {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && !queue_.empty()) {
    run_top();
    ++n;
  }
  return n;
}

std::uint64_t Scheduler::run_until(SimTime deadline) {
  ABE_CHECK_GE(deadline, now_);
  const std::uint64_t deadline_bits = time_to_bits(deadline);
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_) {
    const QueueEntry* top = queue_.peek_min();
    if (top == nullptr || top->time_bits > deadline_bits) break;
    run_top();
    ++n;
  }
  // Fast-forward to the deadline only when no live event remains at or
  // before it. When request_stop() fired with such events still pending,
  // advancing would strand them in the past and abort the next run() on
  // its e.when >= now_ invariant.
  if (now_ < deadline && next_event_time() > deadline) now_ = deadline;
  return n;
}

std::uint64_t Scheduler::run_steps(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (n < max_events && !stop_requested_ && !queue_.empty()) {
    run_top();
    ++n;
  }
  return n;
}

}  // namespace abe
