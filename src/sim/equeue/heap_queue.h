// The scheduler's priority structure: a 4-ary min-heap over
// (time-bits, seq, slot) entries.
//
// The scheduler owns the event *records* (slab of actions, generation
// counts, EventId encoding — see sim/scheduler.h); the heap owns only the
// ordering, so it is correct iff it pops entries in strict key order and
// can remove an entry by its slot index.
//
// Key encoding: `time_bits` is the IEEE-754 bit pattern of a non-negative
// SimTime (canonicalized by the scheduler so -0.0 never reaches the heap),
// which orders identically to the double value. `seq` values are unique, so
// the packed (time_bits, seq) key is a strict total order: FIFO among
// simultaneous events, and one pop sequence per schedule/cancel trace.
//
// O(log n) push/pop/erase with a per-slot heap-position index so cancel
// removes its entry directly — no lazy-deletion tombstones accumulate under
// schedule/cancel churn. The 4-ary layout trades a slightly worse
// comparison count for a much better cache profile than the binary heap,
// and the pop path walks the min-child chain to a leaf before bubbling up
// (see sift_down_from_root).
//
// Methods are defined inline in this header on purpose: pop/push/cancel
// inline into the scheduler's run loops.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace abe {

struct QueueEntry {
  std::uint64_t time_bits = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

// Strict total order on the packed (time_bits, seq) key.
inline bool entry_earlier(const QueueEntry& a, const QueueEntry& b) {
#if defined(__SIZEOF_INT128__)
  using U128 = unsigned __int128;
  return ((U128(a.time_bits) << 64) | a.seq) <
         ((U128(b.time_bits) << 64) | b.seq);
#else
  if (a.time_bits != b.time_bits) return a.time_bits < b.time_bits;
  return a.seq < b.seq;  // FIFO among simultaneous events
#endif
}

class HeapQueue {
 public:
  // Inserts an entry. Slots are unique among live entries.
  void push(const QueueEntry& entry) {
    const auto pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(entry);
    pos_of(entry.slot) = pos;
    place_up(entry, pos);
  }

  // Minimum-key entry, or nullptr when empty. Valid until the next
  // mutation.
  const QueueEntry* peek_min() const {
    return heap_.empty() ? nullptr : &heap_[0];
  }

  // Removes and returns the minimum-key entry. Pre: !empty().
  QueueEntry pop_min() {
    ABE_CHECK(!heap_.empty());
    // pos_[top.slot] is left stale: erase_slot is only called for live
    // slots (see below), so nobody reads it again before the slot's next
    // push overwrites it.
    const QueueEntry top = heap_[0];
    const auto last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (last != 0) {
      heap_[0] = heap_[last];
      pos_[heap_[0].slot] = 0;
      heap_.pop_back();
      sift_down_from_root();
    } else {
      heap_.pop_back();
    }
    return top;
  }

  // Removes the entry whose slot is `slot` (cancellation). Pre: a live
  // entry carries `slot` — the scheduler's slab checks liveness and
  // generation first, which lets pop_min leave per-slot positions stale
  // instead of paying a random write to clear them. Returns false only
  // when the slot was never pushed or was already erased (a debugging aid,
  // not a contract).
  bool erase_slot(std::uint32_t slot) {
    if (slot >= pos_.size() || pos_[slot] == kNullPos) return false;
    heap_erase(pos_[slot]);
    pos_[slot] = kNullPos;
    return true;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kNullPos = 0xffffffffu;

  std::uint32_t& pos_of(std::uint32_t slot) {
    if (slot >= pos_.size()) pos_.resize(slot + 1, kNullPos);
    return pos_[slot];
  }

  // Places `e` at heap position `pos`, bubbling it rootward as needed —
  // the single implementation behind sift_up and the pop path.
  void place_up(QueueEntry e, std::uint32_t pos) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) >> 2;
      if (!entry_earlier(e, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos_[heap_[pos].slot] = pos;
      pos = parent;
    }
    heap_[pos] = e;
    pos_[e.slot] = pos;
  }

  void sift_down(std::uint32_t pos) {
    const QueueEntry e = heap_[pos];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first = pos * 4 + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (entry_earlier(heap_[c], heap_[best])) best = c;
      }
      if (!entry_earlier(heap_[best], e)) break;
      heap_[pos] = heap_[best];
      pos_[heap_[pos].slot] = pos;
      pos = best;
    }
    heap_[pos] = e;
    pos_[e.slot] = pos;
  }

  // Leafward sift specialised for the pop path: the root hole is walked
  // down the min-child chain to a leaf (3 comparisons per level, none
  // against the moved entry), then the displaced last entry bubbles up
  // from there — beats the textbook sift_down, which pays a fourth
  // comparison per level just to discover "keep sinking".
  void sift_down_from_root() {
    const QueueEntry e = heap_[0];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    std::uint32_t pos = 0;
    for (;;) {
      const std::uint32_t first = pos * 4 + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (entry_earlier(heap_[c], heap_[best])) best = c;
      }
      heap_[pos] = heap_[best];
      pos_[heap_[pos].slot] = pos;
      pos = best;
    }
    // e lands at the leaf hole; bubble it back up to its true position
    // (place_up directly — writing e into the hole just to re-read it
    // would cost a measurable fraction of the pop on this path).
    place_up(e, pos);
  }

  void heap_erase(std::uint32_t pos) {
    const auto last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      pos_[heap_[pos].slot] = pos;
      heap_.pop_back();
      // The moved-in entry may violate the heap property either way.
      if (pos > 0 && entry_earlier(heap_[pos], heap_[(pos - 1) >> 2])) {
        place_up(heap_[pos], pos);
      } else {
        sift_down(pos);
      }
    } else {
      heap_.pop_back();
    }
  }

  std::vector<QueueEntry> heap_;
  std::vector<std::uint32_t> pos_;  // slot -> heap position (kNullPos: none)
};

}  // namespace abe
