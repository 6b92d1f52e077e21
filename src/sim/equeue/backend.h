// A fixed stand-in for the event-queue selector the scheduler used to take.
//
// The scheduler has one event queue, the 4-ary heap in heap_queue.h, so
// there is nothing to select. This header exists only because the
// end-to-end benchmark driver (e2ebench/driver.cpp) is built from frozen
// source that still names EqueueBackend::kAuto, ScenarioSpec::equeue,
// equeue_backend_name and resolve_equeue_backend. Nothing in src/ reads
// them; the header goes when the benchmark driver next changes.
#pragma once

namespace abe {

enum class EqueueBackend : unsigned char { kAuto };

inline const char* equeue_backend_name(EqueueBackend /*backend*/) {
  return "heap";
}

inline EqueueBackend resolve_equeue_backend(EqueueBackend requested) {
  return requested;
}

}  // namespace abe
