// Minimal discrete-event core for the subsystem simulator: a
// time-ordered queue of callbacks with a monotonic clock. Events at
// equal timestamps fire in scheduling order (stable sequence
// numbers), which keeps request/completion chains deterministic.
//
// The events sit in a binary min-heap on a plain vector ordered by
// (when, sequence); the key is unique, so the firing order is fixed
// whatever the heap layout. step() moves the callback out of the heap
// instead of copying it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/units.hpp"

namespace xlf::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  Seconds now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  // Time of the earliest pending event (requires !empty()). With
  // advance_to() this lets a caller interleave its own time-ordered
  // stream (the SSD simulator's arrival cursor) with the queue: it
  // handles its next item itself once that item is due no later than
  // next_time(), so at equal instants its items go first.
  Seconds next_time() const;
  // Move the clock forward to `when` without running anything;
  // `when` must be >= now() and no later than next_time().
  void advance_to(Seconds when);

  // Schedule `fn` at absolute time `when` (>= now).
  void schedule_at(Seconds when, Callback fn);
  // Schedule `fn` after a delay.
  void schedule_in(Seconds delay, Callback fn);

  // Drop every pending event without running it — the power-loss
  // path: a killed simulation must not fire callbacks scheduled by
  // the pre-crash timeline. The clock stays where it stopped.
  void clear() { heap_.clear(); }

  // Run the next event; returns false when the queue is empty.
  bool step();
  // Run everything (or until `limit` events, as a runaway guard).
  std::size_t run(std::size_t limit = 100000000);
  // Run until the clock passes `until` (events beyond stay queued).
  std::size_t run_until(Seconds until);

 private:
  struct Event {
    double when;
    std::uint64_t sequence;
    Callback fn;
  };
  // Heap comparator: "a fires after b", so the heap front is the
  // earliest (when, sequence).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  Seconds now_{0.0};
  std::uint64_t next_sequence_ = 0;
  std::vector<Event> heap_;
};

}  // namespace xlf::sim
