// Discrete-event simulation core.
//
// A minimal but complete event-driven engine: a monotonic clock, a stable
// priority queue of (time, sequence, action) and run-until semantics.  All
// higher-level simulations (speed-test campaigns, web page fetches, striped
// video sessions, duty-cycle slots) are expressed as events on this engine.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace spacecdn::des {

/// Handle that identifies a scheduled event and allows cancellation.
using EventId = std::uint64_t;

/// Event-driven simulator with a millisecond-resolution double clock.
///
/// Events scheduled for the same instant fire in scheduling order (stable).
/// Actions may schedule further events; time never moves backwards.
class Simulator {
 public:
  /// Small-buffer-optimised: typical load-engine captures live inside the
  /// event slot itself, so steady-state scheduling never heap-allocates.
  using Action = InlineFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Milliseconds now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_events_; }
  [[nodiscard]] std::uint64_t processed_events() const noexcept { return processed_; }

  /// Schedules `action` to run `delay` from now.
  /// @throws spacecdn::ConfigError if delay is negative.
  EventId schedule(Milliseconds delay, Action action);

  /// Schedules `action` at an absolute time >= now().
  EventId schedule_at(Milliseconds when, Action action);

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled.
  bool cancel(EventId id);

  /// Runs events until the queue drains.
  void run();

  /// Runs events with timestamp <= `until`, then sets the clock to `until`.
  void run_until(Milliseconds until);

  /// Runs exactly one event if any is pending; returns whether one ran.
  bool step();

 private:
  struct Entry {
    Milliseconds when;
    std::uint64_t seq;
    EventId id;
    // Ordering for the min-heap: earliest time first, FIFO within a time.
    bool operator>(const Entry& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // Actions live in a pooled slot array instead of a hash map: an EventId is
  // (generation << 32) | slot, so schedule/cancel/dispatch are array indexing
  // with zero hashing, and fired slots are recycled through a free list.  The
  // generation counter makes a recycled slot's old id stale, so cancel() of
  // an already-fired event stays a correct O(1) "false".  Open-loop load
  // sweeps push millions of events through here; the pool is what keeps the
  // engine allocation-free at steady state.
  struct Slot {
    Action action;
    std::uint32_t generation = 1;
    bool live = false;
  };

  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// The slot behind `id`, or nullptr when the event already fired or was
  /// cancelled (stale generation).
  [[nodiscard]] Slot* live_slot(EventId id);

  /// Returns the slot's action and recycles it onto the free list.
  Action release(std::uint32_t slot);

  void dispatch(const Entry& entry);

  Milliseconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_events_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace spacecdn::des
