#include "des/simulator.hpp"

#include "util/error.hpp"

namespace spacecdn::des {

EventId Simulator::schedule(Milliseconds delay, Action action) {
  SPACECDN_EXPECT(delay.value() >= 0.0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(Milliseconds when, Action action) {
  SPACECDN_EXPECT(when >= now_, "cannot schedule an event in the past");
  SPACECDN_EXPECT(static_cast<bool>(action), "event action must be callable");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.live = true;
  const EventId id = (static_cast<EventId>(s.generation) << 32) | slot;
  queue_.push(Entry{when, next_seq_++, id});
  ++live_events_;
  return id;
}

Simulator::Slot* Simulator::live_slot(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation_of(id)) return nullptr;
  return &s;
}

Simulator::Action Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Action action = std::move(s.action);
  s.action = nullptr;
  s.live = false;
  ++s.generation;  // stale ids (cancel after fire) now miss
  free_slots_.push_back(slot);
  --live_events_;
  return action;
}

bool Simulator::cancel(EventId id) {
  if (live_slot(id) == nullptr) return false;
  (void)release(slot_of(id));
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Milliseconds until) {
  SPACECDN_EXPECT(until >= now_, "run_until target must not be in the past");
  while (!queue_.empty() && queue_.top().when <= until) {
    const Entry entry = queue_.top();
    queue_.pop();
    dispatch(entry);
  }
  now_ = until;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    if (live_slot(entry.id) == nullptr) continue;  // cancelled
    dispatch(entry);
    return true;
  }
  return false;
}

void Simulator::dispatch(const Entry& entry) {
  if (live_slot(entry.id) == nullptr) return;  // cancelled after being popped
  // Move the action out (recycling the slot) before invoking, so the action
  // may freely schedule or cancel events without touching a live slot.
  Action action = release(slot_of(entry.id));
  now_ = entry.when;
  ++processed_;
  action();
}

}  // namespace spacecdn::des
