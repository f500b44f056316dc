#include "sim/simulator.h"

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/check.h"

namespace h3cdn::sim {

namespace {

constexpr std::uint32_t kSlotMask32 = 0xffffffffu;

constexpr EventId make_event_id(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

EventId Simulator::schedule_at(TimePoint at, EventFn fn) {
  H3CDN_EXPECTS(at >= now_);
  H3CDN_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    fns_.push_back(std::move(fn));
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot});
  return make_event_id(meta_[slot].gen, slot);
}

EventId Simulator::schedule_in(Duration delay, EventFn fn) {
  H3CDN_EXPECTS(delay >= Duration::zero());
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint32_t Simulator::pending_slot(EventId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= meta_.size() || meta_[slot].gen != gen || meta_[slot].pos == kNotQueued) {
    return kNotQueued;  // fired, cancelled, recycled, or unknown
  }
  return slot;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNotQueued) return false;
  remove_at(meta_[slot].pos);
  // Move the callback out before destroying it: its captures' destructors
  // may re-enter the simulator (cancel or schedule), which must then see a
  // consistent heap and a recycled slot.
  EventFn dead = std::move(fns_[slot]);
  release_slot(slot);
  return true;
}

bool Simulator::reschedule(EventId id, TimePoint at) {
  H3CDN_EXPECTS(at >= now_);
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNotQueued) return false;
  const std::size_t pos = meta_[slot].pos;
  const Entry moved{at, next_seq_++, slot};
  // The fresh seq is larger than every queued one, so the key only shrinks
  // when the time does.
  if (at < heap_[pos].at) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
  return true;
}

std::size_t Simulator::run() {
  obs::ProfileScope profile("sim.run");
  const std::size_t n = run_loop(TimePoint::max());
  obs::count("sim.events_executed", n);
  return n;
}

std::size_t Simulator::run_until(TimePoint until) {
  obs::ProfileScope profile("sim.run");
  const std::size_t n = run_loop(until);
  if (now_ < until) now_ = until;
  obs::count("sim.events_executed", n);
  return n;
}

void Simulator::release_slot(std::uint32_t slot) {
  SlotMeta& m = meta_[slot];
  m.pos = kNotQueued;
  if (++m.gen == 0) m.gen = 1;  // keep EventId 0 forever invalid
  free_slots_.push_back(slot);
}

void Simulator::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Simulator::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail itself
  if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

std::size_t Simulator::run_loop(TimePoint until) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    const Entry top = heap_.front();
    remove_at(0);
    H3CDN_ASSERT(top.at >= now_);
    // Move the callback out and recycle the slot before running it, so the
    // callback can schedule (and grow the arena) freely.
    EventFn fn = std::move(fns_[top.slot]);
    release_slot(top.slot);
    now_ = top.at;
    ++executed_;
    ++n;
    fn();
  }
  return n;
}

}  // namespace h3cdn::sim
