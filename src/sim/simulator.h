// Discrete-event simulation engine.
//
// One Simulator instance drives one simulated probe's page visits. Events are
// ordered by (time, insertion sequence), so simultaneous events fire in the
// order they were scheduled — this total order is what makes whole-study runs
// bit-reproducible.
//
// The scheduler core is an indexed 4-ary min-heap of (at, seq, slot) entries
// over a slab/free-list event arena (docs/SCALING.md §1–2). Each arena slot
// holds its callback inline (EventFn) and its current heap position, so
// cancel() and reschedule() are O(log n) in-place heap repairs and pending()
// is simply the heap size. Steady-state scheduling performs no heap
// allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.h"
#include "util/types.h"

namespace h3cdn::sim {

/// Handle for a scheduled event; usable to cancel or move it before it fires.
/// Packs (generation << 32 | arena slot); never zero.
using EventId = std::uint64_t;

/// Deterministic event-queue simulator with a microsecond virtual clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (>= now()).
  /// Accepts any void() callable (stored inline for captures <= 96 bytes).
  EventId schedule_at(TimePoint at, EventFn fn);

  /// Schedules `fn` to run `delay` (>= 0) after now().
  EventId schedule_in(Duration delay, EventFn fn);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled. The arena slot is recycled immediately.
  bool cancel(EventId id);

  /// Moves a pending event to `at` (>= now()), keeping its callback and its
  /// id. The event takes a fresh sequence number, so it fires exactly where
  /// cancel(id) followed by schedule_at(at, same callback) would put it.
  /// Returns false (and changes nothing) if the event already fired or was
  /// cancelled.
  bool reschedule(EventId id, TimePoint at);

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with time <= until; leaves later events queued.
  std::size_t run_until(TimePoint until);

  /// True if no pending events remain.
  [[nodiscard]] bool idle() const { return heap_.empty(); }

  /// Number of events executed since construction.
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  /// Number of currently pending (scheduled, not fired, not cancelled)
  /// events. Exact under arbitrary schedule/cancel/reschedule/pop
  /// interleavings.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  // One heap entry per pending event. The key (at, seq) lives here, next to
  // the other keys, so sifting never touches the arena.
  struct Entry {
    TimePoint at{0};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  // Per-slot bookkeeping, kept apart from the (much larger) callbacks so a
  // sift's position updates stay within a few cache lines. The generation
  // tag in the EventId makes stale handles (fired, cancelled, recycled)
  // fail cancel()/reschedule() without any side table.
  struct SlotMeta {
    std::uint32_t pos = kNotQueued;  // index in heap_, or kNotQueued
    std::uint32_t gen = 1;
  };
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  /// Strict (time, seq) order: the total order events fire in.
  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  /// Slot index of a pending event, or kNotQueued for a stale id.
  [[nodiscard]] std::uint32_t pending_slot(EventId id) const;
  void release_slot(std::uint32_t slot);
  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    meta_[e.slot].pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  /// Removes the entry at heap position `pos`, restoring the heap property.
  void remove_at(std::size_t pos);
  std::size_t run_loop(TimePoint until);

  std::vector<Entry> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace h3cdn::sim
