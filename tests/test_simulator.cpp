#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace h3cdn::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint{0});
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(msec(30), [&] { order.push_back(3); });
  sim.schedule_at(msec(10), [&] { order.push_back(1); });
  sim.schedule_at(msec(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(msec(10), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimePoint fired{-1};
  sim.schedule_at(msec(5), [&] {
    sim.schedule_in(msec(7), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, msec(12));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(10), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFiredEventFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(12345));
  EXPECT_FALSE(sim.cancel(0));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(msec(10), [&] { ++fired; });
  sim.schedule_at(msec(20), [&] { ++fired; });
  sim.schedule_at(msec(30), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(msec(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), msec(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(msec(50));
  EXPECT_EQ(sim.now(), msec(50));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_in(msec(1), recurse);
  };
  sim.schedule_in(msec(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), msec(10));
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(msec(1), [] {});
  const EventId id = sim.schedule_at(msec(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, IdleWhenOnlyCancelledRemain) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(2), [] {});
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(msec(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorDeath, PastSchedulingAborts) {
  Simulator sim;
  sim.schedule_at(msec(10), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(msec(5), [] {}), "precondition");
}

// ---------------------------------------------------------------------------
// Scheduler contract, checked against the production Simulator AND a small
// reference model: the two must be observably interchangeable.
// ---------------------------------------------------------------------------

/// Reference scheduler: the textbook structure behind the Simulator's API — a
/// std::priority_queue of (at, seq, id) with lazy deletion. Each live event
/// records its current seq; cancel erases the record and reschedule pushes a
/// fresh (at, seq) entry, so a popped entry whose seq no longer matches is
/// stale and skipped.
class ReferenceScheduler {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_.size(); }
  [[nodiscard]] bool idle() const { return live_.empty(); }
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  EventId schedule_at(TimePoint at, std::function<void()> fn) {
    const EventId id = next_id_++;
    live_.emplace(id, Live{next_seq_, std::move(fn)});
    queue_.push(Entry{at, next_seq_++, id});
    return id;
  }
  EventId schedule_in(Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  bool cancel(EventId id) { return live_.erase(id) > 0; }
  bool reschedule(EventId id, TimePoint at) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    it->second.seq = next_seq_;
    queue_.push(Entry{at, next_seq_++, id});
    return true;
  }
  std::size_t run() { return drain(TimePoint::max()); }
  std::size_t run_until(TimePoint until) {
    const std::size_t n = drain(until);
    if (now_ < until) now_ = until;
    return n;
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Live {
    std::uint64_t seq;
    std::function<void()> fn;
  };

  std::size_t drain(TimePoint until) {
    std::size_t n = 0;
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      const auto it = live_.find(top.id);
      if (it == live_.end() || it->second.seq != top.seq) {
        queue_.pop();  // cancelled, or superseded by a reschedule
        continue;
      }
      if (top.at > until) break;
      queue_.pop();
      std::function<void()> fn = std::move(it->second.fn);
      live_.erase(it);
      now_ = top.at;
      ++executed_;
      ++n;
      fn();
    }
    return n;
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_map<EventId, Live> live_;
  TimePoint now_{0};
  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
};

// The instance labels are stable test ids: "Calendar" runs the production
// Simulator, "Heap" the reference model above.
enum class Core { Production, Reference };

template <typename Body>
void with_core(Core core, Body body) {
  if (core == Core::Production) {
    Simulator sim;
    body(sim);
  } else {
    ReferenceScheduler sim;
    body(sim);
  }
}

class SchedulerBackendTest : public ::testing::TestWithParam<Core> {};

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerBackendTest,
                         ::testing::Values(Core::Production, Core::Reference),
                         [](const auto& info) {
                           return info.param == Core::Production ? "Calendar" : "Heap";
                         });

TEST_P(SchedulerBackendTest, SameTimestampFifo) {
  with_core(GetParam(), [](auto& sim) {
    std::vector<int> order;
    // Interleave two timestamps so same-time FIFO must hold per timestamp
    // even when insertions alternate.
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(msec(10), [&order, i] { order.push_back(i); });
      sim.schedule_at(msec(5), [&order, i] { order.push_back(1000 + i); });
    }
    sim.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(order[i], 1000 + i);  // all msec(5) events first, FIFO
      EXPECT_EQ(order[50 + i], i);    // then the msec(10) events, FIFO
    }
  });
}

TEST_P(SchedulerBackendTest, CancelLastScheduledEvent) {
  with_core(GetParam(), [](auto& sim) {
    bool fired = false;
    sim.schedule_at(msec(1), [] {});
    const EventId last = sim.schedule_at(msec(2), [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(last));
    EXPECT_FALSE(sim.cancel(last));
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), msec(1));  // the cancelled tail never advanced the clock
  });
}

TEST_P(SchedulerBackendTest, RunUntilIncludesEventExactlyAtBound) {
  with_core(GetParam(), [](auto& sim) {
    std::vector<int> fired;
    sim.schedule_at(msec(10), [&] { fired.push_back(10); });
    sim.schedule_at(msec(20), [&] { fired.push_back(20); });  // exactly at bound
    sim.schedule_at(msec(20) + usec(1), [&] { fired.push_back(21); });
    EXPECT_EQ(sim.run_until(msec(20)), 2u);
    EXPECT_EQ(fired, (std::vector<int>{10, 20}));
    EXPECT_EQ(sim.now(), msec(20));
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{10, 20, 21}));
  });
}

TEST_P(SchedulerBackendTest, RescheduleFromInsideCallback) {
  with_core(GetParam(), [](auto& sim) {
    std::vector<std::int64_t> fired_at;
    EventId victim = 0;
    sim.schedule_at(msec(5), [&] {
      // Cancel a pending event and replace it with an earlier AND a later
      // one, all from inside a running callback.
      EXPECT_TRUE(sim.cancel(victim));
      sim.schedule_at(msec(7), [&] { fired_at.push_back(sim.now().count()); });
      sim.schedule_at(msec(30), [&] { fired_at.push_back(sim.now().count()); });
      sim.schedule_in(Duration::zero(), [&] { fired_at.push_back(-1); });  // now
    });
    victim = sim.schedule_at(msec(20), [&] { fired_at.push_back(sim.now().count()); });
    sim.run();
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{-1, msec(7).count(), msec(30).count()}));
  });
}

// Regression for the pending() double-bookkeeping bug: under interleaved
// schedule/cancel/run the old shadow-set accounting could drift from the
// queue's true live count. pending() must stay exact at every step.
TEST_P(SchedulerBackendTest, PendingExactUnderInterleaving) {
  with_core(GetParam(), [](auto& sim) {
    std::vector<EventId> ids;
    std::size_t expected = 0;
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 10; ++i) {
        ids.push_back(sim.schedule_at(msec(100 + round * 10 + i), [] {}));
        ++expected;
        ASSERT_EQ(sim.pending(), expected);
      }
      // Cancel every other id from this round, newest first.
      for (const std::size_t back : {1u, 3u, 5u, 7u, 9u}) {
        ASSERT_TRUE(sim.cancel(ids[ids.size() - back]));
        --expected;
        ASSERT_EQ(sim.pending(), expected);
      }
      // Double-cancel is a no-op on the count.
      ASSERT_FALSE(sim.cancel(ids.back()));
      ASSERT_EQ(sim.pending(), expected);
    }
    // Drain a prefix; pending() tracks executions too.
    const std::size_t ran = sim.run_until(msec(150));
    expected -= ran;
    ASSERT_EQ(sim.pending(), expected);
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_TRUE(sim.idle());
  });
}

// reschedule(id, at) must fire exactly where cancel(id) + schedule_at(at)
// would: after every event already queued at `at`, before every later one,
// including moves to the same timestamp and moves earlier.
TEST_P(SchedulerBackendTest, RescheduleOrdersLikeCancelThenSchedule) {
  auto script = [](auto& sim, bool use_reschedule) {
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(sim.schedule_at(msec(10 + (i % 2)), [&order, i] { order.push_back(i); }));
    }
    // {event, new time}: same timestamp (back of its tie), later, earlier,
    // and onto another event's timestamp.
    const std::vector<std::pair<int, Duration>> moves = {
        {0, msec(10)}, {1, msec(12)}, {5, msec(9)}, {2, msec(11)}, {0, msec(10)}};
    for (const auto& [i, at] : moves) {
      if (use_reschedule) {
        EXPECT_TRUE(sim.reschedule(ids[i], TimePoint{at}));
      } else {
        EXPECT_TRUE(sim.cancel(ids[i]));
        ids[i] = sim.schedule_at(TimePoint{at}, [&order, i = i] { order.push_back(i); });
      }
    }
    EXPECT_EQ(sim.pending(), 6u);
    sim.run();
    return order;
  };
  with_core(GetParam(), [&](auto& sim) {
    const std::vector<int> moved = script(sim, true);
    EXPECT_EQ(moved, (std::vector<int>{5, 4, 0, 3, 2, 1}));
  });
  with_core(GetParam(), [&](auto& sim) {
    EXPECT_EQ(script(sim, false), (std::vector<int>{5, 4, 0, 3, 2, 1}));
  });
}

TEST_P(SchedulerBackendTest, RescheduleStaleOrFiredIdFails) {
  with_core(GetParam(), [](auto& sim) {
    int fired = 0;
    const EventId done = sim.schedule_at(msec(1), [&] { ++fired; });
    const EventId gone = sim.schedule_at(msec(2), [&] { ++fired; });
    const EventId kept = sim.schedule_at(msec(3), [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(gone));
    EXPECT_EQ(sim.run_until(msec(1)), 1u);
    EXPECT_FALSE(sim.reschedule(done, msec(5)));  // fired
    EXPECT_FALSE(sim.reschedule(gone, msec(5)));  // cancelled
    EXPECT_FALSE(sim.reschedule(0, msec(5)));     // never valid
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_TRUE(sim.reschedule(kept, msec(4)));
    EXPECT_TRUE(sim.reschedule(kept, msec(4)));  // still the same pending event
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), msec(4));
    EXPECT_FALSE(sim.reschedule(kept, msec(6)));  // fired after its moves
  });
}

TEST_P(SchedulerBackendTest, RescheduleInsideCallback) {
  with_core(GetParam(), [](auto& sim) {
    std::vector<std::int64_t> fired_at;
    EventId self = 0;
    EventId later = 0;
    EventId earlier = 0;
    auto record = [&] { fired_at.push_back(sim.now().count()); };
    self = sim.schedule_at(msec(5), [&] {
      EXPECT_FALSE(sim.reschedule(self, msec(50)));  // a running event has fired
      EXPECT_TRUE(sim.reschedule(later, msec(6)));    // pull in
      EXPECT_TRUE(sim.reschedule(earlier, msec(40)));  // push out
      EXPECT_TRUE(sim.reschedule(later, msec(5)));    // to now: after this callback
    });
    later = sim.schedule_at(msec(30), record);
    earlier = sim.schedule_at(msec(8), record);
    sim.run();
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{msec(5).count(), msec(40).count()}));
    EXPECT_EQ(sim.events_executed(), 3u);
  });
}

// Differential fuzz: drive the Simulator and the reference model through the
// same pseudo-random 10k-op schedule/cancel/reschedule/run_until script and
// require the identical firing order, clock and pending count.
TEST(SchedulerDifferential, TenThousandOpFuzz) {
  Simulator sim;
  ReferenceScheduler ref;
  std::vector<std::uint32_t> sim_fired;
  std::vector<std::uint32_t> ref_fired;
  std::vector<EventId> sim_ids;
  std::vector<EventId> ref_ids;

  std::uint64_t lcg = 0xdeadbeefcafef00dull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };

  for (std::uint32_t op = 0; op < 10'000; ++op) {
    const std::uint64_t kind = rnd() % 100;
    if (kind < 55) {
      // Schedule at a horizon that clusters events (same-time collisions are
      // the interesting case for FIFO order).
      const Duration delay = usec(static_cast<std::int64_t>(rnd() % 5'000));
      sim_ids.push_back(sim.schedule_in(delay, [&sim_fired, op] { sim_fired.push_back(op); }));
      ref_ids.push_back(ref.schedule_in(delay, [&ref_fired, op] { ref_fired.push_back(op); }));
    } else if (kind < 70 && !sim_ids.empty()) {
      // Cancel a random previously issued id; outcomes must agree even for
      // already-fired or already-cancelled handles.
      const std::size_t pick = rnd() % sim_ids.size();
      EXPECT_EQ(sim.cancel(sim_ids[pick]), ref.cancel(ref_ids[pick])) << "op " << op;
    } else if (kind < 90 && !sim_ids.empty()) {
      // Re-arm a random id, the way a retransmission timer is pushed out
      // (and sometimes pulled in, or onto a busy timestamp).
      const std::size_t pick = rnd() % sim_ids.size();
      const TimePoint at = sim.now() + usec(static_cast<std::int64_t>(rnd() % 5'000));
      EXPECT_EQ(sim.reschedule(sim_ids[pick], at), ref.reschedule(ref_ids[pick], at))
          << "op " << op;
    } else {
      // Advance both clocks through a bounded run.
      const TimePoint until = sim.now() + usec(static_cast<std::int64_t>(rnd() % 2'000));
      EXPECT_EQ(sim.run_until(until), ref.run_until(until)) << "op " << op;
      ASSERT_EQ(sim.now(), ref.now()) << "op " << op;
    }
    ASSERT_EQ(sim.pending(), ref.pending()) << "op " << op;
  }
  EXPECT_EQ(sim.run(), ref.run());
  EXPECT_EQ(sim.now(), ref.now());
  ASSERT_EQ(sim_fired, ref_fired);
  EXPECT_EQ(sim.events_executed(), ref.events_executed());
}

}  // namespace
}  // namespace h3cdn::sim
