// EventQueue stress: interleaved schedule/cancel/re-arm churn. Verifies
// (a) determinism — the same seed produces the same pop order — and
// (b) that the generation-counter design keeps memory bounded: cancelled
// entries cannot accumulate in the heap or grow the slot table without
// bound, no matter how hard timers churn. (c) reschedule() against a model
// queue that does cancel + schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace dyncdn::sim {
namespace {

using namespace dyncdn::sim::literals;

/// One churn run: schedule/cancel/re-arm/pop mix driven by `seed`; returns
/// the (time, tag) sequence of every fired event.
std::vector<std::pair<std::int64_t, std::uint64_t>> churn(std::uint64_t seed,
                                                          std::size_t steps) {
  EventQueue q;
  RngStream rng(seed);
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
  std::vector<EventId> live;
  std::int64_t clock_ms = 0;
  std::uint64_t tag = 0;

  for (std::size_t step = 0; step < steps; ++step) {
    const double action = rng.uniform01();
    if (action < 0.45 || live.empty()) {
      // Schedule a fresh event somewhere ahead of the popped clock.
      const std::int64_t at = clock_ms + rng.uniform_int(0, 50);
      const std::uint64_t t = tag++;
      live.push_back(q.schedule(SimTime::milliseconds(at),
                                [&fired, at, t] { fired.emplace_back(at, t); }));
    } else if (action < 0.70) {
      // Cancel a random live event (may already have fired — that's the
      // point: stale ids must stay safe).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      q.cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (action < 0.85) {
      // TCP-style re-arm: cancel + schedule later, the RTO pattern.
      if (!live.empty()) {
        q.cancel(live.back());
        live.pop_back();
      }
      const std::int64_t at = clock_ms + rng.uniform_int(10, 80);
      const std::uint64_t t = tag++;
      live.push_back(q.schedule(SimTime::milliseconds(at),
                                [&fired, at, t] { fired.emplace_back(at, t); }));
    } else if (!q.empty()) {
      clock_ms = q.pop_and_run().to_milliseconds();
    }
  }
  while (!q.empty()) q.pop_and_run();
  return fired;
}

TEST(EventQueueStress, SameSeedSamePopOrder) {
  const auto a = churn(2024, 20000);
  const auto b = churn(2024, 20000);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 1000u);  // the mix actually fires events

  const auto c = churn(2025, 20000);
  EXPECT_NE(a, c);  // different seed, different history
}

TEST(EventQueueStress, PopOrderIsGloballyTimeSorted) {
  const auto fired = churn(7, 20000);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first);
  }
}

TEST(EventQueueStress, CancelChurnKeepsHeapAndSlotsBounded) {
  // The RTO pattern: one live timer, re-armed N times without the clock
  // ever advancing. Lazy cancellation alone would leave N dead entries in
  // the heap; the compaction pass must keep the structure O(live).
  EventQueue q;
  EventId pending;
  constexpr std::size_t kChurn = 200000;
  std::size_t max_stored = 0;
  std::size_t max_slots = 0;
  for (std::size_t i = 0; i < kChurn; ++i) {
    if (pending.valid()) q.cancel(pending);
    pending = q.schedule(SimTime::milliseconds(1000 + static_cast<int>(i)),
                         [] {});
    max_stored =
        std::max(max_stored, q.heaped_entries() + q.wheel_entries());
    max_slots = std::max(max_slots, q.slot_count());
  }
  EXPECT_EQ(q.pending_count(), 1u);
  // Bound: 2x live + compaction slack, nowhere near kChurn.
  EXPECT_LE(max_stored, 2u * 1u + EventQueue::kCompactSlack + 2u);
  EXPECT_LE(max_slots, 4u);  // slots are recycled through the free list

  // The surviving timer is the last one armed.
  bool last_fired = false;
  q.cancel(pending);
  pending = q.schedule(SimTime::milliseconds(1000 + kChurn),
                       [&last_fired] { last_fired = true; });
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(last_fired);
}

TEST(EventQueueStress, BoundedUnderManyLiveTimers) {
  // 1000 live timers all re-arming: heap must stay O(live), not O(churn).
  EventQueue q;
  constexpr std::size_t kTimers = 1000;
  std::vector<EventId> ids(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    ids[i] = q.schedule(SimTime::milliseconds(static_cast<int>(1000 + i)),
                        [] {});
  }
  std::size_t max_stored = 0;
  for (std::size_t round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      q.cancel(ids[i]);
      ids[i] = q.schedule(
          SimTime::milliseconds(static_cast<int>(1000 + round + i)), [] {});
    }
    max_stored =
        std::max(max_stored, q.heaped_entries() + q.wheel_entries());
  }
  EXPECT_EQ(q.pending_count(), kTimers);
  EXPECT_LE(max_stored, 2 * kTimers + EventQueue::kCompactSlack + 2);
  EXPECT_LE(q.slot_count(), kTimers + 1);

  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop_and_run();
    ++fired;
  }
  EXPECT_EQ(fired, kTimers);
}

TEST(EventQueueStress, CancelDuringCallbackOfSameSlotGeneration) {
  // A callback cancelling its own (already-fired) id must be a no-op even
  // though the slot may have been reused by a later schedule.
  EventQueue q;
  EventId self;
  bool reused_fired = false;
  self = q.schedule(1_ms, [&] {
    EXPECT_FALSE(q.cancel(self));  // own id: already fired
    // This schedule probably reuses the just-freed slot; the stale `self`
    // id must not be able to cancel it.
    q.schedule(2_ms, [&] { reused_fired = true; });
    EXPECT_FALSE(q.cancel(self));
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(reused_fired);
}

// ---- reschedule() against cancel + schedule -------------------------------

/// One queue driven through the model run: `lazy` moves events with
/// reschedule(), the other side with cancel + schedule. Events are known
/// by tag; each side keeps its own id per tag.
struct ModelSide {
  EventQueue q;
  bool lazy = false;
  SimTime now = SimTime::zero();  // time of the event being run
  std::map<std::uint64_t, EventId> ids;
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;

  Callback callback(std::uint64_t tag) {
    return [this, tag] {
      fired.emplace_back(now.ns(), tag);
      // Every seventh event re-arms a successor from inside its callback,
      // as a firing RTO does.
      if (tag % 7 == 0) {
        const std::uint64_t next = tag + (1ull << 40);
        schedule(next, now + SimTime::milliseconds(
                                 static_cast<std::int64_t>(tag % 3000)));
      }
    };
  }
  void schedule(std::uint64_t tag, SimTime at) {
    ids[tag] = q.schedule(at, callback(tag));
  }
  void move(std::uint64_t tag, SimTime at) {
    if (lazy) {
      const EventId id = q.reschedule(ids[tag], at);
      if (id.valid()) ids[tag] = id;
    } else if (q.cancel(ids[tag])) {
      ids[tag] = q.schedule(at, callback(tag));
    }
  }
  void pop() {
    now = q.next_time();
    q.pop_and_run();
  }
};

/// A delay at one of the queue's scales: same instant, within one level-0
/// bucket, heap-near, level-0, level-1 and level-2 wheel spans, and, with
/// probability `overflow`, past the wheel into the overflow list. The
/// clock crosses a far span bucket by bucket, so the far scales are rare.
SimTime model_delay(RngStream& rng, double overflow) {
  struct Scale {
    double upto;  // cumulative probability
    std::int64_t lo_ns, hi_ns;
  };
  static constexpr Scale kScales[] = {
      {0.15, 0, 0},
      {0.40, 0, 100'000},
      {0.65, 0, 130'000'000},
      {0.85, 130'000'000, 500'000'000},
      {0.97, 500'000'000, 120'000'000'000},
      {1.0, 140'000'000'000, 300'000'000'000},
  };
  std::int64_t ns = 0;
  if (rng.chance(overflow)) {
    ns = rng.uniform_int(36'000'000'000'000, 37'000'000'000'000);
  } else {
    const double u = rng.uniform01();
    const Scale* scale = kScales;
    while (u >= scale->upto && scale->upto < 1.0) ++scale;
    ns = rng.uniform_int(scale->lo_ns, scale->hi_ns);
  }
  // Whole milliseconds now and then, so distinct events share an instant.
  return SimTime::nanoseconds(rng.chance(0.3) ? ns / 1'000'000 * 1'000'000
                                              : ns);
}

void run_reschedule_model(std::uint64_t seed, std::size_t steps,
                          double overflow) {
  ModelSide lazy;
  lazy.lazy = true;
  ModelSide eager;
  RngStream rng(seed);
  std::map<std::uint64_t, SimTime> at_of;  // last key each tag was given
  std::vector<std::uint64_t> tags;  // may include fired/cancelled ones
  std::uint64_t next_tag = 0;
  const auto pick = [&rng, &tags] {
    return tags[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tags.size()) - 1))];
  };

  for (std::size_t step = 0; step < steps; ++step) {
    const double action = rng.uniform01();
    const SimTime clock = lazy.now;
    if (action < 0.25 || tags.empty()) {
      const std::uint64_t tag = next_tag++;
      const SimTime at = clock + model_delay(rng, overflow);
      lazy.schedule(tag, at);
      eager.schedule(tag, at);
      at_of[tag] = at;
      tags.push_back(tag);
    } else if (action < 0.35) {
      const std::uint64_t tag = pick();
      EXPECT_EQ(lazy.q.cancel(lazy.ids[tag]), eager.q.cancel(eager.ids[tag]));
    } else if (action < 0.70) {
      // Later, equal or earlier than the key the event last got (never
      // before the clock), near or far.
      const std::uint64_t tag = pick();
      const SimTime key = at_of[tag];
      const double dir = rng.uniform01();
      SimTime at = key;
      if (dir < 0.45) {
        at = key + model_delay(rng, overflow);
      } else if (dir < 0.85) {
        const SimTime back = model_delay(rng, overflow);
        at = key - clock > back ? key - back : clock;
      }
      if (at < clock) at = clock;
      lazy.move(tag, at);
      eager.move(tag, at);
      at_of[tag] = at;
    } else if (!lazy.q.empty()) {
      ASSERT_FALSE(eager.q.empty());
      ASSERT_EQ(lazy.q.next_time(), eager.q.next_time());
      lazy.pop();
      eager.pop();
    }
    ASSERT_EQ(lazy.q.pending_count(), eager.q.pending_count()) << step;
  }
  while (!eager.q.empty()) {
    ASSERT_FALSE(lazy.q.empty());
    lazy.pop();
    eager.pop();
  }
  EXPECT_TRUE(lazy.q.empty());
  EXPECT_GT(lazy.fired.size(), steps / 10);
  EXPECT_EQ(lazy.fired, eager.fired);
  EXPECT_EQ(lazy.q.scheduled_count(), eager.q.scheduled_count());
  EXPECT_EQ(lazy.q.cancelled_count(), eager.q.cancelled_count());
}

TEST(EventQueueStress, RescheduleMatchesCancelPlusSchedule) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    run_reschedule_model(seed, 12000, /*overflow=*/0.0);
  }
  // A shorter run that also files events, and moves them, past the
  // wheel's ~9.5 h span.
  run_reschedule_model(99, 1500, /*overflow=*/0.01);
}

TEST(EventQueueStress, RescheduleOfAFiredOrCancelledEventDoesNothing) {
  EventQueue q;
  int runs = 0;
  const EventId fired = q.schedule(1_ms, [&runs] { ++runs; });
  const EventId cancelled = q.schedule(2_ms, [&runs] { ++runs; });
  q.cancel(cancelled);
  q.pop_and_run();
  const std::uint64_t scheduled = q.scheduled_count();
  EXPECT_FALSE(q.reschedule(fired, 5_ms).valid());
  EXPECT_FALSE(q.reschedule(cancelled, 5_ms).valid());
  EXPECT_FALSE(q.reschedule(EventId{}, 5_ms).valid());
  EXPECT_EQ(q.scheduled_count(), scheduled);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueStress, RepeatedLaterReschedulesKeepOneEntry) {
  // The RTO pattern without cancel: one timer moved later 200k times
  // stays one queued entry and fires once, at its last key.
  EventQueue q;
  SimTime fired_at = SimTime::zero();
  EventId id = q.schedule(1000_ms, [] {});
  for (int i = 1; i <= 200000; ++i) {
    id = q.reschedule(id, SimTime::milliseconds(1000 + i));
    ASSERT_TRUE(id.valid());
    ASSERT_EQ(q.heaped_entries() + q.wheel_entries(), 1u);
  }
  EXPECT_EQ(q.cancelled_count(), 200000u);
  fired_at = q.pop_and_run();
  EXPECT_EQ(fired_at, SimTime::milliseconds(201000));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dyncdn::sim
