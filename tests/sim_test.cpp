// Unit tests for the discrete-event kernel: SimTime arithmetic, event
// ordering and cancellation, run loops, RNG determinism, and strict
// number parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/parse.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dyncdn::sim {
namespace {

using namespace dyncdn::sim::literals;

TEST(SimTime, FactoryUnitsAgree) {
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ((5_ms).ns(), 5'000'000);
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime a = 10_ms, b = 4_ms;
  EXPECT_EQ(a + b, 14_ms);
  EXPECT_EQ(a - b, 6_ms);
  EXPECT_EQ(a * 3, 30_ms);
  EXPECT_EQ(a / 2, 5_ms);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(SimTime, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(SimTime::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_milliseconds(0.0000005).ns(), 1);  // 0.5ns -> 1
  EXPECT_EQ(SimTime::from_seconds(0.0).ns(), 0);
}

TEST(SimTime, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_milliseconds(123.456);
  EXPECT_NEAR(t.to_milliseconds(), 123.456, 1e-6);
  EXPECT_NEAR(t.to_seconds(), 0.123456, 1e-9);
}

TEST(SimTime, ScaledAppliesFactor) {
  EXPECT_EQ((100_ms).scaled(0.5), 50_ms);
  EXPECT_EQ((100_ms).scaled(4.0), 400_ms);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ((2_s).to_string(), "2.000s");
  EXPECT_EQ((15_ms).to_string(), "15.000ms");
  EXPECT_EQ((7_us).to_string(), "7.000us");
  EXPECT_EQ((3_ns).to_string(), "3ns");
  EXPECT_EQ(SimTime::infinity().to_string(), "inf");
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30_ms, [&] { order.push_back(3); });
  q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(20_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10_ms, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10_ms, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1_ms, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueue, CancelInvalidIdIsSafe) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1_ms, [] {});
  q.schedule(2_ms, [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending_count(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(10_ms, [] {});
  q.pop_and_run();
  EXPECT_THROW(q.schedule(5_ms, [] {}), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1_ms, [] {});
  q.schedule(2_ms, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 2_ms);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator simulator;
  std::vector<SimTime> seen;
  simulator.schedule_in(5_ms, [&] { seen.push_back(simulator.now()); });
  simulator.schedule_in(9_ms, [&] { seen.push_back(simulator.now()); });
  simulator.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 5_ms);
  EXPECT_EQ(seen[1], 9_ms);
  EXPECT_EQ(simulator.now(), 9_ms);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.schedule_in(1_ms, recurse);
  };
  simulator.schedule_in(1_ms, recurse);
  simulator.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulator.now(), 5_ms);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.schedule_at(SimTime::milliseconds(i), [&] { ++count; });
  }
  simulator.run_until(5_ms);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulator.pending_events(), 5u);
  simulator.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenQuiet) {
  Simulator simulator;
  simulator.schedule_at(100_ms, [] {});
  simulator.run_until(50_ms);
  EXPECT_EQ(simulator.now(), 50_ms);
}

TEST(Simulator, RunStepsExecutesExactly) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    simulator.schedule_at(SimTime::milliseconds(i), [&] { ++count; });
  }
  EXPECT_EQ(simulator.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.run_steps(99), 2u);
}

TEST(EventQueue, RandomScheduleFiresInGlobalTimeOrder) {
  // Property: regardless of insertion order and cancellations, events fire
  // in nondecreasing time, with scheduling order breaking ties.
  EventQueue q;
  RngStream rng(99);
  struct Fired {
    std::int64_t at;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<EventId> ids;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::int64_t at = rng.uniform_int(0, 500);
    ids.push_back(q.schedule(SimTime::milliseconds(at), [&fired, at, i] {
      fired.push_back({at, i});
    }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rng.chance(0.33) && q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired.size(), 3000u - cancelled);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].at, fired[i].at);
    if (fired[i - 1].at == fired[i].at) {
      ASSERT_LT(fired[i - 1].seq, fired[i].seq);
    }
  }
}

TEST(Rng, SameSeedSameStreamIsDeterministic) {
  RngFactory f1(42), f2(42);
  RngStream a = f1.stream("x");
  RngStream b = f2.stream("x");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentNamesGiveDifferentStreams) {
  RngFactory f(42);
  RngStream a = f.stream("alpha");
  RngStream b = f.stream("beta");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DifferentSeedsGiveDifferentStreams) {
  RngStream a = RngFactory(1).stream("x");
  RngStream b = RngFactory(2).stream("x");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveCreatesIndependentFactory) {
  RngFactory f(7);
  RngFactory d1 = f.derive("rep1");
  RngFactory d2 = f.derive("rep2");
  EXPECT_NE(d1.seed(), d2.seed());
  EXPECT_EQ(f.derive("rep1").seed(), d1.seed());
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  RngStream s = RngFactory(3).stream("u");
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = s.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    saw_lo |= (v == 0);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  RngStream s = RngFactory(4).stream("c");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.chance(0.0));
    EXPECT_TRUE(s.chance(1.0));
  }
}

TEST(Rng, LognormalMedianIsApproximatelyMedian) {
  RngStream s = RngFactory(5).stream("ln");
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(s.lognormal_median(50.0, 0.5));
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  EXPECT_NEAR(draws[10000], 50.0, 2.0);
}

TEST(Rng, NormalMsClampsAtFloor) {
  RngStream s = RngFactory(6).stream("n");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(s.normal_ms(1.0, 10.0, 0.5), SimTime::from_milliseconds(0.5));
  }
}

// Counts and settings from command lines and the environment.
TEST(ParseNumber, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_number<std::size_t>("0"), std::size_t{0});
  EXPECT_EQ(parse_number<std::size_t>("4"), std::size_t{4});
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_C(18446744073709551615));
  EXPECT_EQ(parse_number<double>("100"), 100.0);
  EXPECT_EQ(parse_number<double>("0.5"), 0.5);
}

TEST(ParseNumber, RejectsSignWhitespaceJunkAndOverflow) {
  for (const char* bad :
       {"", "-1", "+1", "-0", " 4", "4 ", "\t4", "4abc", "abc", "4.0", "0x10",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296").has_value());
  for (const char* bad :
       {"", "-1", "+1", "-0.5", " 1", "1 ", "1ms", "abc", "inf", "nan",
        "1e999"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace dyncdn::sim
