// Differential oracle for the Simulator's pending set: a run whose arrivals
// stream through attach_arrivals() must be event-for-event identical to the
// same run with every arrival pre-scheduled by schedule_at() at the same
// reservation point. Over 1000+ seeded schedules — equal-time ties between
// stream and heap events, same-time schedules from inside handlers, timer
// cancels, horizons on and between arrivals, stop requests, resets that
// drop an unfinished stream — both arms must agree after every action on
// the (time, id) dispatch log, the clock, the counters, pending_events(),
// idle() and the "evq_level" trace marks.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "des/simulator.hpp"
#include "obs/trace.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"

namespace pushpull::des {
namespace {

/// What an arm saw: 'A' arrival or 'T' timer dispatched, 'C' cancel tried.
using LogEntry = std::tuple<char, SimTime, EventId, bool>;

/// A Simulator driven by seeded handlers, with arrivals either streamed or
/// pre-scheduled. Handlers draw from the arm's own engine, so two arms that
/// dispatch the same sequence make the same draws and the same follow-up
/// schedules; any kernel divergence shows up in the log.
class Arm {
 public:
  Arm(bool streamed, std::uint64_t seed)
      : streamed_(streamed), eng_(seed), sink_(4096, obs::kAllCategories) {
    sim_.set_tracer(obs::Tracer(&sink_));
  }

  Simulator& sim() noexcept { return sim_; }
  const std::vector<LogEntry>& log() const noexcept { return log_; }

  void timer(SimTime when) {
    const std::size_t slot = timer_ids_.size();
    timer_ids_.push_back(0);
    timer_ids_[slot] = sim_.schedule_at(when, [this, slot] {
      log_.emplace_back('T', sim_.now(), timer_ids_[slot], true);
      react();
    });
  }

  /// Reserves one arrival per entry of `times` (non-decreasing).
  void arrivals(std::vector<SimTime> times) {
    times_ = std::move(times);
    arrival_ids_.assign(times_.size(), 0);
    if (streamed_) {
      // The reservation rule: the block takes the next ids.
      const EventId first = sim_.scheduled_events() + 1;
      for (std::size_t i = 0; i < times_.size(); ++i) {
        arrival_ids_[i] = first + i;
      }
      sim_.attach_arrivals(
          times_.size(), [this](std::size_t i) { return times_[i]; },
          [this](std::size_t i) { on_arrival(i); });
    } else {
      for (std::size_t i = 0; i < times_.size(); ++i) {
        arrival_ids_[i] =
            sim_.schedule_at(times_[i], [this, i] { on_arrival(i); });
      }
    }
  }

  const std::vector<EventId>& arrival_ids() const noexcept {
    return arrival_ids_;
  }

  /// Clock, counters and idleness.
  auto state() const {
    return std::make_tuple(sim_.now(), sim_.idle(), sim_.pending_events(),
                           sim_.dispatched_events(), sim_.scheduled_events(),
                           sim_.cancelled_events(), sim_.order_violations());
  }

  /// Every trace mark the kernel emitted: (name, time, seq, a, v).
  auto marks() const {
    std::vector<std::tuple<std::string, double, std::uint64_t, std::uint64_t,
                           double>>
        out;
    for (const obs::TraceEvent& ev : sink_.snapshot()) {
      out.emplace_back(ev.name, ev.time, ev.seq, ev.a, ev.v);
    }
    return out;
  }

 private:
  void on_arrival(std::size_t i) {
    log_.emplace_back('A', sim_.now(), arrival_ids_[i], true);
    react();
  }

  /// A handler's follow-up: maybe a same-time or later timer (on the 0.5
  /// grid the arrivals use, so ties with them are common), maybe a cancel
  /// of some timer (possibly fired or cancelled already), maybe a stop.
  void react() {
    if (sim_.dispatched_events() > 20000) return;
    const double r = rng::uniform01(eng_);
    if (r < 0.25) {
      timer(sim_.now());
    } else if (r < 0.5) {
      timer(sim_.now() +
            0.5 * static_cast<double>(rng::uniform_below(eng_, 6)));
    } else if (r < 0.62 && !timer_ids_.empty()) {
      const EventId id =
          timer_ids_[rng::uniform_below(eng_, timer_ids_.size())];
      log_.emplace_back('C', sim_.now(), id, sim_.cancel(id));
    } else if (r < 0.68) {
      sim_.request_stop();
    }
  }

  bool streamed_;
  rng::Xoshiro256ss eng_;
  obs::TraceSink sink_;
  Simulator sim_;
  std::vector<EventId> timer_ids_;
  std::vector<SimTime> times_;
  std::vector<EventId> arrival_ids_;
  std::vector<LogEntry> log_;
};

/// The two arms of one seeded schedule, driven by one script engine.
struct Oracle {
  Oracle(std::uint64_t s, std::size_t most_arrivals)
      : seed(s), max_arrivals(most_arrivals), script(s ^ 0x5EEDULL),
        streamed(true, s), scheduled(false, s) {}

  template <typename Fn>
  void both(Fn&& fn) {
    fn(streamed);
    fn(scheduled);
  }

  /// Timers before and after the reservation point, then the block.
  void set_up() {
    const SimTime now = streamed.sim().now();
    const auto timers = [&](std::uint64_t most) {
      for (std::uint64_t n = rng::uniform_below(script, most); n > 0; --n) {
        const SimTime t =
            now + 0.5 * static_cast<double>(rng::uniform_below(script, 12));
        both([&](Arm& arm) { arm.timer(t); });
      }
    };
    timers(5);
    std::size_t count = rng::uniform_below(script, max_arrivals + 1);
    if (max_arrivals >= 2048 && rng::uniform01(script) < 0.5) {
      // Just short of an "evq_level" mark, so later timers cross it while
      // most of the block is unfired.
      count = (rng::uniform01(script) < 0.5 ? 1024 : 2048) - 5 -
              rng::uniform_below(script, 4);
    }
    std::vector<SimTime> times(count);
    SimTime t = now;
    for (SimTime& time : times) {
      t += 0.5 * static_cast<double>(rng::uniform_below(script, 3));
      time = t;
    }
    both([&](Arm& arm) { arm.arrivals(times); });
    timers(4);
  }

  void expect_agree(std::size_t step) {
    const std::string at =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    ASSERT_EQ(streamed.state(), scheduled.state()) << at;
    ASSERT_TRUE(streamed.log() == scheduled.log()) << at;
    ASSERT_EQ(streamed.marks(), scheduled.marks()) << at;
  }

  /// Drives both arms with the same random mix of step / run_until / run /
  /// reset, comparing after every action.
  void run(std::size_t actions) {
    set_up();
    for (std::size_t step = 0; step <= actions; ++step) {
      const double r = rng::uniform01(script);
      if (r < 0.55) {
        ASSERT_EQ(streamed.sim().step(), scheduled.sim().step());
      } else if (r < 0.80) {
        // A horizon on the arrival grid (arrivals there still fire) or
        // between grid points.
        const SimTime now = streamed.sim().now();
        const SimTime horizon =
            rng::uniform01(script) < 0.5
                ? now +
                      0.5 * static_cast<double>(rng::uniform_below(script, 4))
                : now + rng::uniform01(script) * 3.0;
        both([&](Arm& arm) { arm.sim().run_until(horizon); });
      } else if (r < 0.88) {
        // A reserved arrival id is not cancellable. Only the streamed arm
        // is asked: its twin would cancel a real event.
        const auto& ids = streamed.arrival_ids();
        if (!ids.empty()) {
          ASSERT_FALSE(streamed.sim().cancel(
              ids[rng::uniform_below(script, ids.size())]));
        }
      } else if (r < 0.95) {
        both([](Arm& arm) { arm.sim().run(); });
      } else {
        both([](Arm& arm) { arm.sim().reset(); });
        set_up();
      }
      expect_agree(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    both([](Arm& arm) { arm.sim().run(); });
    expect_agree(actions + 1);
  }

  std::uint64_t seed;
  std::size_t max_arrivals;
  rng::Xoshiro256ss script;
  Arm streamed;
  Arm scheduled;
};

TEST(EventQueueDiff, ThousandSeededRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Oracle(seed, 40).run(60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDiff, LongSchedulesCrossEvqLevelMarks) {
  // Blocks of up to ~2000 arrivals plus timers cross the 1024 and 2048
  // "evq_level" marks at the attach and later, from schedule_at.
  for (std::uint64_t seed = 2000; seed < 2010; ++seed) {
    Oracle(seed, 2100).run(400);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDiff, EvqLevelMarksCountUnfiredArrivals) {
  Oracle oracle(1, 0);
  oracle.both([](Arm& arm) {
    arm.arrivals(std::vector<SimTime>(1020, 1.0));
    for (int i = 0; i < 8; ++i) arm.timer(2.0);  // the 4th reaches 1024
  });
  oracle.expect_agree(0);
  const auto marks = oracle.streamed.marks();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(std::get<3>(marks[0]), 1024u);
}

TEST(EventQueueDiff, DuplicateTimestampsPopFifo) {
  // Timers reserved before and after the block tie with every arrival;
  // dispatch is FIFO by id across the two sources.
  Simulator sim;
  std::vector<EventId> order;
  EXPECT_EQ(sim.schedule_at(5.0, [&] { order.push_back(1); }), 1u);
  sim.attach_arrivals(
      3, [](std::size_t) { return 5.0; },
      [&](std::size_t i) {
        order.push_back(10 + i);
        // Same-time work scheduled from a stream handler runs after every
        // tie already reserved.
        if (i == 0) sim.schedule_at(5.0, [&] { order.push_back(99); });
      });
  EXPECT_EQ(sim.schedule_at(5.0, [&] { order.push_back(2); }), 5u);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run();
  EXPECT_EQ(order, (std::vector<EventId>{1, 10, 11, 12, 2, 99}));
  EXPECT_EQ(sim.dispatched_events(), 6u);
  EXPECT_EQ(sim.scheduled_events(), 6u);
}

TEST(EventQueueDiff, CancelOfCurrentMinimumAdvances) {
  Simulator sim;
  std::vector<int> order;
  const EventId first = sim.schedule_at(1.0, [&] { order.push_back(-1); });
  sim.attach_arrivals(
      2, [](std::size_t i) { return 1.0 + static_cast<double>(i); },
      [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_TRUE(sim.cancel(first));
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_FALSE(sim.cancel(first + 1));  // a reserved arrival
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{0}));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_FALSE(sim.cancel(first + 2));  // a fired arrival
}

TEST(EventQueueDiff, RunUntilAndStopRespectTheStream) {
  Simulator sim;
  std::vector<std::size_t> fired;
  sim.attach_arrivals(
      4, [](std::size_t i) { return 2.0 * static_cast<double>(i / 2 + 1); },
      [&](std::size_t i) {
        fired.push_back(i);
        if (i == 2) sim.request_stop();
      });
  sim.run_until(2.0);  // both arrivals exactly at the horizon fire
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(sim.now(), 2.0);
  sim.run_until(3.0);  // nothing due: the clock stays at the last event
  EXPECT_EQ(sim.now(), 2.0);
  sim.run();  // stops after arrival 2
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(9.0);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(sim.now(), 9.0);  // drained before the horizon
}

TEST(EventQueueDiff, ClearThenReuse) {
  // reset() drops an unfinished stream; a new one may then be attached.
  Simulator sim;
  std::vector<std::size_t> fired;
  const auto record = [&](std::size_t i) { fired.push_back(i); };
  sim.attach_arrivals(
      100, [](std::size_t i) { return static_cast<double>(i); }, record);
  EXPECT_THROW(
      sim.attach_arrivals(1, [](std::size_t) { return 0.0; }, record),
      std::logic_error);
  sim.run_until(2.0);
  EXPECT_EQ(fired.size(), 3u);
  sim.reset();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
  sim.attach_arrivals(2, [](std::size_t) { return 0.25; }, record);
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1, 2, 0, 1}));
  EXPECT_EQ(sim.scheduled_events(), 102u);
  // A finished stream may be replaced without a reset.
  sim.attach_arrivals(1, [](std::size_t) { return 1.0; }, record);
  sim.run();
  EXPECT_EQ(fired.size(), 6u);
}

TEST(EventQueueDiff, InfiniteTimesStillOrder) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(kInf, [&] { order.push_back(-1); });
  sim.attach_arrivals(
      2, [&](std::size_t i) { return i == 0 ? 3.0 : kInf; },
      [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  sim.schedule_at(kInf, [&] { order.push_back(-2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, -2}));  // FIFO among +inf
}

TEST(EventQueueDiff, PastTimeStreamHeadThrowsAndCountsOneViolation) {
  // An unordered stream: the head behind the clock throws on dispatch.
  Simulator sim;
  const std::vector<SimTime> times{1.0, 3.0, 2.0, 4.0};
  std::vector<std::size_t> fired;
  sim.attach_arrivals(
      times.size(), [&](std::size_t i) { return times[i]; },
      [&](std::size_t i) { fired.push_back(i); });
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_EQ(sim.order_violations(), 1u);
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sim.now(), 3.0);
  // A stream attached behind the clock fails the same way.
  sim.reset();
  sim.schedule_at(5.0, [] {});
  sim.run();
  sim.attach_arrivals(1, [](std::size_t) { return 4.0; }, [](std::size_t) {});
  EXPECT_THROW(sim.step(), std::logic_error);
  EXPECT_EQ(sim.order_violations(), 2u);
}

}  // namespace
}  // namespace pushpull::des
