/**
 * @file
 * Differential tests for the event calendar: the indexed 4-ary heap in
 * sim::Simulator must match the test-only multimap reference
 * (tests/reference_calendar.h) — same firing order, same query answers,
 * same counters — on fuzzer-generated schedules, cancel-heavy churn,
 * run_until horizons across idle gaps, and checkpoint/restore taken
 * mid-wave.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "reference_calendar.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "sim/time.h"

namespace accelflow::sim {
namespace {

/** One observable moment: (now, tag) for firings, plus interleaved query
 *  answers, so any divergence in order *or* in peek results is caught. */
using Log = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/** A self-driving randomized schedule: events fire, log, respawn, and
 *  cancel random armed handles (often stale — exercising the generation
 *  checks). Both calendars consume the identical op stream: the rng draws
 *  happen inside callbacks, so they stay aligned exactly as long as the
 *  firing order does. */
template <typename Cal>
struct FuzzCtx {
  Cal sim;
  Rng rng;
  std::vector<EventId> armed;
  Log log;
  std::uint64_t budget;

  FuzzCtx(std::uint64_t seed, std::uint64_t spawns)
      : rng(seed), budget(spawns) {}

  void spawn(std::uint64_t tag) {
    // Mostly near-future, a slice microseconds out.
    const TimePs delay = rng.next_below(4) == 0
                             ? microseconds(1) + rng.next_below(1 << 22)
                             : 10 + rng.next_below(20000);
    armed.push_back(sim.schedule_after(delay, [this, tag] {
      log.emplace_back(sim.now(), tag);
      if ((tag & 7) == 0) {
        log.emplace_back(sim.next_event_time(), sim.pending_events());
      }
      if (budget > 0) {
        --budget;
        spawn(tag * 2654435761u + 1);
        if (rng.next_below(3) == 0 && budget > 0) {
          --budget;
          spawn(tag * 40503u + 7);
        }
      }
      if (rng.next_below(4) == 0 && !armed.empty()) {
        const std::size_t idx = rng.next_below(armed.size());
        // Often stale: already fired/cancelled.
        log.emplace_back(sim.cancel(armed[idx]), ~std::uint64_t{0});
      }
    }));
  }

  void run(int initial) {
    for (int i = 0; i < initial; ++i) spawn(static_cast<std::uint64_t>(i));
    sim.run();
    log.emplace_back(sim.now(), sim.executed_events());
    log.emplace_back(sim.kernel_stats().scheduled,
                     sim.kernel_stats().cancelled);
    log.emplace_back(sim.kernel_stats().clamped_past,
                     sim.kernel_stats().pending_high_water);
  }
};

TEST(SchedDifferential, FuzzedSchedulesBitIdentical) {
  // 1000 fuzzer-generated schedules, each run on the heap and on the
  // reference; every firing, peek answer and counter must match.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    FuzzCtx<Simulator> heap(0xF00D + seed, 64);
    FuzzCtx<ReferenceCalendar> ref(0xF00D + seed, 64);
    heap.run(/*initial=*/8);
    ref.run(/*initial=*/8);
    ASSERT_EQ(heap.log, ref.log) << "seed " << seed;
  }
}

template <typename Cal>
Log cancel_churn() {
  // The response-timeout pattern: rounds arm 8 timeouts and cancel 7
  // before they fire.
  Cal sim;
  Rng rng(42);
  Log log;
  std::vector<EventId> armed;
  std::function<void(int)> round = [&](int left) {
    if (left == 0) return;
    armed.clear();
    for (int t = 0; t < 8; ++t) {
      const std::uint64_t tag = static_cast<std::uint64_t>(left * 16 + t);
      armed.push_back(sim.schedule_after(
          50000 + rng.next_below(1000),
          [&log, &sim, tag] { log.emplace_back(sim.now(), tag); }));
    }
    sim.schedule_after(100 + rng.next_below(300), [&, left] {
      for (int t = 0; t < 7; ++t) sim.cancel(armed[static_cast<size_t>(t)]);
      round(left - 1);
    });
  };
  round(500);
  sim.run();
  log.emplace_back(sim.kernel_stats().cancelled,
                   sim.kernel_stats().pending_high_water);
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, CancelChurnBitIdentical) {
  EXPECT_EQ(cancel_churn<Simulator>(), cancel_churn<ReferenceCalendar>());
}

/** Restore-mid-wave harness: callbacks capture only (ctx pointer, ints),
 *  so they are clonable and replay against whichever calendar the ctx
 *  currently points at. */
template <typename Cal>
struct WaveCtx {
  Cal* sim = nullptr;
  Log log;

  void seed_wave(Cal& s) {
    sim = &s;
    for (std::uint64_t i = 0; i < 40; ++i) {
      const TimePs t = 50 + (i % 7) * 400 + (i / 7) * 1000;
      s.schedule_at(t, make_cb(i));
    }
  }

  typename Cal::Callback make_cb(std::uint64_t tag) {
    WaveCtx* ctx = this;
    return [ctx, tag] {
      ctx->log.emplace_back(ctx->sim->now(), tag);
      if (tag < 20) {
        // Deterministic respawn: arithmetic only, so the replay after a
        // restore re-derives the identical future.
        ctx->sim->schedule_after(700 + tag * 13, ctx->make_cb(tag + 100));
      }
    };
  }
};

TEST(SchedDifferential, RestoreMidWaveMatchesReference) {
  // The reference runs the whole wave uninterrupted. The heap runs half
  // of it, checkpoints with the calendar hot, finishes, and then replays
  // the tail from the snapshot: both halves must match the reference.
  WaveCtx<ReferenceCalendar> ref_ctx;
  ReferenceCalendar ref;
  ref_ctx.seed_wave(ref);
  ref.run();

  WaveCtx<Simulator> ctx;
  Simulator original;
  ctx.seed_wave(original);
  original.run_until(2000);
  ASSERT_GT(original.pending_events(), 0u);
  Snapshot snap;
  original.checkpoint(snap);
  const std::size_t mid = ctx.log.size();
  original.run();
  EXPECT_EQ(ctx.log, ref_ctx.log);
  EXPECT_EQ(original.executed_events(), ref.executed_events());

  Simulator forked;
  forked.restore(snap);
  EXPECT_EQ(forked.pending_events(), snap.heap.size());
  ctx.log.clear();
  ctx.sim = &forked;
  forked.run();
  const Log tail(ref_ctx.log.begin() + static_cast<std::ptrdiff_t>(mid),
                 ref_ctx.log.end());
  EXPECT_EQ(ctx.log, tail);
  EXPECT_EQ(forked.executed_events(), ref.executed_events());
  EXPECT_EQ(forked.now(), ref.now());
}

template <typename Cal>
Log horizons_and_gaps() {
  // Horizon semantics across idle gaps: run_until with nothing due
  // advances now, and events scheduled into the gap order correctly
  // against the one already pending.
  Cal sim;
  Log log;
  const auto fire = [&log, &sim](std::uint64_t tag) {
    return [&log, &sim, tag] { log.emplace_back(sim.now(), tag); };
  };
  log.emplace_back(sim.next_event_time(), sim.pending_events());
  sim.schedule_at(10'000'000, fire(1));
  sim.run_until(5'000'000);  // Far short of the only event.
  log.emplace_back(sim.now(), sim.pending_events());
  log.emplace_back(sim.next_event_time(), 0);
  sim.schedule_at(5'000'001, fire(2));
  sim.schedule_at(9'999'999, fire(3));
  sim.schedule_at(10'000'000, fire(4));  // Ties with #1 on time.
  log.emplace_back(sim.next_event_time(), sim.pending_events());
  sim.run_until(10'000'000);
  log.emplace_back(sim.now(), sim.pending_events());
  log.emplace_back(sim.next_event_time(), 0);
  sim.run_until(60'000'000);  // Idle: nothing pending at all.
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, RunUntilHorizonsAndIdleGaps) {
  EXPECT_EQ(horizons_and_gaps<Simulator>(),
            horizons_and_gaps<ReferenceCalendar>());
}

}  // namespace
}  // namespace accelflow::sim
