#ifndef ACCELFLOW_TESTS_REFERENCE_CALENDAR_H_
#define ACCELFLOW_TESTS_REFERENCE_CALENDAR_H_

/**
 * @file
 * Test-only reference event calendar: the simplest structure that honors
 * sim::Simulator's observable contract, kept as the differential oracle
 * for the production 4-ary heap (tests/test_sched.cc).
 *
 * Events live in a std::multimap keyed by fire time. A multimap inserts
 * equal keys after the ones already present, so iteration order is
 * (time, insertion order) — exactly the kernel's (time, seq) order.
 * Cancellation erases through an id -> iterator index, so
 * pending_events() is exact like the heap's. Nothing here is tuned: it
 * exists to be obviously correct.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace accelflow::sim {

class ReferenceCalendar {
 public:
  using Callback = std::function<void()>;

  TimePs now() const { return now_; }

  /** Same past-time policy as the kernel's release build: clamp to now. */
  EventId schedule_at(TimePs t, Callback cb) {
    if (t < now_) {
      ++stats_.clamped_past;
      t = now_;
    }
    const EventId id = next_id_++;
    ids_.emplace(id, events_.emplace(t, Entry{id, std::move(cb)}));
    ++stats_.scheduled;
    if (events_.size() > stats_.pending_high_water) {
      stats_.pending_high_water = events_.size();
    }
    return id;
  }

  EventId schedule_after(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /** False when `id` already fired, was cancelled or was never issued. */
  bool cancel(EventId id) {
    const auto it = ids_.find(id);
    if (it == ids_.end()) return false;
    events_.erase(it->second);
    ids_.erase(it);
    ++stats_.cancelled;
    return true;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  /** Runs events with time <= t, then advances now to t. */
  std::uint64_t run_until(TimePs t) {
    std::uint64_t n = 0;
    while (!events_.empty() && events_.begin()->first <= t) {
      step();
      ++n;
    }
    if (now_ < t) now_ = t;
    return n;
  }

  std::size_t pending_events() const { return events_.size(); }

  TimePs next_event_time() const {
    return events_.empty() ? Simulator::kNoEvent : events_.begin()->first;
  }

  std::uint64_t executed_events() const { return executed_; }

  /** Only scheduled, cancelled, clamped_past and pending_high_water are
   *  maintained (there is no pool to grow). */
  const KernelStats& kernel_stats() const { return stats_; }

 private:
  struct Entry {
    EventId id;
    Callback cb;
  };
  using Events = std::multimap<TimePs, Entry>;

  bool step() {
    if (events_.empty()) return false;
    const auto it = events_.begin();
    now_ = it->first;
    // Unlink before invoking: the callback may schedule or cancel freely.
    Callback cb = std::move(it->second.cb);
    ids_.erase(it->second.id);
    events_.erase(it);
    ++executed_;
    cb();
    return true;
  }

  TimePs now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  Events events_;
  std::unordered_map<EventId, Events::iterator> ids_;
  KernelStats stats_;
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_TESTS_REFERENCE_CALENDAR_H_
