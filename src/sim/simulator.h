#ifndef ACCELFLOW_SIM_SIMULATOR_H_
#define ACCELFLOW_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single-threaded event calendar: models schedule callbacks at absolute or
 * relative times and the kernel executes them in time order. Ties are broken
 * by insertion order, which makes every run bit-deterministic for a given
 * seed and schedule.
 *
 * Throughput-oriented design (the whole model funnels through here):
 *  - Callbacks are InlineCallback: no heap allocation per event.
 *  - Events live in a pooled slab, recycled through a free list; steady
 *    state allocates nothing.
 *  - The calendar is an index-tracked 4-ary heap: flatter than a binary
 *    heap (fewer cache misses per sift) and, because every record knows
 *    its heap position, cancel() is a true O(log n) eviction instead of a
 *    lazy tombstone, so pending_events() is exact. DESIGN.md §15 records
 *    why this is the only calendar.
 *  - EventIds carry a generation stamp, so a stale id (slot since recycled)
 *    can never cancel an unrelated event.
 */

namespace accelflow::sim {

struct Snapshot;  // sim/snapshot.h

/**
 * Handle to a scheduled event, usable for cancellation.
 *
 * Encoding: bits [32,64) hold (pool slot + 1), bits [0,32) the slot's
 * generation at scheduling time. The +1 keeps every valid id nonzero.
 */
using EventId = std::uint64_t;

/** Sentinel returned for events that can never be cancelled. */
inline constexpr EventId kInvalidEventId = 0;

/** Kernel throughput counters (exported by bench_kernel_events). */
struct KernelStats {
  std::uint64_t scheduled = 0;       ///< Total schedule_at/after calls.
  std::uint64_t cancelled = 0;       ///< Successful cancel() evictions.
  std::uint64_t clamped_past = 0;    ///< schedule_at with t < now (clamped).
  std::uint64_t pool_grown = 0;      ///< Event records ever allocated.
  std::size_t pending_high_water = 0;  ///< Max simultaneous pending events.

  /**
   * Heap allocations avoided versus the classic std::function-per-event
   * kernel: every scheduled event except the ones that grew the slab
   * reused pooled storage.
   */
  std::uint64_t allocs_avoided() const { return scheduled - pool_grown; }
};

/**
 * Passive observer of kernel event execution.
 *
 * A probe sees every event the kernel runs, at the moment now() has been
 * advanced to the event's fire time but before its callback executes. It is
 * strictly an observer: probes must not schedule, cancel, or otherwise feed
 * back into the calendar (the validation layer uses one to assert that
 * simulated time never moves backwards — see check/invariant_checker.h).
 *
 * Zero-overhead-when-off: the kernel holds a null-by-default pointer and
 * pays one predictable branch per event when no probe is attached, the same
 * discipline as obs::Tracer and sim/log.h.
 */
class EventProbe {
 public:
  virtual ~EventProbe() = default;
  /** Called once per executed event, after now() advanced to `now`. */
  virtual void on_event(TimePs now) = 0;
};

/**
 * Event-driven simulator.
 *
 * Not thread safe: the whole simulation runs on one thread, which is what
 * makes deterministic replay possible. (Independent Simulator instances on
 * different threads are fine — see workload::ParallelRunner.)
 */
class Simulator {
 public:
  /** The callable type the calendar stores (allocation-free). */
  using Callback = InlineCallback;

  /** Creates an empty calendar at time 0. */
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  TimePs now() const { return now_; }

  /**
   * Schedules `cb` at absolute time `t`. Returns a cancel handle.
   *
   * Past-time policy: scheduling at t < now() is a model bug — debug
   * builds assert. Release builds clamp to now() (the event fires after
   * the currently running one, preserving determinism) and count the
   * clamp in kernel_stats().clamped_past.
   */
  EventId schedule_at(TimePs t, Callback cb);

  /** Schedules `cb` after `delay` from now. */
  EventId schedule_after(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /**
   * Cancels a pending event: an O(log n) heap eviction.
   *
   * @return true if the event was pending and is now cancelled; false if it
   *         already ran, was already cancelled, or the id is invalid
   *         (generation stamps make all three cases detectable).
   */
  bool cancel(EventId id);

  /**
   * Runs until the calendar is empty or stop() is called.
   * @return the number of events executed.
   */
  std::uint64_t run();

  /**
   * Runs events with time <= `t`, then sets now() = t (if the horizon was
   * reached) and returns. Events scheduled exactly at `t` do execute.
   * @return the number of events executed.
   */
  std::uint64_t run_until(TimePs t);

  /** Requests that run()/run_until() return after the current event. */
  void stop() { stopped_ = true; }

  /** Number of events currently pending (exact: cancelled events leave
   *  the calendar immediately). */
  std::size_t pending_events() const { return heap_.size(); }

  /**
   * Absolute time of the earliest pending event, or `kNoEvent` when the
   * calendar is empty. Lets a windowed multi-simulator driver fast-forward
   * an idle gap instead of crawling through empty lookahead windows
   * (cluster::Datacenter's drain-to-quiescence loop).
   */
  static constexpr TimePs kNoEvent = ~TimePs{0};
  /** See kNoEvent. */
  TimePs next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_[0].time;
  }

  /** Total events executed so far. */
  std::uint64_t executed_events() const { return executed_; }

  /** Kernel throughput counters. */
  const KernelStats& kernel_stats() const { return kstats_; }

  /**
   * Attaches (nullptr: detaches) the execution probe. The probe is not
   * owned and must outlive the run. At most one probe at a time.
   */
  void set_probe(EventProbe* probe) { probe_ = probe; }

  /** The attached probe, or nullptr when none. */
  EventProbe* probe() const { return probe_; }

  /**
   * Deep-copies the calendar, event pool, and kernel scalars into `out`
   * (see sim/snapshot.h). Every pending callback must be clonable
   * (InlineCallback::clonable()); debug builds assert, release builds
   * capture such callbacks as empty. The probe pointer is not captured:
   * observers are attached per run, not per state.
   *
   * The calendar is serialized in canonical form: the flat pending-event
   * list sorted by (time, seq).
   */
  void checkpoint(Snapshot& out) const;

  /**
   * Restores state captured by checkpoint(), in place. The snapshot is
   * not consumed: callbacks are cloned again on every restore, so one
   * snapshot can seed any number of forked runs. After restore the next
   * run_until() continues bit-identically to the original run. Restore
   * adopts the sorted entries directly: a (time, seq)-sorted array is a
   * valid min-heap.
   */
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /** One pooled event record (callback + slot bookkeeping). The ordering
   *  key lives in the heap entry, not here: sift comparisons then touch
   *  only the contiguous heap array, never the scattered pool. */
  struct Event {
    std::uint32_t gen = 1;  ///< Bumped on every recycle.
    std::uint32_t heap_pos = kNoSlot;  ///< Index into heap_; kNoSlot = free.
    std::uint32_t next_free = kNoSlot;
    Callback cb;
  };

  /** One calendar entry: ordering key inline, payload in the pool. */
  struct HeapEntry {
    TimePs time;        ///< Fire time.
    std::uint64_t seq;  ///< Monotonic insertion stamp: the tie-breaker.
    std::uint32_t slot; ///< Pool record holding the callback.
  };

  /** True when entry `a` fires strictly before entry `b`. */
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  /** Unlinks `slot` from the heap (it must be linked). */
  void unlink_from_heap(std::uint32_t slot);

  /** Returns `slot` to the free list and bumps its generation. */
  void recycle(std::uint32_t slot);

  /** Allocates a pool slot (free list first, then slab growth). */
  std::uint32_t alloc_slot();

  /** Pops and runs the earliest event. Returns false if none runnable. */
  bool step();

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::vector<Event> pool_;         ///< Slab of pooled event records.
  std::vector<HeapEntry> heap_;     ///< 4-ary min-heap, keys inline.
  std::uint32_t free_head_ = kNoSlot;  ///< Free-list head into pool_.

  KernelStats kstats_;
  EventProbe* probe_ = nullptr;  ///< Passive observer; null when off.
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_SIMULATOR_H_
