#ifndef ACCELFLOW_SIM_SNAPSHOT_H_
#define ACCELFLOW_SIM_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

/**
 * @file
 * Checkpoint state for the event kernel.
 *
 * A sim::Snapshot is a deep copy of everything the Simulator needs to
 * resume a run bit-identically: the pooled event records (callbacks
 * cloned, generations preserved), the calendar entries (time/seq/slot),
 * and the kernel scalars (now, the monotonic insertion stamp, the
 * executed-event count, the free-list head, throughput counters).
 *
 * The calendar is stored in canonical form: the flat pending-event list
 * sorted by (time, seq). A sorted array is a valid min-heap, so restore
 * adopts it verbatim.
 *
 * The design is in-place restore, not serialization: restore() rebuilds
 * the pool and heap inside the *same* Simulator object, so raw pointers
 * captured by model callbacks (accelerators, engines, contexts) remain
 * valid. Higher layers follow the same pattern — every component exposes a
 * nested `Checkpoint` struct with `checkpoint()`/`restore()` methods, and
 * core::Machine::Checkpoint aggregates them (DESIGN.md §13).
 *
 * Snapshots are move-only (they own cloned callbacks) but a single
 * snapshot can be restored any number of times: restore() clones the
 * stored callbacks again instead of consuming them, which is what lets
 * workload::SweepSession fork one warmup checkpoint across many sweep
 * points.
 */

namespace accelflow::sim {

/**
 * Deep copy of the Simulator's calendar and pool, restorable any number
 * of times into the Simulator it was captured from.
 *
 * Only clonable callbacks can be captured (InlineCallback::clonable());
 * Simulator::checkpoint() asserts this. The sweep engine sidesteps the
 * restriction entirely by checkpointing at quiescence, when the calendar
 * is empty.
 */
struct Snapshot {
  /** Mirror of one pooled event record; the callback is a deep clone. */
  struct EventRecord {
    std::uint32_t gen = 1;       ///< Generation stamp at capture time.
    /** Index into Snapshot::heap (the canonical sorted list) when the
     *  slot is pending, or the free sentinel (0xFFFFFFFF) when free. */
    std::uint32_t heap_pos = 0;
    std::uint32_t next_free = 0; ///< Free-list link.
    InlineCallback cb;           ///< Cloned callback (empty if slot free).
  };

  /** Mirror of one calendar entry (ordering key + pool slot). */
  struct CalendarEntry {
    TimePs time = 0;           ///< Fire time.
    std::uint64_t seq = 0;     ///< Insertion stamp (tie-breaker).
    std::uint32_t slot = 0;    ///< Pool slot holding the callback.
  };

  Snapshot() = default;
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  std::vector<EventRecord> pool;      ///< Pooled event records.
  /** Canonical calendar: pending events sorted by (time, seq). */
  std::vector<CalendarEntry> heap;
  TimePs now = 0;                     ///< Simulated time at capture.
  std::uint64_t next_seq = 0;         ///< Next insertion stamp.
  std::uint64_t executed = 0;         ///< Events executed so far.
  std::uint32_t free_head = 0;        ///< Free-list head (pool index).
  std::uint64_t stats_scheduled = 0;  ///< KernelStats::scheduled.
  std::uint64_t stats_cancelled = 0;  ///< KernelStats::cancelled.
  std::uint64_t stats_clamped = 0;    ///< KernelStats::clamped_past.
  std::uint64_t stats_pool_grown = 0; ///< KernelStats::pool_grown.
  std::size_t stats_pending_high = 0; ///< KernelStats::pending_high_water.
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_SNAPSHOT_H_
