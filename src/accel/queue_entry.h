#ifndef ACCELFLOW_ACCEL_QUEUE_ENTRY_H_
#define ACCELFLOW_ACCEL_QUEUE_ENTRY_H_

#include <cstdint>

#include "accel/types.h"
#include "sim/time.h"

namespace accelflow::core {
// Orchestration-level context for the accelerator chain this entry belongs
// to. The hardware model never dereferences it; it is carried opaquely with
// the entry (the way the real hardware carries the trace + metadata) and
// interpreted by the orchestrator's output handler.
struct ChainContext;
}  // namespace accelflow::core

/**
 * @file
 * The contents of one SRAM input/output queue entry (Section IV-A).
 */

namespace accelflow::accel {

/**
 * One queue entry: the trace with its Position Mark, tenant ID, up to 2KB
 * of inline data, a Memory Pointer for larger payloads, and scheduling
 * metadata (priority / deadline for Section IV-C policies).
 *
 * Entries are 2.1KB in the modeled hardware; here they are a value type
 * copied between queues, which mirrors how the A-DMA engines move them.
 */
struct QueueEntry {
  /** Encoded 8-byte trace (see core/trace_encoding.h). */
  std::uint64_t trace_word = 0;
  /** Position Mark: index of the next nibble to interpret. */
  std::uint8_t position_mark = 0;

  TenantId tenant = 0;
  RequestId request = 0;
  /** Distinguishes parallel chains of the same request. */
  std::uint32_t chain = 0;

  Payload payload;

  /** CPU cycles-equivalent cost of the *current* accelerator's computation,
   *  pre-sampled by the workload; the PE runs for cpu_cost / speedup. */
  sim::TimePs cpu_cost = 0;

  /** Scheduling metadata (Section IV-C). */
  std::uint8_t priority = 0;
  sim::TimePs deadline = sim::kTimeNever;

  /** Core to notify at end of trace. */
  int initiating_core = 0;

  /** Orchestration context (opaque to the hardware model). */
  core::ChainContext* ctx = nullptr;

  /** Set when all source data has arrived (input queues only). */
  bool ready = false;
  /** Number of producers still to deliver data before ready. */
  std::uint8_t pending_inputs = 1;

  /** FIFO arrival order stamp, assigned by the queue. */
  std::uint64_t seq = 0;
  /** Time the entry was enqueued (for queueing-delay stats). */
  sim::TimePs enqueued_at = 0;
};

}  // namespace accelflow::accel

#endif  // ACCELFLOW_ACCEL_QUEUE_ENTRY_H_
