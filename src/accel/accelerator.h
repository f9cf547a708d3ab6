#ifndef ACCELFLOW_ACCEL_ACCELERATOR_H_
#define ACCELFLOW_ACCEL_ACCELERATOR_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "accel/queue_entry.h"
#include "accel/sram_queue.h"
#include "accel/types.h"
#include "mem/iommu.h"
#include "mem/memory_system.h"
#include "mem/tlb.h"
#include "noc/interconnect.h"
#include "obs/tracer.h"
#include "sim/fault_hooks.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "stats/latency_recorder.h"

/**
 * @file
 * The accelerator hardware model (Section IV-A, Figures 6, 9, 10):
 * SRAM input/output queues, processing elements with scratchpads, the input
 * dispatcher, the (serialized) output-dispatcher FSM slot, the per-
 * accelerator translation cache, and the in-memory overflow area.
 *
 * The output dispatcher's *semantics* (trace stepping, branch resolution,
 * data transformation, forwarding) belong to the orchestration layer and
 * are supplied through the OutputHandler interface: AccelFlow installs its
 * Figure-8 FSM, the baselines install interrupt-raising handlers.
 */

namespace accelflow::accel {

class Accelerator;

/** Input-queue scheduling policy (Sections IV-C, V.1). */
enum class SchedPolicy : std::uint8_t {
  kFifo = 0,      ///< Arrival order.
  kPriority = 1,  ///< Highest priority first, FIFO within a level.
  kEdf = 2,       ///< Earliest deadline first (soft-SLO mode).
};

/** Per-accelerator configuration. */
struct AccelParams {
  AccelType type = AccelType::kTcp;
  int num_pes = 8;
  std::size_t input_queue_entries = 64;
  std::size_t output_queue_entries = 64;
  double speedup = 1.0;  ///< Computation speedup over a CPU core.
  double clock_ghz = 2.4;
  double queue_to_spad_latency_ns = 10.0;  ///< Table III.
  double queue_to_spad_gbps = 100.0;
  std::uint64_t scratchpad_bytes = 64 * 1024;
  double tenant_wipe_ns = 200.0;  ///< PE+scratchpad clear between tenants.
  std::size_t overflow_capacity = 64;  ///< Entries in the overflow area.
  SchedPolicy policy = SchedPolicy::kFifo;
  std::size_t tlb_entries = 512;
  std::size_t tlb_ways = 8;
  double fault_service_us = 5.0;  ///< OS page-fault handling round trip.
  /** Input-queue slots held back from priority-0 entries (QoS headroom
   *  for prioritized tenants, DESIGN.md §19). 0 = off. */
  std::size_t reserved_input_slots = 0;
  /** Waiting time per effective-priority level under SchedPolicy::
   *  kPriority: entries age upward so best-effort tenants cannot starve
   *  behind a saturating prioritized tenant. 0 = aging off. */
  double aging_quantum_us = 0.0;
};

/** Observable accelerator counters. */
struct AccelStats {
  std::uint64_t jobs = 0;
  sim::TimePs pe_busy_time = 0;
  sim::TimePs pe_blocked_time = 0;  ///< PEs stalled on a full output queue.
  std::uint64_t tenant_wipes = 0;
  std::uint64_t large_payload_jobs = 0;  ///< Needed the Memory Pointer.
  std::uint64_t overflow_enqueues = 0;    ///< Entries that entered the area.
  std::uint64_t overflow_drains = 0;      ///< Entries refilled into the queue.
  std::uint64_t overflow_rejections = 0;  ///< Overflow area was full.
  std::uint64_t deadline_misses = 0;      ///< Dispatched past the deadline.
  std::uint64_t reorders = 0;             ///< Non-FIFO dispatch decisions.
  std::uint64_t faults = 0;
  /** Jobs consumed by an injected PE hard-failure: the PE ran but produced
   *  no output (DESIGN.md §14). At quiescence the invariant checker expects
   *  jobs == output deposits + killed_jobs. */
  std::uint64_t killed_jobs = 0;
  /** Enqueue attempts refused by an injected queue-full storm (the SRAM
   *  queue itself was not touched, so its alloc counters stay clean). */
  std::uint64_t injected_rejections = 0;
  /** Total injected PE stall latency (subset of pe_busy_time). */
  sim::TimePs injected_stall_time = 0;
  stats::LatencyRecorder input_queue_delay;
  /** Payload sizes consumed / produced (Figure 5). */
  stats::Histogram input_bytes;
  stats::Histogram output_bytes;
};

/**
 * Handles output-queue entries on behalf of the orchestrator.
 *
 * When a PE deposits an entry in the output queue, the accelerator invokes
 * handle_output(). The handler occupies the dispatcher FSM via
 * Accelerator::occupy_dispatcher() for its instruction time and must
 * eventually call Accelerator::release_output(slot) so the slot frees and
 * any blocked PE resumes.
 */
class OutputHandler {
 public:
  virtual ~OutputHandler() = default;
  virtual void handle_output(Accelerator& acc, SlotId slot) = 0;
};

/**
 * One accelerator instance.
 *
 * Event flow:
 *   try_enqueue() -> [caller DMAs payload] -> deliver_data() ->
 *   input dispatcher moves entry into a free PE (load + compute) ->
 *   deposit into output queue -> OutputHandler.
 */
class Accelerator {
 public:
  Accelerator(sim::Simulator& sim, const AccelParams& params,
              mem::MemorySystem& mem, mem::Iommu& iommu,
              noc::Location location);

  /** Installs the orchestration-layer output handler. */
  void set_output_handler(OutputHandler* handler) { handler_ = handler; }

  AccelType type() const { return params_.type; }
  const AccelParams& params() const { return params_; }
  noc::Location location() const { return location_; }

  // --- Input side -----------------------------------------------------

  /**
   * Allocates an input-queue slot for `e` (the Enqueue instruction /
   * an output dispatcher's forward). Returns kInvalidSlot when full;
   * the caller then retries, uses the overflow area, or falls back.
   */
  SlotId try_enqueue(QueueEntry e);

  /**
   * Records arrival of one producer's data for the slot; when all producers
   * have delivered, the entry becomes ready and may dispatch.
   */
  void deliver_data(SlotId slot);

  /** Releases a non-ready input entry (e.g. a timed-out TCP wait slot). */
  void release_input(SlotId slot);

  /**
   * Places an entry in the in-memory overflow area (output dispatchers
   * cannot retry; Section IV-A). Returns false if the area is full —
   * the caller must fall back to the CPU.
   */
  bool overflow_enqueue(QueueEntry e);

  bool input_full() const { return input_.full(); }
  std::size_t input_occupancy() const { return input_.occupancy(); }
  std::size_t overflow_occupancy() const { return overflow_.size(); }

  /**
   * True if any entry belonging to `ctx` is still resident in this
   * accelerator: input queue, overflow area, a PE (unless the PE was
   * killed — a killed job's result will never surface), a blocked
   * deposit, or the output queue. The orchestrator's hop watchdog uses
   * this to distinguish a slow-but-alive hop (re-arm and keep waiting)
   * from a genuinely lost one (retry or fall back) — see DESIGN.md §14.
   */
  bool holds_chain(const core::ChainContext* ctx) const;

  /** Direct access to a queued entry (e.g. to attach a response payload). */
  QueueEntry& input_entry(SlotId slot) { return input_.at(slot); }

  // --- Output side (used by OutputHandler implementations) -------------

  /**
   * Serializes `duration` of work on the output-dispatcher FSM.
   * @return the time the FSM finishes this work.
   */
  sim::TimePs occupy_dispatcher(sim::TimePs duration);

  /** Frees an output slot; resumes a PE blocked on output-queue space. */
  void release_output(SlotId slot);

  QueueEntry& output_entry(SlotId slot) { return output_.at(slot); }

  // --- Introspection ----------------------------------------------------

  const AccelStats& stats() const { return stats_; }
  const QueueStats& input_stats() const { return input_.stats(); }
  const QueueStats& output_stats() const { return output_.stats(); }
  std::size_t output_occupancy() const { return output_.occupancy(); }
  const mem::TlbStats& tlb_stats() const { return tlb_.stats(); }
  double pe_utilization() const;
  sim::TimePs dispatcher_busy_time() const { return dispatcher_busy_accum_; }

  /**
   * Models an address translation through the accelerator TLB for a
   * payload access; returns added latency (0 on full TLB hit).
   */
  sim::TimePs translate(TenantId tenant, mem::VirtAddr va,
                        std::uint64_t bytes);

  /** Width of the per-accelerator trace-track block: accelerator `i` owns
   *  tids [i*kTidStride, (i+1)*kTidStride). */
  static constexpr std::uint32_t kTidStride = 32;
  /** Track (within the block) carrying queue-wait spans and overflow
   *  instants. */
  static constexpr std::uint32_t kQueueTid = kTidStride - 2;
  /** Track (within the block) carrying output-dispatcher FSM spans. */
  static constexpr std::uint32_t kDispatcherTid = kTidStride - 1;

  /**
   * Attaches the span tracer. `accel_index` is this accelerator's index in
   * the machine; its trace tracks are tid accel_index*kTidStride + pe for
   * PE-execute spans, + kQueueTid for queue waits, + kDispatcherTid for the
   * output-dispatcher FSM. Also attaches the private TLB (miss instants on
   * the mem process, tid = accel_index + 1; tid 0 there is the IOMMU).
   * Pass nullptr to detach. Recording
   * never perturbs scheduling or timing (see obs/tracer.h).
   */
  void set_tracer(obs::Tracer* tracer, std::uint32_t accel_index);

  /**
   * Attaches (nullptr: detaches) the fault-injection sink consulted at
   * queue admission and PE dispatch/completion (DESIGN.md §14). `unit` is
   * this accelerator's index in the machine, keying the injector's
   * per-accelerator random streams. Unlike the tracer, an attached sink
   * perturbs simulated time; it is part of the deterministic run state.
   */
  void set_fault_hooks(sim::FaultHooks* hooks, int unit) {
    fault_hooks_ = hooks;
    fault_unit_ = unit;
  }

  /**
   * Resizes the PE array (Section VII-C.3 sensitivity sweeps). Only legal
   * while the accelerator is idle (no busy PE, no blocked deposit): asserts
   * otherwise. Used by Machine::set_pes_per_accel to diverge a forked
   * sweep point from a shared warmup checkpoint.
   */
  void set_num_pes(int num_pes);

  /** Adjusts the compute speedup factor (generation sweeps). */
  void set_speedup(double speedup) { params_.speedup = speedup; }

  /**
   * Re-sizes the input and output SRAM queues (queue-depth sweeps and the
   * auto-tuner's queue knob). Only legal while both queues and the
   * overflow area are empty: asserts otherwise, like set_num_pes. A
   * Machine::restore undoes it (queue capacity is part of the captured
   * state).
   */
  void set_queue_capacity(std::size_t entries);

 private:
  struct Pe {
    sim::TimePs free_at = 0;
    bool busy = false;
    bool has_tenant = false;
    /** Injected hard-failure: the PE runs to completion but its result is
     *  dropped at on_pe_done (counted in AccelStats::killed_jobs). */
    bool killed = false;
    TenantId last_tenant = 0;
    /** The entry this PE is computing on. Held here (not in the completion
     *  callback) so the kernel callback captures only the PE index. */
    QueueEntry inflight;
  };
  struct BlockedDeposit {
    int pe = 0;
    QueueEntry entry;
    sim::TimePs blocked_since = 0;
  };

 public:
  /** Deep copy of all mutable accelerator state (DESIGN.md §13). */
  struct Checkpoint {
    mem::Tlb::Checkpoint tlb;            ///< Translation cache.
    SramQueue::Checkpoint input;         ///< Input queue.
    SramQueue::Checkpoint output;        ///< Output queue.
    std::vector<Pe> pes;                 ///< PE occupancy + inflight entries.
    std::deque<BlockedDeposit> blocked;  ///< PEs stalled on output space.
    std::deque<QueueEntry> overflow;     ///< In-memory overflow area.
    sim::TimePs dispatcher_busy_until = 0;  ///< Output FSM horizon.
    sim::TimePs dispatcher_busy_accum = 0;  ///< Output FSM busy total.
    std::uint64_t last_dispatched_seq = 0;  ///< Reorder detection stamp.
    AccelStats stats;                    ///< Counters + recorders.
    AccelParams params;                  ///< Divergable knobs (PEs, speedup).
  };

  /** Captures all mutable state (handler/tracer wiring excluded). */
  Checkpoint checkpoint() const {
    return Checkpoint{tlb_.checkpoint(),
                      input_.checkpoint(),
                      output_.checkpoint(),
                      pes_,
                      blocked_,
                      overflow_,
                      dispatcher_busy_until_,
                      dispatcher_busy_accum_,
                      last_dispatched_seq_,
                      stats_,
                      params_};
  }

  /** Restores state captured by checkpoint(). */
  void restore(const Checkpoint& c) {
    tlb_.restore(c.tlb);
    input_.restore(c.input);
    output_.restore(c.output);
    pes_ = c.pes;
    free_pes_ = 0;
    for (const Pe& p : pes_) free_pes_ += !p.busy;
    blocked_ = c.blocked;
    overflow_ = c.overflow;
    dispatcher_busy_until_ = c.dispatcher_busy_until;
    dispatcher_busy_accum_ = c.dispatcher_busy_accum;
    last_dispatched_seq_ = c.last_dispatched_seq;
    stats_ = c.stats;
    params_ = c.params;
    rebuild_ready_index();
  }

 private:
  /** Dispatches ready entries to free PEs until one side runs out. */
  void try_dispatch();

  /** Chooses the next ready input slot per the scheduling policy. */
  SlotId pick_ready_entry();

  /** Recomputes ready_fifo_ from the input queue (after a restore). */
  void rebuild_ready_index();

  /** PE finished computing: deposit its entry (or block on a full output
   *  queue). */
  void on_pe_done(int pe);

  /** Deposits into the output queue and invokes the handler. */
  void deposit_output(QueueEntry entry);

  /** Moves overflow entries into freed input slots. */
  void drain_overflow();

  sim::Simulator& sim_;
  AccelParams params_;
  mem::MemorySystem& mem_;
  mem::Iommu& iommu_;
  noc::Location location_;
  sim::Clock clock_;
  mem::Tlb tlb_;
  OutputHandler* handler_ = nullptr;

  SramQueue input_;
  SramQueue output_;
  /** Lazy min-(seq, slot) heap over ready input entries, maintained only
   *  under the FIFO policy: the dispatcher's pick is O(log ready) instead
   *  of a walk over every occupied slot. Stale tops (the slot was released
   *  or reused, detectable by a seq mismatch) are discarded at the next
   *  pick. Derived state: rebuilt from the input queue on restore(). */
  std::vector<std::pair<std::uint64_t, SlotId>> ready_fifo_;
  std::vector<Pe> pes_;
  /** Count of non-busy PEs (derived from pes_; lets the dispatcher skip
   *  the free-PE scan when the array is fully busy). */
  int free_pes_ = 0;
  std::deque<BlockedDeposit> blocked_;
  std::deque<QueueEntry> overflow_;
  sim::TimePs dispatcher_busy_until_ = 0;
  sim::TimePs dispatcher_busy_accum_ = 0;
  std::uint64_t last_dispatched_seq_ = 0;
  AccelStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t tid_base_ = 0;  ///< First trace track of this accelerator.
  sim::FaultHooks* fault_hooks_ = nullptr;  ///< Null: fault-free run.
  int fault_unit_ = 0;  ///< This accelerator's unit id at the injector.
};

}  // namespace accelflow::accel

#endif  // ACCELFLOW_ACCEL_ACCELERATOR_H_
