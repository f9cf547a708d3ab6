#ifndef ACCELFLOW_CORE_ENGINE_H_
#define ACCELFLOW_CORE_ENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "accel/accelerator.h"
#include "core/chain.h"
#include "core/machine.h"
#include "core/trace_analysis.h"
#include "core/tenant_mba.h"
#include "core/trace_library.h"
#include "core/validation_hooks.h"
#include "qos/policy.h"
#include "sim/pool.h"
#include "stats/summary.h"

/**
 * @file
 * The AccelFlow execution engine: the output-dispatcher FSM of Figure 8,
 * the user-mode Enqueue path with retry/fallback (starvation freedom), the
 * overflow path (deadlock freedom), ATM continuation loading, network-wait
 * arming with timeouts, per-tenant trace throttling (Section IV-D), and
 * soft-SLO deadline propagation (Section IV-C).
 *
 * Ablation flags reproduce the Figure 13 ladder: with dispatcher_branches
 * off, branch resolution round-trips to the centralized hardware manager
 * ("Direct"); with dispatcher_transforms off, data transformations and
 * large-payload handling do too ("CntrFlow"). zero_overhead gives the
 * "Ideal" system of Figure 14.
 */

namespace accelflow::core {

/**
 * Resilience policy for fault-injected runs (DESIGN.md §14).
 *
 * The engine arms a per-chain hop watchdog whenever a fault sink is
 * attached to the machine (Machine::fault_hooks()): if a hop produces no
 * output within the timeout and the chain is no longer held by any
 * accelerator, the hop is declared lost (a PE hard-failure consumed the
 * entry) and re-issued with exponential backoff; after `hop_retries`
 * losses the chain continues on the CPU, which always completes. A
 * slow-but-alive hop (still queued, executing, or overflowed) is never
 * re-issued — the watchdog just re-arms with a doubled timeout.
 *
 * Repeated losses on one accelerator drive a per-type health state
 * machine: Healthy -> Unhealthy after `unhealthy_threshold` consecutive
 * losses (new work re-routes to the CPU for `quarantine_us`), then
 * Probation (work admitted again), then back to Healthy after
 * `probation_successes` completed hops — or straight back to Unhealthy
 * on the first loss during probation.
 *
 * With no fault sink attached nothing here runs, so a fault-free
 * timeline is bit-identical to one built without this subsystem.
 */
struct ResilienceConfig {
  bool enabled = true;            ///< Master switch (watchdogs + health).
  double hop_timeout_us = 50.0;   ///< Watchdog per accelerator hop.
  int hop_retries = 3;            ///< Re-issues before CPU fallback.
  double backoff_base_us = 5.0;   ///< First retry delay.
  double backoff_factor = 2.0;    ///< Delay multiplier per retry.
  int unhealthy_threshold = 3;    ///< Consecutive losses to quarantine.
  double quarantine_us = 200.0;   ///< Re-route window before probation.
  int probation_successes = 8;    ///< Clean hops to regain full health.
};

/** Engine configuration. Glue-instruction counts follow Section VII-B.2. */
struct EngineConfig {
  bool dispatcher_branches = true;    ///< Off = Fig. 13 "Direct".
  bool dispatcher_transforms = true;  ///< Off = Fig. 13 "CntrFlow".
  bool zero_overhead = false;         ///< Fig. 14 "Ideal".

  int enqueue_retries = 3;
  double enqueue_retry_delay_ns = 300.0;
  double response_timeout_ms = 10.0;
  /** Max concurrently-executing traces per tenant (Section IV-D). */
  std::uint32_t tenant_max_active = 1u << 30;

  double base_instrs = 15.0;       ///< FSM work with no branch/end/XF.
  double branch_instrs = 7.0;      ///< Extra for resolving a branch.
  double eot_atm_instrs = 12.0;    ///< End of trace with an ATM address.
  double eot_notify_instrs = 20.0; ///< End of trace with DMA + notify.
  double transform_instrs = 12.0;  ///< DTE control for a 2KB payload.
  double dte_gbps = 50.0;          ///< Data Transform Engine throughput.
  /** Manager events per ablation fallback (interrupt, fetch state,
   *  decide, write back): multiplies manager_event_us. */
  double manager_fallback_events = 4.0;

  /** Enable deadline stamping for SLO scheduling (with SchedPolicy::kEdf). */
  bool stamp_deadlines = false;

  /** Per-tenant MBA-style bandwidth limits on the A-DMA path (IV-D). */
  MbaConfig mba;

  /** Fault-recovery policy; active only with a fault sink attached. */
  ResilienceConfig resilience;

  /**
   * Multi-tenant QoS policy (DESIGN.md §19): per-tenant active-chain
   * quotas and scheduling priorities honored at chain start. The default
   * (no tenants) is a behavioral no-op.
   */
  qos::QosPolicy qos;
};

/** Engine-level counters (Sections VII-B.2, VII-B.6). */
struct EngineStats {
  std::uint64_t chains_started = 0;
  std::uint64_t chains_completed = 0;
  std::uint64_t enqueue_fallbacks = 0;   ///< Enqueue retries exhausted.
  std::uint64_t overflow_fallbacks = 0;  ///< Overflow area full.
  /** Fallbacks by the accelerator type that rejected the work (Fig. 19). */
  std::array<std::uint64_t, accel::kNumAccelTypes> fallbacks_by_type{};
  /** Invocation attempts per type (denominator for fallback shares). */
  std::array<std::uint64_t, accel::kNumAccelTypes> attempts_by_type{};
  std::uint64_t timeouts = 0;            ///< TCP wait-slot timeouts.
  std::uint64_t deferred_arms = 0;       ///< Wait-arming deferred: queue full.
  std::uint64_t manager_fallbacks = 0;   ///< Ablations only.
  std::uint64_t atm_loads = 0;
  std::uint64_t notifications = 0;
  std::uint64_t tenant_throttled = 0;
  /** Subset of tenant_throttled: the QosPolicy per-tenant quota (not the
   *  global tenant_max_active knob) was the binding cap (DESIGN.md §19). */
  std::uint64_t quota_throttled = 0;
  // Per-tenant accounting (grow-on-demand, indexed by tenant id): the
  // end-to-end evidence that a chain's tenant tag survives re-routing —
  // CPU fallback, quarantine, cross-shard RPCs (DESIGN.md §19 tests).
  std::vector<std::uint64_t> completed_by_tenant;
  std::vector<std::uint64_t> faulted_by_tenant;
  std::vector<std::uint64_t> fallback_by_tenant;
  // Fault-recovery accounting (DESIGN.md §14; zero on fault-free runs).
  std::uint64_t hop_timeouts = 0;       ///< Hops declared lost by watchdogs.
  std::uint64_t hop_retries = 0;        ///< Lost hops re-issued.
  std::uint64_t hop_probes = 0;         ///< Watchdog fired, chain alive.
  std::uint64_t retry_exhausted_fallbacks = 0;  ///< Retries spent -> CPU.
  std::uint64_t health_fallbacks = 0;   ///< Re-routed: target quarantined.
  std::uint64_t unhealthy_transitions = 0;  ///< Healthy -> Unhealthy edges.
  std::uint64_t probation_recoveries = 0;   ///< Probation -> Healthy edges.
  std::uint64_t chains_faulted = 0;     ///< Completed but needed recovery.
  // Glue-instruction accounting per output-dispatcher operation.
  stats::Summary glue_instrs;
  std::uint64_t glue_branch_ops = 0;
  std::uint64_t glue_transform_ops = 0;
  std::uint64_t glue_eot_ops = 0;
};

/**
 * The AccelFlow orchestration engine. One instance drives one Machine.
 *
 * Implements accel::OutputHandler: every accelerator's output dispatcher
 * delegates its Figure-8 semantics here.
 */
class AccelFlowEngine : public accel::OutputHandler {
 public:
  AccelFlowEngine(Machine& machine, const TraceLibrary& lib,
                  const EngineConfig& config);

  /**
   * run_trace(): begins executing the chain starting at `first` on behalf
   * of ctx->core. Handles tenant throttling, the user-mode Enqueue with
   * retries, and the initial payload DMA. ctx->on_done fires when control
   * returns to the CPU.
   */
  void start_chain(ChainContext* ctx, AtmAddr first);

  void handle_output(accel::Accelerator& acc, accel::SlotId slot) override;

  const EngineStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }

  /** Active traces for `tenant` (Section IV-D counter). */
  std::uint32_t tenant_active(accel::TenantId tenant) const;

  /** The MBA-style per-tenant bandwidth limiter. */
  TenantBandwidthLimiter& bandwidth_limiter() { return mba_; }

  /**
   * Exports the orchestration-level counters under "engine.*" dotted names
   * (chains, fallbacks, timeouts, glue-instruction totals); pairs with
   * Machine::snapshot_metrics() for the hardware side.
   */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

  /**
   * Per-accelerator health for graceful degradation (ResilienceConfig).
   * Deterministic state: it is part of the engine Checkpoint.
   */
  struct Health {
    enum class State : std::uint8_t { kHealthy = 0, kUnhealthy, kProbation };
    State state = State::kHealthy;
    int consecutive_losses = 0;  ///< Lost hops since the last clean one.
    int probation_successes = 0; ///< Clean hops since entering probation.
    sim::TimePs quarantine_until = 0;
  };

  /** Health of `t` (tests / benches inspect quarantine behaviour). */
  const Health& health(accel::AccelType t) const {
    return health_[accel::index_of(t)];
  }

 private:
  /** The machine's tracer, or nullptr when tracing is off. Fetched per
   *  call so attaching after engine construction works. */
  obs::Tracer* trc() const { return machine_.tracer(); }
  /** The machine's validation checker, or nullptr when checking is off.
   *  Fetched per call for the same late-attach reason as trc(). */
  ValidationHooks* chk() const { return machine_.checker(); }
  /** Enqueue with retry; falls back to the CPU when the queue stays full. */
  void enqueue_with_retry(ChainContext* ctx, accel::QueueEntry entry,
                          accel::AccelType target, int attempt);

  /**
   * Continues interpretation of `e`'s trace at the output dispatcher of
   * `acc` (Figure 8). `e` is a copy of the output-queue entry; `slot` is
   * released once the entry has moved on.
   */
  void run_dispatcher_fsm(accel::Accelerator& acc, accel::SlotId slot);

  /** Forwards `e` into `target`'s input queue via an A-DMA engine. */
  void forward(accel::Accelerator& from, accel::QueueEntry e,
               accel::AccelType target, sim::TimePs ready, bool armed_wait,
               RemoteKind wait_kind);

  /** End of trace, no address: DMA to memory + user-level notification. */
  void finish_to_cpu(accel::Accelerator& from, accel::QueueEntry e,
                     sim::TimePs ready);

  /** Round trip to the centralized manager (ablation fallback path). */
  sim::TimePs manager_round_trip(const accel::Accelerator& at,
                                 sim::TimePs ready);

  /**
   * Graceful CPU fallback: the denied operation runs (unaccelerated) on
   * the initiating core, control ops up to the next accelerator invoke are
   * interpreted by the core, and the chain then re-enters the ensemble.
   * The trace only stays on the CPU while accelerators keep rejecting it.
   */
  void continue_chain_on_cpu(ChainContext* ctx, std::uint64_t word,
                             std::uint8_t pm, std::uint64_t payload_bytes,
                             accel::AccelType pending);

  /** Enqueues a data-ready entry, using the overflow area when full. */
  void forward_into_queue(accel::Accelerator& dst, accel::QueueEntry e);

  /** Fallback for a rejected forward: includes the pending op itself. */
  void cpu_fallback_from_entry(const accel::QueueEntry& e,
                               accel::AccelType pending);

  /** Chain ended: bookkeeping + tenant counter + queued chain starts. */
  void complete_chain(ChainContext* ctx, const ChainResult& result);

  // --- Fault resilience (DESIGN.md §14) ---------------------------------

  /**
   * One chain's hop watchdog: enough saved state to re-issue the pending
   * operation if the accelerator loses it. `timer` is the armed watchdog
   * event — or, between a loss and its re-issue, the backoff event.
   */
  struct HopState {
    sim::EventId timer = sim::kInvalidEventId;
    accel::AccelType target;        ///< Accelerator owing the output.
    std::uint64_t word = 0;         ///< Trace word at hand-off.
    std::uint8_t pm = 0;            ///< Position mark at hand-off.
    std::uint64_t bytes = 0;        ///< Payload size at hand-off.
    accel::DataFormat fmt = accel::DataFormat::kProtoWire;  ///< Payload format.
    int retries = 0;                ///< Re-issues of this hop so far.
    sim::TimePs timeout = 0;        ///< Current watchdog delay.
    /** Known future delivery (DMA arrival, remote response): the chain
     *  cannot be lost before this time; kTimeNever for unbounded nested
     *  waits, 0 once the entry is queued (holds_chain() covers it). */
    sim::TimePs in_flight_until = 0;
  };

  /** Watchdogs (and the health machine) run only in fault-injected runs. */
  bool resilience_active() const {
    return config_.resilience.enabled && machine_.fault_hooks() != nullptr;
  }
  /** (Re-)arms ctx's watchdog for a hand-off to `target`. A re-arm for
   *  the same hop (equal target/word/pm) keeps its retry count. */
  void arm_hop(ChainContext* ctx, accel::AccelType target,
               std::uint64_t word, std::uint8_t pm, std::uint64_t bytes,
               accel::DataFormat fmt, sim::TimePs in_flight_until);
  /** Cancels and forgets ctx's watchdog (hop progressed or chain done). */
  void disarm_hop(ChainContext* ctx);
  /** Records a known future delivery time on ctx's armed watchdog. */
  void note_hop_wait(ChainContext* ctx, sim::TimePs until);
  /** Watchdog fired: probe liveness, then retry / fall back / re-arm. */
  void on_hop_timeout(ChainContext* ctx);
  /** Backoff elapsed: rebuild the lost entry and re-issue it. */
  void retry_hop(ChainContext* ctx);
  /** A hop on `t` produced output: feeds the health state machine. */
  void record_hop_success(accel::AccelType t);
  /** A hop on `t` was lost: feeds the health state machine. */
  void record_hop_failure(accel::AccelType t);
  /** True while `t` is quarantined (lazily advances Unhealthy->Probation). */
  bool reroute_unhealthy(accel::AccelType t);

  sim::TimePs instr_time(double instrs) const;

  /** Grow-on-demand slot of the flat per-tenant active-trace counter. */
  std::uint32_t& tenant_slot(accel::TenantId tenant) {
    if (tenant >= tenant_active_.size()) {
      tenant_active_.resize(static_cast<std::size_t>(tenant) + 1, 0);
    }
    return tenant_active_[tenant];
  }

  Machine& machine_;
  const TraceLibrary& lib_;
  EngineConfig config_;
  EngineStats stats_;
  /** Per-tenant active-trace counts, indexed by tenant id. Tenant ids are
   *  small and dense (request-engine services), so a flat array replaces
   *  the old hash map: the Section IV-D throttle check on every chain
   *  start/finish becomes one indexed load. */
  std::vector<std::uint32_t> tenant_active_;
  struct PendingStart {
    ChainContext* ctx;
    AtmAddr first;
  };
  std::deque<PendingStart> throttled_;
  TenantBandwidthLimiter mba_;
  /** Entries in flight between kernel callbacks (DMA arrivals, enqueue
   *  retries, deferred wait-arms): callbacks capture the 4-byte ticket,
   *  not the ~100-byte entry (see sim/callback.h's capture budget). */
  sim::TicketPool<accel::QueueEntry> parked_;
  /** Armed hop watchdogs by chain; empty on fault-free runs and at every
   *  quiescent point (all chains completed -> all disarmed). */
  std::unordered_map<ChainContext*, HopState> hops_;
  /** Per-accelerator health (indexed by accel::index_of). */
  std::array<Health, accel::kNumAccelTypes> health_{};

 public:
  /**
   * Deep copy of the engine's orchestration state (DESIGN.md §13).
   * `throttled` holds raw ChainContext pointers, so a checkpoint is only
   * meaningful at a quiescent point (no chain in flight), where the deque
   * is empty — workload::SweepSession guarantees that.
   */
  struct Checkpoint {
    EngineStats stats;                        ///< Counters.
    std::vector<std::uint32_t> tenant_active; ///< Per-tenant live traces.
    std::deque<PendingStart> throttled;       ///< Waiting starts (empty).
    TenantBandwidthLimiter::Checkpoint mba;   ///< Token buckets.
    sim::TicketPool<accel::QueueEntry>::Checkpoint parked;  ///< In-flight.
    std::array<Health, accel::kNumAccelTypes> health{};     ///< §14 state.
  };

  /** Captures the engine's orchestration state. */
  Checkpoint checkpoint() const {
    return Checkpoint{stats_, tenant_active_, throttled_, mba_.checkpoint(),
                      parked_.checkpoint(), health_};
  }

  /** Restores state captured by checkpoint(). */
  void restore(const Checkpoint& c) {
    stats_ = c.stats;
    tenant_active_ = c.tenant_active;
    throttled_ = c.throttled;
    mba_.restore(c.mba);
    parked_.restore(c.parked);
    health_ = c.health;
    // Watchdog timers reference the pre-restore calendar; a checkpoint is
    // only taken at quiescence, where every chain has disarmed anyway.
    hops_.clear();
  }
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_ENGINE_H_
