#ifndef ACCELFLOW_WORKLOAD_EXPERIMENT_H_
#define ACCELFLOW_WORKLOAD_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "core/orch_baselines.h"
#include "core/orchestrator.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "qos/admission.h"
#include "qos/power.h"
#include "workload/load_generator.h"
#include "workload/request_engine.h"
#include "workload/suites.h"

/**
 * @file
 * One-call experiment harness used by every bench binary: builds a machine,
 * registers the trace templates, instantiates a suite, applies a load, and
 * reports per-service latency plus machine-level activity.
 */

namespace accelflow::workload {

/** Full description of one experiment run. */
struct ExperimentConfig {
  core::OrchKind kind = core::OrchKind::kAccelFlow;
  core::MachineConfig machine;
  core::EngineConfig engine;
  std::vector<ServiceSpec> specs;
  LoadGenerator::Model load_model = LoadGenerator::Model::kTrace;
  /** Per-service mean RPS; if empty, `rps_per_service` applies to all. */
  std::vector<double> per_service_rps;
  double rps_per_service = 13400.0;
  sim::TimePs warmup = sim::milliseconds(20);
  sim::TimePs measure = sim::milliseconds(120);
  sim::TimePs drain = sim::milliseconds(30);
  std::uint64_t seed = 1;
  /** Deadline budget per accelerator step (SLO runs); kTimeNever = off. */
  sim::TimePs step_deadline_budget = sim::kTimeNever;
  /** Per-service override of step_deadline_budget (empty = uniform). */
  std::vector<sim::TimePs> step_deadline_budgets;

  /**
   * Optional span tracer attached to the run's machine (see obs/tracer.h);
   * nullptr (the default) disables tracing entirely. Attach at most one
   * tracer to one experiment point when sweeping in parallel — the tracer
   * is single-simulation state.
   */
  obs::Tracer* tracer = nullptr;
  /**
   * Optional metrics registry snapshotted at the end of the run with the
   * machine- and orchestrator-level counters (see obs/metrics.h).
   */
  obs::MetricsRegistry* metrics = nullptr;
  /**
   * Optional runtime invariant checker (see check/invariant_checker.h):
   * attached to the run's machine before any load is applied, final-
   * audited after the drain, and detached before the machine is torn
   * down. Violations accumulate in the checker for the caller to inspect.
   * Like the tracer, attach one checker to one experiment point when
   * sweeping in parallel. Independent of this field, setting AF_CHECK=1
   * in the environment attaches an internal checker to *every* run and
   * aborts with a report on any violation — the test suite runs this way.
   */
  check::InvariantChecker* checker = nullptr;

  /**
   * Deterministic fault-injection plan (see fault/fault_plan.h); the
   * default plan injects nothing. When enabled, the run constructs its own
   * fault::FaultInjector, attaches it to the machine, and the AccelFlow
   * orchestrator's resilience policy (hop watchdogs, retries, health
   * quarantine — DESIGN.md §14) activates. Independent of this field,
   * setting AF_FAULTS=<rate> in the environment applies a uniform plan at
   * that rate to every run (TESTING.md). Engine-family orchestrators
   * only: the baselines carry no recovery policy, so injecting faults
   * into them would strand chains forever rather than measure anything —
   * baseline runs ignore the plan and stay fault-free.
   */
  fault::FaultPlan faults;

  /**
   * Multi-tenant QoS policy (DESIGN.md §19). When enabled, the run
   * constructs a qos::AdmissionController at the load-generator boundary,
   * threads the policy into the engine (per-tenant chain quotas, entry
   * priorities) and the machine (reserved input slots, priority aging).
   * The default empty policy is a behavioral no-op. Independent of this
   * field, AF_QOS=1 in the environment applies
   * qos::QosPolicy::isolation_defaults() to runs with no explicit policy.
   */
  qos::QosPolicy qos;

  /**
   * Package power cap (DESIGN.md §19): budget_w > 0 attaches a
   * qos::PowerGovernor that DVFS-scales every accelerator's PE speed to
   * hold the modeled power under the budget. Default: off.
   */
  qos::PowerCapConfig power;
};

/** Per-service outcome. */
struct ServiceResult {
  std::string name;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t faulted = 0;  ///< Needed fault recovery (DESIGN.md §14).
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  stats::LatencyRecorder latency;
};

/** Aggregate outcome of one run. */
struct ExperimentResult {
  std::vector<ServiceResult> services;
  double avg_mean_us = 0;
  double avg_p99_us = 0;

  // Machine activity over the measured window (approximately: whole run).
  double core_utilization = 0;
  std::array<double, accel::kNumAccelTypes> accel_utilization{};
  double dma_utilization = 0;
  sim::TimePs core_busy = 0;
  sim::TimePs accel_busy = 0;
  std::array<sim::TimePs, accel::kNumAccelTypes> accel_busy_by_type{};
  sim::TimePs elapsed = 0;  ///< Total simulated duration of the run.
  sim::TimePs dispatcher_busy = 0;
  sim::TimePs manager_busy = 0;
  sim::TimePs dma_busy = 0;
  sim::TimePs orchestration_time = 0;  ///< Baseline coordination time.
  std::uint64_t interrupts = 0;
  std::uint64_t manager_events = 0;

  core::EngineStats engine;       ///< AccelFlow-family runs.
  core::BaselineStats baseline;   ///< Baseline runs.
  fault::FaultStats faults;       ///< Injected faults (zero when disabled).

  // QoS accounting (DESIGN.md §19; empty/zero unless a policy was active).
  std::vector<qos::TenantAdmissionStats> qos_tenants;  ///< By tenant id.
  std::uint64_t qos_shed_total = 0;  ///< Arrivals shed at the boundary.
  qos::PowerStats power;             ///< Governor stats (budget_w > 0).

  // High-overhead event rates (Section VII-B.6).
  std::uint64_t overflow_enqueues = 0;
  std::uint64_t overflow_rejections = 0;
  std::uint64_t accel_invocations = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t deadline_misses = 0;

  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const auto& s : services) n += s.completed;
    return n;
  }
};

/** Runs one experiment. */
ExperimentResult run_experiment(const ExperimentConfig& config);

/** True when AF_CHECK=1 (anything but "0"/"") is set in the environment:
 *  every run attaches an internal invariant checker and aborts on any
 *  violation. The test suite runs this way (TESTING.md). */
bool af_check_enabled();

/** The AF_FAULTS environment knob: a per-site fault rate in [0, 1] that
 *  applies fault::FaultPlan::uniform(rate) to every run whose config does
 *  not already carry a plan. Returns 0 when unset or unparsable. */
double af_fault_rate();

/** True when AF_QOS=1 (anything but "0"/"") is set in the environment:
 *  runs whose config carries no explicit QoS policy get
 *  qos::QosPolicy::isolation_defaults() instead (DESIGN.md §19). */
bool af_qos_enabled();

/** The run's effective QoS policy: config.qos, or — under AF_QOS=1 when
 *  that is empty — qos::QosPolicy::isolation_defaults() for the config's
 *  services. Shared by run_experiment() and SweepSession. */
qos::QosPolicy resolve_qos_policy(const ExperimentConfig& config);

/** Copies `mc` with `policy`'s dispatcher knobs (reserved input slots,
 *  aging quantum) applied, so accelerators are built with them. */
core::MachineConfig with_qos(core::MachineConfig mc,
                             const qos::QosPolicy& policy);

/**
 * Collects the end-of-run measurements — per-service latency, machine
 * activity, orchestrator counters, and (optionally) a metrics-registry
 * snapshot — from a machine that has finished simulating. Shared by
 * run_experiment() and the checkpoint-and-fork SweepSession so both
 * report byte-identical structures for the same simulated timeline.
 */
ExperimentResult harvest_result(core::Machine& machine,
                                const core::Orchestrator& orch,
                                const RequestEngine& engine,
                                obs::MetricsRegistry* metrics = nullptr);

/**
 * Unloaded per-service latency (P50 at a trickle load) — the basis of the
 * paper's SLO = 5x unloaded service execution time.
 */
std::vector<sim::TimePs> unloaded_latency(ExperimentConfig config,
                                          core::OrchKind kind);

/**
 * Speculation counters of one find_max_load() call (DESIGN.md §10.1). A
 * speculative probe either is used (the serial search consumed it), is
 * cancelled (the search left it before it finished), or finished unused;
 * used / launched is the prediction hit rate.
 */
struct SpeculationStats {
  std::uint64_t probes = 0;     ///< Probes the serial search consumed.
  std::uint64_t launched = 0;   ///< Probes started ahead on a free slot.
  std::uint64_t used = 0;       ///< Launched probes the search consumed.
  std::uint64_t cancelled = 0;  ///< Launched probes stopped unfinished.
};

/**
 * Maximum per-service load multiplier (applied to the configured rates)
 * such that every service's P99 stays within its SLO (a service that
 * completes nothing violates it). The search probes `lo`, then a
 * geometric grid (x1.35) up to the first violation below `hi`, then
 * bisects that bracket at most `search_iters` times.
 *
 * The probes run speculatively, but the answer is the serial search's,
 * bit for bit: every decision is the serial one, taken in order, on the
 * results of the very probes the serial loop would run. Free slots of the
 * process-wide ParallelRunner budget run the probes predicted to come
 * next (p99/SLO ratios interpolated log-linearly in load), and a probe
 * that the search's decisions rule out is cancelled. With no free slot
 * (e.g. AF_BENCH_THREADS=1), or when `base` carries a tracer, checker or
 * metrics registry (single-simulation observers), nothing runs ahead and
 * the search is the plain serial loop. An exception from a probe surfaces
 * only if the serial search consumes that probe. DESIGN.md §10.1.
 *
 * @param slos per-service latency SLOs.
 * @param at_peak if non-null, receives the result at the found point.
 * @param speculation if non-null, receives the speculation counters.
 * @return the multiplier, or 0 when even `lo` violates the SLO.
 */
double find_max_load(const ExperimentConfig& base,
                     const std::vector<sim::TimePs>& slos,
                     int search_iters = 7, double lo = 0.05,
                     double hi = 12.0, ExperimentResult* at_peak = nullptr,
                     SpeculationStats* speculation = nullptr);

/** Test seam for find_max_load(): the search with a substitute probe. */
namespace detail {

/** Runs one search probe; find_max_load() passes run_experiment. */
using ProbeFn = std::function<ExperimentResult(const ExperimentConfig&)>;

/** find_max_load() with `probe` in place of run_experiment. */
double find_max_load(const ProbeFn& probe, const ExperimentConfig& base,
                     const std::vector<sim::TimePs>& slos, int search_iters,
                     double lo, double hi, ExperimentResult* at_peak,
                     SpeculationStats* speculation);

/** True on a thread running a speculative probe that the search has
 *  cancelled; run_experiment polls it between calendar slices. */
bool probe_cancelled();

}  // namespace detail

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_EXPERIMENT_H_
