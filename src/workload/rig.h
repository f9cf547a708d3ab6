#ifndef ACCELFLOW_WORKLOAD_RIG_H_
#define ACCELFLOW_WORKLOAD_RIG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariant_checker.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "fault/fault_injector.h"
#include "obs/tracer.h"
#include "qos/admission.h"
#include "qos/power.h"
#include "workload/experiment.h"
#include "workload/load_generator.h"
#include "workload/request_engine.h"
#include "workload/service.h"

/**
 * @file
 * One simulated machine plus its full harness (DESIGN.md §20): the QoS
 * policy, machine, trace library, checker, services, orchestrator, fault
 * injector, request engine, admission controller, power governor and load
 * generators. run_experiment(), SweepSession and every shard of
 * cluster::Datacenter build, fork, harvest and audit a run through a Rig,
 * so the three share one construction order and one set of seeds.
 */

namespace accelflow::workload {

/**
 * Mixes two values into a 64-bit hash (splitmix-style finalizer). Derives
 * per-shard seeds from the experiment's without correlating the streams.
 */
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/**
 * One machine and its harness, built from one ExperimentConfig.
 *
 * Single-threaded like the simulator it owns. The Rig keeps a reference to
 * the config, which must outlive it. Advancing simulated time is the
 * caller's job (through sim()); the Rig builds the run, zeroes its
 * recorders, forks and resumes it, and harvests and audits its result.
 */
class Rig {
 public:
  /**
   * Builds the harness in run_experiment()'s order, which the goldens and
   * perfbench digests pin.
   *
   * @param config the run; its tracer and checker attach to shard 0 only.
   * @param issue_until the generators stop issuing at this time.
   * @param govern_until the power governor's epochs stop at this time.
   * @param shard 0 keeps every seed unperturbed (the single-machine run);
   *        a higher index draws decorrelated machine, engine and fault
   *        seeds but identical generator seeds (cluster::Datacenter's
   *        replicated arrival streams), and attaches only an AF_CHECK
   *        checker.
   */
  Rig(const ExperimentConfig& config, sim::TimePs issue_until,
      sim::TimePs govern_until, std::size_t shard = 0);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  /** Detaches the checker before the machine is torn down. */
  ~Rig();

  /** Deep copy of every forkable component (DESIGN.md §13); take it at
   *  quiescence, when the calendar is empty. */
  struct Checkpoint {
    core::Machine::Checkpoint machine;
    std::unique_ptr<core::OrchCheckpoint> orch;
    RequestEngine::Checkpoint engine;
    std::vector<LoadGenerator::Checkpoint> gens;
    check::InvariantChecker::Checkpoint checker;
    fault::FaultInjector::Checkpoint injector;       ///< RNG streams.
    qos::AdmissionController::Checkpoint admission;  ///< Buckets + EWMAs.
    qos::PowerGovernor::Checkpoint governor;         ///< DVFS level.
  };

  /** Captures the machine and every harness component. */
  Checkpoint checkpoint() const;

  /** Restores state captured by checkpoint() on this same Rig, in place.
   *  Schedules nothing: pair with resume(). */
  void restore(const Checkpoint& c);

  /**
   * Revives the stopped generators at `rate_factor` times their configured
   * rates until `issue_until`, then re-arms the power governor until
   * `govern_until`. Call at a fork point, with the calendar empty.
   */
  void resume(double rate_factor, sim::TimePs issue_until,
              sim::TimePs govern_until);

  /** Zeroes the engine, injector, admission and governor recorders, so
   *  only what follows (the measured window) is harvested. */
  void reset_stats();

  /**
   * Collects the run's result: per-service latency, machine activity,
   * orchestrator counters, and the fault, QoS and power stats. Shard 0
   * also snapshots them into the config's metrics registry, if any.
   */
  ExperimentResult harvest();

  /** Final-audits the checker, if one is attached; under AF_CHECK=1 any
   *  violation prints the checker's report and aborts. */
  void final_audit();

  /** The simulated machine. */
  core::Machine& machine() { return machine_; }
  /** The request engine the generators feed. */
  RequestEngine& engine() { return *engine_; }
  /** The suite's services, in config.specs order. */
  std::vector<std::unique_ptr<Service>>& services() { return services_; }
  /** One generator per driven service (rate > 0), in service order. */
  std::vector<std::unique_ptr<LoadGenerator>>& generators() { return gens_; }

 private:
  const ExperimentConfig& config_;
  const std::size_t shard_;
  /** Effective QoS policy (config.qos or the AF_QOS defaults), resolved
   *  before machine_ so the accelerators are built with its knobs. */
  const qos::QosPolicy policy_;
  core::Machine machine_;
  core::TraceLibrary lib_;
  std::unique_ptr<check::InvariantChecker> env_checker_;  ///< AF_CHECK.
  check::InvariantChecker* checker_ = nullptr;
  std::vector<std::unique_ptr<Service>> services_;
  std::unique_ptr<core::Orchestrator> orch_;
  /** Config plan or AF_FAULTS; engine-family orchestrators only. */
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<qos::AdmissionController> admission_;
  std::unique_ptr<RequestEngine> engine_;
  std::vector<std::unique_ptr<LoadGenerator>> gens_;
  std::vector<double> gen_rates_;  ///< Configured rate per generator.
  std::unique_ptr<qos::PowerGovernor> governor_;
};

/**
 * Under AF_CHECK=1, audits a traced run's critical-path conservation:
 * re-attributing the tracer's ring must account for every picosecond of
 * every closed chain (critpath.h). Prints the violations and aborts on
 * any. No-op when `tracer` is null or AF_CHECK is off.
 */
void audit_critical_path(const obs::Tracer* tracer);

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_RIG_H_
