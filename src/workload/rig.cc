#include "workload/rig.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/orch_baselines.h"
#include "core/trace_templates.h"
#include "critpath/critpath.h"

namespace accelflow::workload {
namespace {

/** The AF_FAULTS environment knob: a per-site fault rate in [0, 1] that
 *  applies fault::FaultPlan::uniform(rate) to every run whose config does
 *  not already carry a plan. Returns 0 when unset or unparsable. */
double af_fault_rate() {
  const char* v = std::getenv("AF_FAULTS");
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double rate = std::strtod(v, &end);
  if (end == v || rate <= 0.0) return 0.0;
  return std::min(rate, 1.0);
}

/** True when AF_QOS=1 (anything but "0"/"") is set in the environment:
 *  runs whose config carries no explicit QoS policy get
 *  qos::QosPolicy::isolation_defaults() instead (DESIGN.md §19). */
bool af_qos_enabled() {
  const char* v = std::getenv("AF_QOS");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/** The run's effective QoS policy: config.qos, or — under AF_QOS=1 when
 *  that is empty — the tenant-isolation defaults for its services. */
qos::QosPolicy resolve_qos_policy(const ExperimentConfig& config) {
  if (config.qos.enabled() || !af_qos_enabled()) return config.qos;
  return qos::QosPolicy::isolation_defaults(config.specs.size());
}

/** `mc` with `policy`'s dispatcher knobs (reserved input slots, aging
 *  quantum) applied, so accelerators are built with them. */
core::MachineConfig with_qos(core::MachineConfig mc,
                             const qos::QosPolicy& policy) {
  if (policy.enabled()) {
    if (policy.reserved_input_slots > 0) {
      mc.reserved_input_slots = policy.reserved_input_slots;
    }
    if (policy.aging_quantum_us > 0.0) {
      mc.sched_aging_quantum_us = policy.aging_quantum_us;
    }
  }
  return mc;
}

/** The machine config of shard `shard`: QoS knobs applied, and beyond
 *  shard 0 a decorrelated machine seed. */
core::MachineConfig shard_machine(const ExperimentConfig& config,
                                  const qos::QosPolicy& policy,
                                  std::size_t shard) {
  core::MachineConfig mc = with_qos(config.machine, policy);
  if (shard > 0) mc.seed = mix_seed(mc.seed, 0x5AD0 + shard);
  return mc;
}

/** Per-service latency, machine activity and orchestrator counters of a
 *  machine that has finished simulating, plus an optional metrics-registry
 *  snapshot. */
ExperimentResult harvest_result(core::Machine& machine,
                                const core::Orchestrator& orch,
                                const RequestEngine& engine,
                                obs::MetricsRegistry* metrics) {
  ExperimentResult out;
  out.services.resize(engine.num_services());
  double sum_mean = 0, sum_p99 = 0;
  std::size_t measured = 0;
  for (std::size_t s = 0; s < engine.num_services(); ++s) {
    ServiceResult& r = out.services[s];
    const ServiceStats& st = engine.stats(s);
    r.name = engine.service(s).name();
    r.completed = st.completed;
    r.failed = st.failed;
    r.fallbacks = st.fallbacks;
    r.faulted = st.faulted;
    r.latency = st.latency;
    if (st.latency.count() > 0) {
      r.mean_us = sim::to_microseconds(
          static_cast<sim::TimePs>(st.latency.mean()));
      r.p50_us = sim::to_microseconds(st.latency.p50());
      r.p99_us = sim::to_microseconds(st.latency.p99());
      sum_mean += r.mean_us;
      sum_p99 += r.p99_us;
      ++measured;
    }
  }
  if (measured > 0) {
    out.avg_mean_us = sum_mean / static_cast<double>(measured);
    out.avg_p99_us = sum_p99 / static_cast<double>(measured);
  }

  // Machine activity.
  out.elapsed = machine.sim().now();
  out.core_utilization = machine.cores().utilization();
  out.core_busy = machine.cores().stats().busy_time;
  out.dma_utilization = machine.dma().utilization();
  out.dma_busy = machine.dma().stats().busy_time;
  out.manager_busy = machine.manager().total_busy_time();
  out.interrupts = machine.cores().stats().interrupts;
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    const auto& acc = machine.accel(t);
    out.accel_utilization[accel::index_of(t)] = acc.pe_utilization();
    out.accel_busy += acc.stats().pe_busy_time;
    out.accel_busy_by_type[accel::index_of(t)] = acc.stats().pe_busy_time;
    out.dispatcher_busy += acc.dispatcher_busy_time();
    out.overflow_enqueues += acc.stats().overflow_enqueues;
    out.overflow_rejections += acc.stats().overflow_rejections;
    out.accel_invocations += acc.stats().jobs;
    out.tlb_lookups += acc.tlb_stats().lookups;
    out.tlb_misses += acc.tlb_stats().misses();
    out.page_faults += acc.stats().faults;
    out.deadline_misses += acc.stats().deadline_misses;
  }
  if (const auto* eng = orch.engine()) {
    out.engine = eng->stats();
  } else if (const auto* base =
                 dynamic_cast<const core::BaselineOrchestrator*>(&orch)) {
    out.baseline = base->stats();
    out.orchestration_time = base->stats().orchestration_time;
    out.manager_events = base->stats().manager_events;
  }
  if (metrics != nullptr) {
    machine.snapshot_metrics(*metrics);
    if (const auto* eng = orch.engine()) {
      eng->snapshot_metrics(*metrics);
    }
  }
  return out;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

bool af_check_enabled() {
  const char* v = std::getenv("AF_CHECK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

Rig::Rig(const ExperimentConfig& config, sim::TimePs issue_until,
         sim::TimePs govern_until, std::size_t shard)
    : config_(config),
      shard_(shard),
      // QoS policy resolution (DESIGN.md §19): its dispatcher knobs thread
      // into the machine config, its quotas and priorities into the engine
      // config below.
      policy_(resolve_qos_policy(config)),
      machine_(shard_machine(config, policy_, shard)) {
  if (shard_ == 0 && config_.tracer != nullptr) {
    machine_.set_tracer(config_.tracer);
  }
  core::register_templates(lib_);
  register_relief_traces(lib_);

  // Validation: the caller's checker (single-simulation state, so shard 0
  // only), or — under AF_CHECK=1 — an internal one that turns any
  // invariant violation into a hard failure. The whole test suite runs
  // with AF_CHECK=1, so every run any test drives is audited (TESTING.md).
  checker_ = shard_ == 0 ? config_.checker : nullptr;
  if (checker_ == nullptr && af_check_enabled()) {
    env_checker_ = std::make_unique<check::InvariantChecker>();
    checker_ = env_checker_.get();
  }
  if (checker_ != nullptr) checker_->attach(machine_, lib_);

  services_ = build_services(config_.specs, lib_);
  std::vector<Service*> service_ptrs;
  for (auto& s : services_) service_ptrs.push_back(s.get());

  core::EngineConfig engine_config = config_.engine;
  if (policy_.enabled()) engine_config.qos = policy_;
  orch_ = core::make_orchestrator(config_.kind, machine_, lib_,
                                  engine_config);

  // Fault injection: the config's plan, or — under AF_FAULTS=<rate> — a
  // uniform plan. The injector is run-owned state (it perturbs simulated
  // time, so it forks with the machine), unlike the tracer and checker.
  // Only engine-family orchestrators carry the resilience policy that can
  // recover injected losses (DESIGN.md §14); a baseline would strand
  // chains forever, so baselines always run fault-free.
  fault::FaultPlan plan = config_.faults;
  if (!plan.enabled()) {
    const double rate = af_fault_rate();
    if (rate > 0) plan = fault::FaultPlan::uniform(rate);
  }
  if (plan.enabled() && orch_->engine() != nullptr) {
    if (shard_ > 0) plan.seed = mix_seed(plan.seed, 0xFA010 + shard_);
    injector_ = std::make_unique<fault::FaultInjector>(machine_.sim(), plan);
    machine_.set_fault_hooks(injector_.get());
  }

  const std::uint64_t engine_seed =
      shard_ == 0 ? config_.seed : mix_seed(config_.seed, 0xE191E + shard_);
  engine_ = std::make_unique<RequestEngine>(machine_, *orch_, service_ptrs,
                                            engine_seed);
  if (!config_.step_deadline_budgets.empty()) {
    engine_->set_step_deadline_budgets(config_.step_deadline_budgets);
  } else {
    engine_->set_step_deadline_budget(config_.step_deadline_budget);
  }

  // QoS admission controller (DESIGN.md §19): consulted by every generator
  // before injection and fed every completion's latency.
  if (policy_.enabled()) {
    admission_ =
        std::make_unique<qos::AdmissionController>(machine_.sim(), policy_);
    engine_->set_admission(admission_.get());
  }

  // Generator seeds ignore the shard, so cluster shards replay one
  // arrival calendar and the balancer alone decides ownership.
  for (std::size_t s = 0; s < services_.size(); ++s) {
    const double rps = config_.per_service_rps.empty()
                           ? config_.rps_per_service
                           : config_.per_service_rps[s];
    if (rps <= 0) continue;
    gens_.push_back(std::make_unique<LoadGenerator>(
        machine_.sim(), *engine_, s, config_.load_model, rps, issue_until,
        config_.seed ^ (0x10AD + 1315423911ull * (s + 1))));
    if (admission_ != nullptr) gens_.back()->set_admission(admission_.get());
    gen_rates_.push_back(rps);
  }

  // Power cap (DESIGN.md §19): the governor's epoch events stop at
  // `govern_until`, so the calendar still drains to quiescence.
  if (config_.power.budget_w > 0.0) {
    governor_ = std::make_unique<qos::PowerGovernor>(machine_, config_.power);
    governor_->start(govern_until);
  }
}

Rig::~Rig() {
  if (checker_ != nullptr) checker_->detach();
}

Rig::Checkpoint Rig::checkpoint() const {
  Checkpoint c;
  machine_.checkpoint(c.machine);
  c.orch = orch_->save_checkpoint();
  c.engine = engine_->checkpoint();
  c.gens.reserve(gens_.size());
  for (const auto& g : gens_) c.gens.push_back(g->checkpoint());
  if (checker_ != nullptr) c.checker = checker_->checkpoint();
  if (injector_ != nullptr) c.injector = injector_->checkpoint();
  if (admission_ != nullptr) c.admission = admission_->checkpoint();
  if (governor_ != nullptr) c.governor = governor_->checkpoint();
  return c;
}

void Rig::restore(const Checkpoint& c) {
  machine_.restore(c.machine);
  orch_->restore_checkpoint(*c.orch);
  engine_->restore(c.engine);
  for (std::size_t i = 0; i < gens_.size(); ++i) gens_[i]->restore(c.gens[i]);
  if (checker_ != nullptr) checker_->restore(c.checker);
  if (injector_ != nullptr) injector_->restore(c.injector);
  if (admission_ != nullptr) admission_->restore(c.admission);
  if (governor_ != nullptr) governor_->restore(c.governor);
}

void Rig::resume(double rate_factor, sim::TimePs issue_until,
                 sim::TimePs govern_until) {
  for (std::size_t i = 0; i < gens_.size(); ++i) {
    gens_[i]->resume(gen_rates_[i] * rate_factor, issue_until);
  }
  if (governor_ != nullptr) governor_->resume(govern_until);
}

void Rig::reset_stats() {
  engine_->reset_stats();
  if (injector_ != nullptr) injector_->reset_stats();
  if (admission_ != nullptr) admission_->reset_stats();
  if (governor_ != nullptr) governor_->reset_stats();
}

ExperimentResult Rig::harvest() {
  obs::MetricsRegistry* metrics = shard_ == 0 ? config_.metrics : nullptr;
  ExperimentResult out = harvest_result(machine_, *orch_, *engine_, metrics);
  if (injector_ != nullptr) {
    out.faults = injector_->stats();
    if (metrics != nullptr) injector_->snapshot_metrics(*metrics);
  }
  if (admission_ != nullptr) {
    out.qos_tenants = admission_->tenant_stats();
    out.qos_shed_total = admission_->total_shed();
    if (metrics != nullptr) admission_->snapshot_metrics(*metrics);
  }
  if (governor_ != nullptr) {
    out.power = governor_->stats();
    if (metrics != nullptr) governor_->snapshot_metrics(*metrics);
  }
  return out;
}

void Rig::final_audit() {
  if (checker_ == nullptr) return;
  checker_->final_audit();
  if (env_checker_ != nullptr && !checker_->ok()) {
    std::fprintf(stderr, "AF_CHECK: invariant violations detected\n%s",
                 checker_->report().c_str());
    std::abort();
  }
}

void audit_critical_path(const obs::Tracer* tracer) {
  if (tracer == nullptr || !af_check_enabled()) return;
  critpath::Analyzer audit;
  audit.analyze(*tracer);
  if (audit.violations().empty()) return;
  std::fprintf(stderr,
               "AF_CHECK: critical-path conservation violated (%zu chains)\n",
               audit.violations().size());
  for (const std::string& v : audit.violations()) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  std::abort();
}

}  // namespace accelflow::workload
