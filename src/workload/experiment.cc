#include "workload/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/orch_baselines.h"
#include "core/trace_templates.h"
#include "critpath/critpath.h"
#include "workload/parallel_runner.h"

namespace accelflow::workload {
namespace {

/** Cancel flag of the speculative probe this thread runs, if any. */
thread_local const std::atomic<bool>* t_probe_cancel = nullptr;

/** Unwinds a cancelled speculative probe; never leaves find_max_load. */
struct ProbeCancelled {};

/**
 * Sim time between a speculative probe's cancel polls. Slicing is exact:
 * run_until(a) then run_until(b) executes the events of one run_until(b)
 * in the same order, because nothing runs between the two calls.
 */
constexpr sim::TimePs kCancelSlice = sim::microseconds(250);

/** run_until(t), in cancel-polled slices on a speculative probe's thread. */
void advance_to(sim::Simulator& sim, sim::TimePs t) {
  if (t_probe_cancel != nullptr) {
    for (sim::TimePs s = sim.now() + kCancelSlice; s < t;
         s += kCancelSlice) {
      sim.run_until(s);
      if (detail::probe_cancelled()) throw ProbeCancelled{};
    }
  }
  sim.run_until(t);
}

}  // namespace

bool detail::probe_cancelled() {
  return t_probe_cancel != nullptr &&
         t_probe_cancel->load(std::memory_order_relaxed);
}

bool af_check_enabled() {
  const char* v = std::getenv("AF_CHECK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

double af_fault_rate() {
  const char* v = std::getenv("AF_FAULTS");
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double rate = std::strtod(v, &end);
  if (end == v || rate <= 0.0) return 0.0;
  return std::min(rate, 1.0);
}

bool af_qos_enabled() {
  const char* v = std::getenv("AF_QOS");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

qos::QosPolicy resolve_qos_policy(const ExperimentConfig& config) {
  if (config.qos.enabled() || !af_qos_enabled()) return config.qos;
  return qos::QosPolicy::isolation_defaults(config.specs.size());
}

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

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // QoS policy resolution (DESIGN.md §19): the config's policy, or —
  // under AF_QOS=1 — the tenant-isolation defaults for runs that carry
  // none. The policy's dispatcher knobs thread into the machine config
  // (so accelerators are *built* with the reserved headroom and aging
  // quantum), its quotas/priorities into the engine config below.
  const qos::QosPolicy policy = resolve_qos_policy(config);
  core::Machine machine(with_qos(config.machine, policy));
  if (config.tracer != nullptr) machine.set_tracer(config.tracer);
  core::TraceLibrary lib;
  core::register_templates(lib);
  register_relief_traces(lib);

  // Validation: the caller's checker, or — under AF_CHECK=1 — an internal
  // one that turns any invariant violation into a hard failure. The whole
  // test suite runs with AF_CHECK=1, so every experiment any test drives
  // is continuously audited (TESTING.md).
  check::InvariantChecker* checker = config.checker;
  std::unique_ptr<check::InvariantChecker> env_checker;
  if (checker == nullptr && af_check_enabled()) {
    env_checker = std::make_unique<check::InvariantChecker>();
    checker = env_checker.get();
  }
  if (checker != nullptr) checker->attach(machine, lib);

  auto services = build_services(config.specs, lib);
  std::vector<Service*> service_ptrs;
  for (auto& s : services) service_ptrs.push_back(s.get());

  core::EngineConfig engine_config = config.engine;
  if (policy.enabled()) engine_config.qos = policy;
  auto orch =
      core::make_orchestrator(config.kind, machine, lib, engine_config);

  // Fault injection: the config's plan, or — under AF_FAULTS=<rate> — a
  // uniform plan applied to every run. The injector is run-owned state
  // (it perturbs simulated time), unlike the observer-style tracer/checker.
  // Only engine-family orchestrators carry the resilience policy that can
  // recover injected losses (DESIGN.md §14); attaching an injector to a
  // baseline would strand chains forever — a guaranteed invariant
  // violation, not a measurement — so baselines always run fault-free.
  fault::FaultPlan plan = config.faults;
  if (!plan.enabled()) {
    const double rate = af_fault_rate();
    if (rate > 0) plan = fault::FaultPlan::uniform(rate);
  }
  std::unique_ptr<fault::FaultInjector> injector;
  if (plan.enabled() && orch->engine() != nullptr) {
    injector = std::make_unique<fault::FaultInjector>(machine.sim(), plan);
    machine.set_fault_hooks(injector.get());
  }

  RequestEngine engine(machine, *orch, service_ptrs, config.seed);
  if (!config.step_deadline_budgets.empty()) {
    engine.set_step_deadline_budgets(config.step_deadline_budgets);
  } else {
    engine.set_step_deadline_budget(config.step_deadline_budget);
  }

  // QoS admission controller (DESIGN.md §19): one per run, consulted by
  // every generator before injection and fed every completion's latency.
  std::unique_ptr<qos::AdmissionController> admission;
  if (policy.enabled()) {
    admission =
        std::make_unique<qos::AdmissionController>(machine.sim(), policy);
    engine.set_admission(admission.get());
  }

  const sim::TimePs issue_until = config.warmup + config.measure;
  std::vector<std::unique_ptr<LoadGenerator>> gens;
  for (std::size_t s = 0; s < services.size(); ++s) {
    const double rps = config.per_service_rps.empty()
                           ? config.rps_per_service
                           : config.per_service_rps[s];
    if (rps <= 0) continue;
    gens.push_back(std::make_unique<LoadGenerator>(
        machine.sim(), engine, s, config.load_model, rps, issue_until,
        config.seed ^ (0x10AD + 1315423911ull * (s + 1))));
    if (admission != nullptr) gens.back()->set_admission(admission.get());
  }

  // Power cap (DESIGN.md §19): the governor's epoch events stop at the
  // drain horizon, so the calendar still drains to quiescence.
  std::unique_ptr<qos::PowerGovernor> governor;
  if (config.power.budget_w > 0.0) {
    governor = std::make_unique<qos::PowerGovernor>(machine, config.power);
    governor->start(issue_until + config.drain);
  }

  // Warmup: run, then clear the recorders so only steady state counts.
  advance_to(machine.sim(), config.warmup);
  engine.reset_stats();
  if (injector != nullptr) injector->reset_stats();
  if (admission != nullptr) admission->reset_stats();
  if (governor != nullptr) governor->reset_stats();
  advance_to(machine.sim(), issue_until + config.drain);

  ExperimentResult out =
      harvest_result(machine, *orch, engine, config.metrics);
  if (injector != nullptr) {
    out.faults = injector->stats();
    if (config.metrics != nullptr) {
      injector->snapshot_metrics(*config.metrics);
    }
  }
  if (admission != nullptr) {
    out.qos_tenants = admission->tenant_stats();
    out.qos_shed_total = admission->total_shed();
    if (config.metrics != nullptr) {
      admission->snapshot_metrics(*config.metrics);
    }
  }
  if (governor != nullptr) {
    out.power = governor->stats();
    if (config.metrics != nullptr) {
      governor->snapshot_metrics(*config.metrics);
    }
  }
  if (checker != nullptr) {
    checker->final_audit();
    if (env_checker != nullptr && !checker->ok()) {
      std::fprintf(stderr, "AF_CHECK: invariant violations detected\n%s",
                   checker->report().c_str());
      std::abort();
    }
    checker->detach();
  }
  // Under AF_CHECK=1, a traced run also audits the critical-path
  // conservation identity: re-attributing the ring must account for every
  // picosecond of every closed chain (critpath.h). One tracer covers
  // exactly this run, so the audit lives here and not in SweepSession
  // (where the ring accumulates across forked points).
  if (config.tracer != nullptr && af_check_enabled()) {
    critpath::Analyzer audit;
    audit.analyze(*config.tracer);
    if (!audit.violations().empty()) {
      std::fprintf(stderr,
                   "AF_CHECK: critical-path conservation violated "
                   "(%zu chains)\n",
                   audit.violations().size());
      for (const std::string& v : audit.violations()) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      std::abort();
    }
  }
  return out;
}

std::vector<sim::TimePs> unloaded_latency(ExperimentConfig config,
                                          core::OrchKind kind) {
  config.kind = kind;
  config.load_model = LoadGenerator::Model::kPoisson;
  config.per_service_rps.assign(config.specs.size(), 200.0);
  config.warmup = sim::milliseconds(5);
  config.measure = sim::milliseconds(120);
  config.drain = sim::milliseconds(40);
  const ExperimentResult res = run_experiment(config);
  std::vector<sim::TimePs> out;
  out.reserve(res.services.size());
  for (const auto& s : res.services) out.push_back(s.latency.p50());
  return out;
}

namespace {

/**
 * The serial capacity search as a state machine: probe `lo`, climb a
 * geometric grid to the first violation below `hi`, then bisect the
 * bracket. find_max_load() takes its decisions; the look-ahead replays a
 * copy on predicted outcomes, so both walk exactly one sequence.
 */
class SearchPath {
 public:
  SearchPath(double lo, double hi, int iters)
      : best_(lo), hi_(hi), iters_(iters) {}

  /** Factor of the next probe, or nullopt once the search has ended. */
  std::optional<double> next() {
    if (phase_ == kFloor) return best_;
    if (phase_ == kGrid) {
      // The latency-vs-load curve is cliff-like near saturation (queue-
      // full fallbacks feed back into CPU load), so a pure bisection is
      // noisy: the grid brackets the cliff first.
      if (best_ * kStep < hi_) return best_ * kStep;
      phase_ = kBisect;
    }
    if (phase_ == kBisect) {
      const double mid = 0.5 * (best_ + hi_);
      if (bisections_ < iters_ && mid > best_ && mid < hi_) return mid;
      phase_ = kDone;
    }
    return std::nullopt;
  }

  /** Takes the outcome of the probe next() returned. */
  void record(double factor, bool ok) {
    switch (phase_) {
      case kFloor:
        phase_ = ok ? kGrid : kDone;
        if (!ok) best_ = 0.0;  // Even `lo` violates.
        break;
      case kGrid:
        if (ok) {
          best_ = factor;
        } else {
          hi_ = factor;
          phase_ = kBisect;
        }
        break;
      case kBisect:
        (ok ? best_ : hi_) = factor;
        ++bisections_;
        break;
      case kDone:
        break;
    }
  }

  /** False once the decisions taken so far rule out probing `factor`:
   *  every probe still to come lies strictly inside (best, hi). */
  bool reachable(double factor) const {
    return phase_ != kDone && factor > best_ && factor < hi_;
  }

  double answer() const { return best_; }

  /** True before the first violation: the search is climbing the grid. */
  bool climbing() const { return phase_ == kFloor || phase_ == kGrid; }

 private:
  enum Phase { kFloor, kGrid, kBisect, kDone };
  static constexpr double kStep = 1.35;

  Phase phase_ = kFloor;
  double best_;  ///< Highest load known to meet the SLO (the grid's base).
  double hi_;    ///< Lowest load known to violate (initially the cap).
  int iters_;
  int bisections_ = 0;
};

/** `base` with every service's rate scaled by `factor`. */
ExperimentConfig scaled(const ExperimentConfig& base, double factor) {
  ExperimentConfig cfg = base;
  if (cfg.per_service_rps.empty()) {
    cfg.per_service_rps.assign(cfg.specs.size(), cfg.rps_per_service);
  }
  for (double& r : cfg.per_service_rps) r *= factor;
  return cfg;
}

/**
 * find_max_load()'s engine: runs the search's probes in SearchPath order
 * on the calling thread, while claimed idle slots run the probes the
 * predicted path needs next. Destruction cancels and joins them all.
 */
class SpeculativeSearch {
 public:
  SpeculativeSearch(const detail::ProbeFn& probe, const ExperimentConfig& base,
                    const std::vector<sim::TimePs>& slos, SearchPath path,
                    bool lookahead, SpeculationStats& stats)
      : probe_(probe),
        base_(base),
        slos_(slos),
        path_(path),
        lookahead_(lookahead),
        stats_(stats) {}

  ~SpeculativeSearch() {
    std::vector<std::thread> threads;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      for (const auto& p : probes_) p->cancel.store(true);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }

  SpeculativeSearch(const SpeculativeSearch&) = delete;
  SpeculativeSearch& operator=(const SpeculativeSearch&) = delete;

  /** Runs the search to its end; returns the serial search's answer. */
  double run(ExperimentResult* at_peak) {
    std::unique_lock<std::mutex> lock(mu_);
    while (const std::optional<double> factor = path_.next()) {
      Probe* p = find(*factor);
      if (p == nullptr) {
        probes_.push_back(std::make_unique<Probe>(*factor, false));
        p = probes_.back().get();
      }
      top_up();
      if (!p->speculative) {
        lock.unlock();
        execute(*p);
        lock.lock();
        p->done = true;
        learn(*p);
      } else {
        done_cv_.wait(lock, [p] { return p->done; });
      }
      ++stats_.probes;
      if (p->speculative) ++stats_.used;
      if (p->error) std::rethrow_exception(p->error);
      if (p->ok && at_peak != nullptr) *at_peak = std::move(p->result);
      path_.record(*factor, p->ok);
      retire();
    }
    return path_.answer();
  }

 private:
  struct Probe {
    Probe(double f, bool ahead) : factor(f), speculative(ahead) {}
    const double factor;
    const bool speculative;  ///< Launched ahead on a claimed slot.
    std::atomic<bool> cancel{false};
    // Written by the running thread, published under mu_ by `done`.
    ExperimentResult result;
    bool ok = false;
    double log_ratio = 0;  ///< log of the worst service's p99/SLO.
    std::exception_ptr error;
    // Guarded by mu_.
    bool done = false;
    bool cancelled = false;
  };

  /** Runs `p` and judges it against the SLOs, as the serial loop does. */
  void execute(Probe& p) const {
    const ExperimentConfig cfg = scaled(base_, p.factor);
    p.result = probe_(cfg);
    constexpr double kRatioCap = 1e3;
    double worst = 1.0 / kRatioCap;
    p.ok = true;
    for (std::size_t s = 0; s < p.result.services.size(); ++s) {
      if (cfg.per_service_rps[s] <= 0) continue;  // Not driven.
      const auto& svc = p.result.services[s];
      const sim::TimePs p99 = svc.latency.p99();
      // A saturated service stops completing requests at all: that also
      // violates.
      if (svc.completed == 0 || p99 > slos_[s]) p.ok = false;
      worst = std::max(worst, svc.completed == 0 || slos_[s] == 0
                                  ? kRatioCap
                                  : static_cast<double>(p99) /
                                        static_cast<double>(slos_[s]));
    }
    p.log_ratio = std::log(std::min(worst, kRatioCap));
    // Only a passing probe's result can become at_peak.
    if (!p.ok) p.result = ExperimentResult{};
  }

  /** A speculative probe's thread: runs `p`, then the next probe the
   *  predicted path needs, while a slot is free. Reusing the thread keeps
   *  one allocator arena per slot, as a map() worker does. */
  void speculate(Probe* p) {
    while (p != nullptr) {
      t_probe_cancel = &p->cancel;
      bool cancelled = false;
      try {
        execute(*p);
      } catch (const ProbeCancelled&) {
        cancelled = true;
      } catch (...) {
        p->error = std::current_exception();
      }
      t_probe_cancel = nullptr;
      const std::lock_guard<std::mutex> lock(mu_);
      p->done = true;
      // A probe the search has left never reaches a result, even one that
      // finished before it saw the flag.
      if (cancelled || p->cancel.load()) {
        p->cancelled = true;
        p->result = ExperimentResult{};
        ++stats_.cancelled;
      } else if (!p->error) {
        learn(*p);
      }
      done_cv_.notify_all();
      ParallelRunner::release_slot();
      p = nullptr;
      top_up(&p);
    }
  }

  Probe* find(double factor) const {
    for (const auto& p : probes_) {
      if (p->factor == factor) return p.get();
    }
    return nullptr;
  }

  /** Adds a finished probe to the load -> log(p99/SLO) curve. */
  void learn(const Probe& p) {
    const auto at = std::lower_bound(
        curve_.begin(), curve_.end(), p.factor,
        [](const std::pair<double, double>& c, double f) {
          return c.first < f;
        });
    curve_.insert(at, {p.factor, p.log_ratio});
  }

  /** Predicted outcome at `factor`, from the load -> log(p99/SLO) curve:
   *  linear between the nearest finished probes; below them, the lowest
   *  probe's ratio; above them, the steeper of the last two segments (the
   *  curve only steepens toward saturation, and never falls). */
  bool predict(double factor) const {
    if (curve_.empty()) return true;
    const auto right = std::lower_bound(
        curve_.begin(), curve_.end(), factor,
        [](const std::pair<double, double>& c, double f) {
          return c.first < f;
        });
    if (right == curve_.begin()) return right->second <= 0;
    auto slope = [](const auto& a, const auto& b) {
      return (b.second - a.second) / (b.first - a.first);
    };
    if (right != curve_.end()) {
      const auto& left = *(right - 1);
      return left.second + slope(left, *right) * (factor - left.first) <= 0;
    }
    double steepest = 0;
    for (std::size_t i = curve_.size() > 2 ? curve_.size() - 2 : 1;
         i < curve_.size(); ++i) {
      steepest = std::max(steepest, slope(curve_[i - 1], curve_[i]));
    }
    const auto& last = curve_.back();
    return last.second + steepest * (factor - last.first) <= 0;
  }

  /** Walks the predicted path and starts its unstarted probes while
   *  slots are free: grid points while the predicted ratio stays below 1
   *  (a grid point predicted to violate is likely deep in overload, where
   *  a simulation costs the most time and memory), then, once a grid
   *  point is known to violate, every bisection probe on the predicted
   *  side. Called with mu_ held. */
  void top_up(Probe** reuse = nullptr) {
    if (!lookahead_ || closed_) return;
    SearchPath ahead = path_;
    while (const std::optional<double> factor = ahead.next()) {
      const Probe* p = find(*factor);
      if (p != nullptr && p->done && (p->error || p->cancelled)) return;
      bool ok = false;
      if (p != nullptr && p->done) {
        ok = p->ok;
      } else {
        ok = predict(*factor);
        if (!ok && ahead.climbing()) return;
        if (p == nullptr && !launch(*factor, reuse)) return;
      }
      ahead.record(*factor, ok);
    }
  }

  /** Starts a speculative probe on a free slot, if one is: on the
   *  calling speculative thread when `reuse` is still empty (it receives
   *  the probe), else on a new thread. */
  bool launch(double factor, Probe** reuse) {
    if (!ParallelRunner::try_claim_slot()) return false;
    probes_.push_back(std::make_unique<Probe>(factor, true));
    Probe* p = probes_.back().get();
    ++stats_.launched;
    if (reuse != nullptr && *reuse == nullptr) {
      *reuse = p;
      return true;
    }
    try {
      threads_.emplace_back([this, p] { speculate(p); });
    } catch (...) {
      probes_.pop_back();
      --stats_.launched;
      ParallelRunner::release_slot();
      return false;
    }
    return true;
  }

  /** After a decision: cancels running probes the search has left and
   *  frees the results of finished ones. Called with mu_ held. */
  void retire() {
    for (const auto& p : probes_) {
      if (path_.reachable(p->factor)) continue;
      if (p->done) {
        p->result = ExperimentResult{};
      } else {
        p->cancel.store(true);
      }
    }
  }

  const detail::ProbeFn& probe_;
  const ExperimentConfig& base_;
  const std::vector<sim::TimePs>& slos_;
  std::mutex mu_;  // Guards everything below.
  std::condition_variable done_cv_;
  SearchPath path_;
  const bool lookahead_;
  bool closed_ = false;
  SpeculationStats& stats_;
  std::vector<std::unique_ptr<Probe>> probes_;
  std::vector<std::pair<double, double>> curve_;
  std::vector<std::thread> threads_;
};

}  // namespace

double detail::find_max_load(const ProbeFn& probe,
                             const ExperimentConfig& base,
                             const std::vector<sim::TimePs>& slos,
                             int search_iters, double lo, double hi,
                             ExperimentResult* at_peak,
                             SpeculationStats* speculation) {
  // Tracers, checkers and metrics registries observe one simulation at a
  // time, so a base config carrying one keeps the search serial.
  const bool lookahead = base.tracer == nullptr && base.checker == nullptr &&
                         base.metrics == nullptr;
  SpeculationStats stats;
  double best = 0;
  {
    const ParallelRunner::BusyScope busy;
    SpeculativeSearch search(probe, base, slos,
                             SearchPath(lo, hi, search_iters), lookahead,
                             stats);
    best = search.run(at_peak);
  }
  if (speculation != nullptr) *speculation = stats;
  return best;
}

double find_max_load(const ExperimentConfig& base,
                     const std::vector<sim::TimePs>& slos, int search_iters,
                     double lo, double hi, ExperimentResult* at_peak,
                     SpeculationStats* speculation) {
  return detail::find_max_load(run_experiment, base, slos, search_iters, lo,
                               hi, at_peak, speculation);
}

}  // namespace accelflow::workload
