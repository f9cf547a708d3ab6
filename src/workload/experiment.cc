#include "workload/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "workload/parallel_runner.h"
#include "workload/rig.h"
#include "workload/sweep.h"

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

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const sim::TimePs issue_until = config.warmup + config.measure;
  Rig rig(config, issue_until, issue_until + config.drain);
  // Warmup: run, then clear the recorders so only steady state counts.
  advance_to(rig.machine().sim(), config.warmup);
  rig.reset_stats();
  advance_to(rig.machine().sim(), issue_until + config.drain);
  ExperimentResult out = rig.harvest();
  rig.final_audit();
  // One tracer covers exactly this run, so the conservation audit lives
  // here and not in SweepSession (where the ring spans forked points).
  audit_critical_path(config.tracer);
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
 * bracket. find_max_load() takes its decisions and its look-ahead replays
 * a copy on predicted outcomes; find_max_load_forked() walks it over a
 * SweepSession. All of them walk exactly one sequence.
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

/** One probe's outcome against the SLOs. */
struct SloVerdict {
  bool ok = true;        ///< Every driven service met its SLO.
  double log_ratio = 0;  ///< log of the worst p99/SLO, capped at 1e3.
};

/**
 * Judges one probe: a driven service (rates[s] > 0) violates when it
 * completes nothing or its p99 exceeds slos[s]. Both capacity searches
 * take their decisions through this one check.
 */
SloVerdict judge_probe(const ExperimentResult& result,
                       const std::vector<double>& rates,
                       const std::vector<sim::TimePs>& slos) {
  constexpr double kRatioCap = 1e3;
  double worst = 1.0 / kRatioCap;
  SloVerdict v;
  for (std::size_t s = 0; s < result.services.size(); ++s) {
    if (rates[s] <= 0) continue;  // Not driven.
    const auto& svc = result.services[s];
    const sim::TimePs p99 = svc.latency.p99();
    // A saturated service stops completing requests at all: that also
    // violates.
    if (svc.completed == 0 || p99 > slos[s]) v.ok = false;
    worst = std::max(worst, svc.completed == 0 || slos[s] == 0
                                ? kRatioCap
                                : static_cast<double>(p99) /
                                      static_cast<double>(slos[s]));
  }
  v.log_ratio = std::log(std::min(worst, kRatioCap));
  return v;
}

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
    const SloVerdict v = judge_probe(p.result, cfg.per_service_rps, slos_);
    p.ok = v.ok;
    p.log_ratio = v.log_ratio;
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

double find_max_load_forked(SweepSession& session,
                            const std::vector<sim::TimePs>& slos,
                            int search_iters, double lo, double hi,
                            ExperimentResult* at_peak) {
  if (!session.prepared()) session.prepare();
  const ExperimentConfig& cfg = session.config();
  std::vector<double> rates = cfg.per_service_rps;
  if (rates.empty()) rates.assign(cfg.specs.size(), cfg.rps_per_service);
  SearchPath path(lo, hi, search_iters);
  while (const std::optional<double> factor = path.next()) {
    ExperimentResult res = session.run_point({*factor, {}});
    const bool ok = judge_probe(res, rates, slos).ok;
    if (ok && at_peak != nullptr) *at_peak = std::move(res);
    path.record(*factor, ok);
  }
  return path.answer();
}

}  // namespace accelflow::workload
