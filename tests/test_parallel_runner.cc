/**
 * @file
 * Tests for workload::ParallelRunner: determinism (parallel == serial,
 * byte for byte), result ordering, and error propagation. Also the
 * speculative find_max_load that runs on the runner's slot budget: same
 * answer as the serial search, cancelled probes never leak into it, and a
 * probe's exception surfaces only when the search consumes that probe.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workload/experiment.h"
#include "workload/parallel_runner.h"
#include "workload/suites.h"

namespace accelflow::workload {
namespace {

ExperimentConfig tiny_config(core::OrchKind kind, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.specs = social_network_specs();
  cfg.load_model = LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), 4000.0);
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(8);
  cfg.drain = sim::milliseconds(5);
  cfg.seed = seed;
  return cfg;
}

TEST(ParallelRunner, MapPreservesSubmissionOrder) {
  ParallelRunner runner(4);
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  const auto out = runner.map(items, [](int v) { return v * v; });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ParallelRunner, SingleThreadRunsInline) {
  ParallelRunner runner(1);
  EXPECT_EQ(runner.threads(), 1u);
  const auto out =
      runner.map(std::vector<int>{1, 2, 3}, [](int v) { return v + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(ParallelRunner, PropagatesWorkerExceptions) {
  ParallelRunner runner(4);
  std::vector<int> items(16, 0);
  items[7] = 1;
  EXPECT_THROW(runner.map(items,
                          [](int v) {
                            if (v != 0) throw std::runtime_error("boom");
                            return v;
                          }),
               std::runtime_error);
}

TEST(ParallelRunner, MatchesSerialExperimentBitForBit) {
  // The acceptance bar for the whole sweep-parallelization: for a fixed
  // seed, per-point stats must be identical whether points run on one
  // thread or many. Each point owns its Machine/Simulator/Rng, so this
  // holds by construction; the test guards against anyone adding shared
  // mutable state to the model.
  std::vector<ExperimentConfig> configs;
  configs.push_back(tiny_config(core::OrchKind::kNonAcc, 7));
  configs.push_back(tiny_config(core::OrchKind::kAccelFlow, 7));
  configs.push_back(tiny_config(core::OrchKind::kAccelFlow, 8));

  const auto serial = ParallelRunner(1).run(configs);
  const auto parallel = ParallelRunner(3).run(configs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    const auto& s = serial[p];
    const auto& q = parallel[p];
    EXPECT_EQ(s.total_completed(), q.total_completed());
    EXPECT_EQ(s.accel_invocations, q.accel_invocations);
    ASSERT_EQ(s.services.size(), q.services.size());
    for (std::size_t i = 0; i < s.services.size(); ++i) {
      EXPECT_EQ(s.services[i].name, q.services[i].name);
      EXPECT_EQ(s.services[i].completed, q.services[i].completed);
      // Bitwise equality, not EXPECT_DOUBLE_EQ: determinism means the
      // exact same arithmetic happened in the exact same order.
      EXPECT_EQ(s.services[i].p99_us, q.services[i].p99_us);
      EXPECT_EQ(s.services[i].mean_us, q.services[i].mean_us);
    }
  }
}

TEST(ParallelRunner, DefaultThreadsRespectsEnvOverride) {
  // AF_BENCH_THREADS pins the pool size (1 = force serial sweeps).
  ASSERT_EQ(setenv("AF_BENCH_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ParallelRunner::default_threads(), 3u);
  ASSERT_EQ(setenv("AF_BENCH_THREADS", "1", 1), 0);
  EXPECT_EQ(ParallelRunner::default_threads(), 1u);
  unsetenv("AF_BENCH_THREADS");
  EXPECT_GE(ParallelRunner::default_threads(), 1u);
}

/** Sets (or, with nullptr, unsets) an environment variable for the
 *  scope, restoring the previous value. */
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
      had_ = true;
    }
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/** A search's answer and the at_peak stats that must match bit for bit. */
struct SearchOutcome {
  double factor = 0;
  std::vector<std::uint64_t> completed;
  std::vector<double> p99_us;
  SpeculationStats spec;
};

SearchOutcome search(const ExperimentConfig& cfg,
                     const std::vector<sim::TimePs>& slos) {
  SearchOutcome out;
  ExperimentResult peak;
  out.factor = find_max_load(cfg, slos, 3, 0.5, 6.0, &peak, &out.spec);
  for (const ServiceResult& s : peak.services) {
    out.completed.push_back(s.completed);
    out.p99_us.push_back(s.p99_us);
  }
  return out;
}

void expect_same_search(const SearchOutcome& a, const SearchOutcome& b,
                        const std::string& what) {
  // Bitwise: the speculative search must take the serial decisions on
  // the serial probes' results.
  EXPECT_EQ(a.factor, b.factor) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.p99_us, b.p99_us) << what;
  EXPECT_EQ(a.spec.probes, b.spec.probes) << what;
}

/** SLOs loose enough for the short windows to pass at light load. */
std::vector<sim::TimePs> short_window_slos(const ExperimentConfig& cfg) {
  std::vector<sim::TimePs> slos;
  for (const sim::TimePs u : unloaded_latency(cfg, core::OrchKind::kNonAcc)) {
    slos.push_back(5 * u);
  }
  return slos;
}

ExperimentConfig search_config(core::OrchKind kind, std::uint64_t seed) {
  ExperimentConfig cfg = tiny_config(kind, seed);
  cfg.warmup = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(4);
  cfg.drain = sim::milliseconds(2);
  return cfg;
}

TEST(SpeculativeSearch, MatchesSerialForEveryArchitectureAndSeed) {
  const std::vector<sim::TimePs> slos =
      short_window_slos(search_config(core::OrchKind::kNonAcc, 1));
  for (const core::OrchKind kind :
       {core::OrchKind::kNonAcc, core::OrchKind::kCpuCentric,
        core::OrchKind::kRelief, core::OrchKind::kCohort,
        core::OrchKind::kAccelFlow}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const ExperimentConfig cfg = search_config(kind, seed);
      SearchOutcome serial;
      {
        const ScopedEnv threads("AF_BENCH_THREADS", "1");
        serial = search(cfg, slos);
      }
      SearchOutcome ahead;
      {
        const ScopedEnv threads("AF_BENCH_THREADS", "4");
        ahead = search(cfg, slos);
      }
      const std::string what = std::string(core::name_of(kind)) +
                               " seed " + std::to_string(seed);
      EXPECT_GT(serial.factor, 0.0) << what;
      expect_same_search(serial, ahead, what);
      // One slot is the caller's: AF_BENCH_THREADS=1 never speculates.
      EXPECT_EQ(serial.spec.launched, 0u) << what;
      EXPECT_GT(ahead.spec.launched, 0u) << what;
      EXPECT_LE(ahead.spec.used + ahead.spec.cancelled, ahead.spec.launched)
          << what;
    }
  }
}

TEST(SpeculativeSearch, NestedInParallelRunnerMatchesSerial) {
  const std::vector<sim::TimePs> slos =
      short_window_slos(search_config(core::OrchKind::kNonAcc, 1));
  std::vector<ExperimentConfig> configs;
  for (const core::OrchKind kind :
       {core::OrchKind::kAccelFlow, core::OrchKind::kRelief,
        core::OrchKind::kCpuCentric}) {
    configs.push_back(search_config(kind, 5));
  }
  auto run_all = [&] {
    return ParallelRunner(2).map(configs, [&](const ExperimentConfig& cfg) {
      return search(cfg, slos);
    });
  };
  std::vector<SearchOutcome> serial;
  {
    const ScopedEnv threads("AF_BENCH_THREADS", "1");
    serial = run_all();
  }
  std::vector<SearchOutcome> ahead;
  {
    // Two slots go to the map's workers, two are left for speculation.
    const ScopedEnv threads("AF_BENCH_THREADS", "4");
    ahead = run_all();
  }
  std::uint64_t launched = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_same_search(serial[i], ahead[i], "search " + std::to_string(i));
    launched += ahead[i].spec.launched;
  }
  EXPECT_GT(launched, 0u);
}

TEST(SpeculativeSearch, ObserverKeepsSearchSerial) {
  ExperimentConfig cfg = search_config(core::OrchKind::kAccelFlow, 1);
  const std::vector<sim::TimePs> slos = short_window_slos(cfg);
  check::InvariantChecker checker;
  cfg.checker = &checker;
  const ScopedEnv threads("AF_BENCH_THREADS", "4");
  const SearchOutcome out = search(cfg, slos);
  EXPECT_GT(out.factor, 0.0);
  EXPECT_EQ(out.spec.launched, 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- Fake probes: the search's mechanics, independent of the model. ----

/** The fake's cliff: loads up to 1.0x meet the 1000 ps SLO. */
constexpr double kCliff = 1.0;
const std::vector<sim::TimePs> kFakeSlos = {1000};

/** The grid point where the search (lo 0.05, step 1.35) first violates:
 *  the serial search never probes above it. */
double first_violation() {
  double f = 0.05;
  while (f <= kCliff) f *= 1.35;
  return f;
}

ExperimentConfig fake_base() {
  ExperimentConfig cfg;
  cfg.per_service_rps = {1000.0};
  return cfg;
}

double factor_of(const ExperimentConfig& cfg) {
  return cfg.per_service_rps[0] / 1000.0;
}

ExperimentResult fake_result(sim::TimePs p99) {
  ExperimentResult r;
  r.services.resize(1);
  r.services[0].completed = 1;
  r.services[0].latency.record(p99);
  r.services[0].p99_us = sim::to_microseconds(p99);
  return r;
}

/** A flat 0.1 p99/SLO ratio up to the cliff and 1000x past it: the
 *  predictor extrapolates "pass" beyond the cliff, so the look-ahead
 *  launches probes the search then leaves. */
ExperimentResult fake_probe(const ExperimentConfig& cfg) {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return fake_result(factor_of(cfg) <= kCliff ? 100 : 1000000);
}

/** Runs the fake search with AF_BENCH_THREADS=`threads`. */
SearchOutcome fake_search(const detail::ProbeFn& probe, const char* threads) {
  const ScopedEnv env("AF_BENCH_THREADS", threads);
  SearchOutcome out;
  ExperimentResult peak;
  out.factor = detail::find_max_load(probe, fake_base(), kFakeSlos, 4, 0.05,
                                     12.0, &peak, &out.spec);
  for (const ServiceResult& s : peak.services) {
    out.completed.push_back(s.completed);
    out.p99_us.push_back(s.p99_us);
  }
  return out;
}

TEST(SpeculativeSearch, CancelledProbeNeverReachesResult) {
  const SearchOutcome serial = fake_search(fake_probe, "1");
  ASSERT_GT(serial.factor, 0.0);
  ASSERT_LE(serial.factor, kCliff);
  // Past the first violation the serial search never probes; there the
  // probe blocks until cancelled and then returns a poisoned "pass" that
  // would raise the answer if it ever reached the search.
  const auto probe = [](const ExperimentConfig& cfg) {
    if (factor_of(cfg) <= first_violation()) return fake_probe(cfg);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!detail::probe_cancelled() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return fake_result(1);
  };
  const SearchOutcome ahead = fake_search(probe, "4");
  expect_same_search(serial, ahead, "fake cliff");
  EXPECT_GT(ahead.spec.cancelled, 0u);
  EXPECT_LE(ahead.spec.used + ahead.spec.cancelled, ahead.spec.launched);
}

TEST(SpeculativeSearch, ExceptionSurfacesOnlyWhenConsumed) {
  const SearchOutcome serial = fake_search(fake_probe, "1");
  // Beyond the first violation: only speculation ever runs these.
  const auto unreached = [](const ExperimentConfig& cfg) {
    if (factor_of(cfg) > first_violation()) throw std::runtime_error("ahead");
    return fake_probe(cfg);
  };
  const SearchOutcome ahead = fake_search(unreached, "4");
  expect_same_search(serial, ahead, "throwing unreached probes");
  EXPECT_GT(ahead.spec.launched, ahead.spec.used);
  // On the serial path: the search throws, speculative or not.
  const auto consumed = [](const ExperimentConfig& cfg) {
    if (factor_of(cfg) > 0.5) throw std::runtime_error("consumed");
    return fake_probe(cfg);
  };
  EXPECT_THROW(fake_search(consumed, "1"), std::runtime_error);
  EXPECT_THROW(fake_search(consumed, "4"), std::runtime_error);
}

TEST(SpeculativeSearch, NeverExceedsTheSlotBudget) {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const auto probe = [&](const ExperimentConfig& cfg) {
    const int now = ++running;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    ExperimentResult r = fake_probe(cfg);
    --running;
    return r;
  };
  const SearchOutcome ahead = fake_search(probe, "3");
  EXPECT_GT(ahead.spec.launched, 0u);
  EXPECT_GE(peak.load(), 2);
  EXPECT_LE(peak.load(), 3);
}

}  // namespace
}  // namespace accelflow::workload
