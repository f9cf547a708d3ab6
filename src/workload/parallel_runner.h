#ifndef ACCELFLOW_WORKLOAD_PARALLEL_RUNNER_H_
#define ACCELFLOW_WORKLOAD_PARALLEL_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "workload/experiment.h"

/**
 * @file
 * Fans independent experiment points across a thread pool.
 *
 * The simulator is single-threaded by design (that is what makes runs
 * bit-deterministic), but a sweep — architectures x seeds x load points —
 * is embarrassingly parallel: every ExperimentConfig builds its own
 * Machine, Simulator and RNGs and shares no mutable state with any other
 * point. ParallelRunner exploits exactly that: each worker thread runs
 * whole simulations serially, results are collected in submission order,
 * and a point's result is byte-identical to what a serial loop produces.
 *
 * The runner also keeps the process-wide budget of busy threads that lets
 * find_max_load() run probes ahead only on otherwise idle cores
 * (DESIGN.md §10.1).
 */

namespace accelflow::workload {

/**
 * Runs independent experiment points concurrently.
 *
 * Determinism contract: run(configs)[i] is computed by a single-threaded
 * run_experiment(configs[i]) — identical, stat for stat, to the value a
 * plain `for` loop over the same configs yields, regardless of the thread
 * count or OS scheduling. Only wall-clock time changes.
 */
class ParallelRunner {
 public:
  /**
   * @param threads worker count; 0 picks default_threads().
   */
  explicit ParallelRunner(unsigned threads = 0);

  /**
   * Worker count used when none is given: the AF_BENCH_THREADS environment
   * variable if set, otherwise the hardware concurrency (min 1).
   * AF_BENCH_THREADS=1 forces serial execution for A/B determinism checks.
   */
  static unsigned default_threads();

  unsigned threads() const { return threads_; }

  /**
   * Marks the calling thread busy against the process-wide budget of
   * default_threads() slots for the scope's lifetime. map() workers and
   * find_max_load() callers hold one, always: real work never waits for a
   * slot. Nested scopes on one thread count once. Speculative work takes
   * a slot only through try_claim_slot(), so it runs on idle cores only.
   */
  class BusyScope {
   public:
    BusyScope();
    ~BusyScope();
    BusyScope(const BusyScope&) = delete;
    BusyScope& operator=(const BusyScope&) = delete;

   private:
    bool counted_;
  };

  /** Takes a free slot for speculative work; false when none is free. */
  static bool try_claim_slot();

  /** Returns a slot taken by try_claim_slot(). */
  static void release_slot();

  /** Runs every config (in any order) and returns results in input order. */
  std::vector<ExperimentResult> run(
      const std::vector<ExperimentConfig>& configs) const;

  /**
   * Generic fan-out: applies `fn` to every item on the pool, returning
   * results in input order. `fn` must be safe to call concurrently on
   * distinct items (true for anything that, like run_experiment, only
   * touches state it creates). Exceptions from `fn` are rethrown on the
   * caller's thread (first one wins).
   */
  template <typename Item, typename Fn>
  auto map(const std::vector<Item>& items, Fn fn) const
      -> std::vector<decltype(fn(items.front()))> {
    using Result = decltype(fn(items.front()));
    std::vector<Result> results(items.size());
    const unsigned workers = worker_count(items.size());
    if (workers <= 1) {
      const BusyScope busy;
      for (std::size_t i = 0; i < items.size(); ++i) {
        results[i] = fn(items[i]);
      }
      return results;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    auto work = [&] {
      const BusyScope busy;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= items.size() || failed.load(std::memory_order_relaxed)) {
          return;
        }
        try {
          results[i] = fn(items[i]);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
    return results;
  }

 private:
  unsigned worker_count(std::size_t items) const;

  unsigned threads_;
};

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_PARALLEL_RUNNER_H_
