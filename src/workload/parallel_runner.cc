#include "workload/parallel_runner.h"

#include <algorithm>
#include <cstdlib>

namespace accelflow::workload {
namespace {

/** Slots held process-wide: map() workers, find_max_load() callers and
 *  speculative probes. */
std::atomic<unsigned> g_busy_slots{0};
/** BusyScope nesting depth on this thread; only the outermost counts. */
thread_local unsigned t_busy_depth = 0;

}  // namespace

ParallelRunner::BusyScope::BusyScope() : counted_(t_busy_depth++ == 0) {
  if (counted_) g_busy_slots.fetch_add(1, std::memory_order_relaxed);
}

ParallelRunner::BusyScope::~BusyScope() {
  --t_busy_depth;
  if (counted_) release_slot();
}

bool ParallelRunner::try_claim_slot() {
  const unsigned budget = default_threads();
  unsigned busy = g_busy_slots.load(std::memory_order_relaxed);
  while (busy < budget) {
    if (g_busy_slots.compare_exchange_weak(busy, busy + 1,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ParallelRunner::release_slot() {
  g_busy_slots.fetch_sub(1, std::memory_order_relaxed);
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads == 0 ? default_threads() : threads) {}

unsigned ParallelRunner::default_threads() {
  if (const char* v = std::getenv("AF_BENCH_THREADS")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ParallelRunner::worker_count(std::size_t items) const {
  return static_cast<unsigned>(
      std::min<std::size_t>(threads_, std::max<std::size_t>(items, 1)));
}

std::vector<ExperimentResult> ParallelRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  return map(configs, [](const ExperimentConfig& cfg) {
    return run_experiment(cfg);
  });
}

}  // namespace accelflow::workload
