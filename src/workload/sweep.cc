#include "workload/sweep.h"

#include <cassert>
#include <numeric>
#include <utility>

#include "workload/parallel_runner.h"

namespace accelflow::workload {

SweepSession::SweepSession(const ExperimentConfig& config)
    : config_(config),
      // The warmup generators and governor stop at `warmup`, so the
      // machine can drain to quiescence before the fork point; run_point()
      // revives them per point.
      rig_(config_, config_.warmup, config_.warmup) {}

void SweepSession::prepare() {
  assert(fork_ == nullptr && "prepare() already called");
  sim::Simulator& sim = rig_.machine().sim();
  sim.run_until(config_.warmup);
  // Drain every in-flight request: an empty calendar is what makes the
  // checkpoint cheap (no pending callbacks to clone) and exact (no
  // component holds a raw pointer into a half-finished flow).
  sim.run();
  t_fork_ = sim.now();
  fork_ = std::make_unique<Rig::Checkpoint>(rig_.checkpoint());
}

ExperimentResult SweepSession::run_point(const SweepPoint& point) {
  assert(fork_ != nullptr && "call prepare() before run_point()");
  rig_.restore(*fork_);
  if (point.mutate) point.mutate(rig_.machine());
  // Steady state only, as in run_experiment()'s post-warmup reset.
  rig_.reset_stats();
  const sim::TimePs issue_until = t_fork_ + config_.measure;
  rig_.resume(point.rate_factor, issue_until, issue_until + config_.drain);
  rig_.machine().sim().run_until(issue_until + config_.drain);
  ExperimentResult out = rig_.harvest();
  rig_.final_audit();
  return out;
}

std::vector<std::vector<ExperimentResult>> run_forked_sweeps(
    const std::vector<ExperimentConfig>& groups,
    const std::vector<std::vector<SweepPoint>>& points) {
  assert(groups.size() == points.size());
  std::vector<std::size_t> indices(groups.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return ParallelRunner().map(indices, [&](std::size_t g) {
    SweepSession session(groups[g]);
    session.prepare();
    std::vector<ExperimentResult> out;
    out.reserve(points[g].size());
    for (const SweepPoint& p : points[g]) out.push_back(session.run_point(p));
    return out;
  });
}

}  // namespace accelflow::workload
