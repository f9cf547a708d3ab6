/**
 * @file
 * Section VII-C.5: sensitivity to the accelerators' delivered speedups.
 * All speedups are scaled by 0.25x / 0.5x / 1x / 2x / 4x; the paper finds
 * AccelFlow's advantage over RELIEF grows with the speedups (throughput
 * gain 1.4x at 0.25x, 2.2x at 1x, 3.9x at 4x) because faster accelerators
 * make orchestration the bottleneck.
 */

#include "bench_common.h"
#include "stats/table.h"

int main() {
  using namespace accelflow;

  auto base = bench::social_network_config(core::OrchKind::kAccelFlow);
  const auto unloaded =
      workload::unloaded_latency(base, core::OrchKind::kNonAcc);
  std::vector<sim::TimePs> slos;
  for (const auto u : unloaded) slos.push_back(5 * u);
  const int iters = bench::fast_mode() ? 4 : 6;

  stats::Table t("Accelerator-speedup sensitivity (paper gains vs RELIEF: "
                 "1.4x @0.25x, 2.2x @1x, 3.9x @4x)");
  t.set_header({"Speedup scale", "RELIEF max load", "AccelFlow max load",
                "AF/RELIEF", "AF P99 (us)", "RELIEF P99 (us)"});
  // Ten independent (SLO search, experiment) pairs: fan them across the
  // thread pool; the table is identical to the serial loop's.
  const std::vector<double> scales = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<workload::ExperimentConfig> jobs;
  for (const double scale : scales) {
    for (const auto kind :
         {core::OrchKind::kRelief, core::OrchKind::kAccelFlow}) {
      auto cfg = base;
      cfg.kind = kind;
      cfg.machine.speedup_scale = scale;
      jobs.push_back(std::move(cfg));
    }
  }
  struct Point {
    double peak = 0;
    double p99 = 0;
  };
  const std::vector<Point> points = workload::ParallelRunner().map(
      jobs, [&](const workload::ExperimentConfig& cfg) {
        return Point{workload::find_max_load(cfg, slos, iters),
                     workload::run_experiment(cfg).avg_p99_us};
      });
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const Point& relief = points[2 * i];
    const Point& af = points[2 * i + 1];
    t.add_row({stats::Table::fmt(scales[i], 2),
               stats::Table::fmt(relief.peak, 2),
               stats::Table::fmt(af.peak, 2),
               stats::Table::fmt(af.peak / std::max(relief.peak, 1e-9), 2),
               stats::Table::fmt_us(af.p99), stats::Table::fmt_us(relief.p99)});
  }
  t.print(std::cout);
  return 0;
}
