/**
 * @file
 * Figure 14: maximum throughput without violating the SLO (5x the unloaded
 * service execution time), for the five architectures plus Ideal. Paper:
 * AccelFlow achieves 8.3x Non-acc and 2.2x RELIEF, and is within 8% of
 * Ideal; an EDF-style deadline-aware scheduling policy adds another 1.6x
 * (Sections IV-C / VII-A.3).
 */

#include "bench_common.h"
#include "core/trace_templates.h"
#include "stats/table.h"
#include "workload/sweep.h"

int main(int argc, char** argv) {
  using namespace accelflow;

  const bench::ObsOptions obs_opts = bench::parse_obs_options(argc, argv);
  // Golden mode (--golden=FILE): the same SLO search over tiny fixed
  // windows with a short binary search, snapshotted as stable JSON and
  // byte-compared against tests/golden/fig14.json by ctest.
  const bool golden = !obs_opts.golden_path.empty();

  auto base = golden
                  ? bench::golden_config(core::OrchKind::kAccelFlow)
                  : bench::social_network_config(core::OrchKind::kAccelFlow);
  // The throughput sweep uses steady (Poisson) arrivals at the production
  // rate ratios: with the bursty trace model, arrival noise rather than
  // the architecture dominates the SLO boundary. Windows stay long even
  // in fast mode because the P99-vs-load curve is steep near saturation.
  base.load_model = workload::LoadGenerator::Model::kPoisson;
  if (!golden) {
    base.warmup = sim::milliseconds(15);
    base.measure = sim::milliseconds(bench::fast_mode() ? 60 : 100);
    base.drain = sim::milliseconds(25);
  }

  // SLO: 5x the unloaded (Non-acc) execution time of each service.
  const auto unloaded =
      workload::unloaded_latency(base, core::OrchKind::kNonAcc);
  std::vector<sim::TimePs> slos;
  for (const auto u : unloaded) slos.push_back(5 * u);

  const int iters = golden ? 3 : (bench::fast_mode() ? 5 : 7);

  std::vector<core::OrchKind> archs = bench::paper_architectures();
  archs.push_back(core::OrchKind::kIdeal);

  // Each architecture's SLO search is an independent (internally serial)
  // binary search: fan the searches across the thread pool.
  struct SearchJob {
    std::string label;
    workload::ExperimentConfig cfg;
  };
  std::vector<SearchJob> jobs;
  for (const auto kind : archs) {
    auto cfg = base;
    cfg.kind = kind;
    jobs.push_back({std::string(name_of(kind)), std::move(cfg)});
  }

  // AccelFlow with deadline-aware (EDF) input scheduling: each service's
  // per-step budget is its SLO divided across its accelerator steps, so
  // short-SLO services preempt long chains when it matters (Section IV-C).
  {
    auto cfg = base;
    cfg.kind = core::OrchKind::kAccelFlow;
    cfg.machine.policy = accel::SchedPolicy::kEdf;
    cfg.engine.stamp_deadlines = true;
    core::TraceLibrary lib;
    core::register_templates(lib);
    const auto services = workload::build_services(cfg.specs, lib);
    for (std::size_t s = 0; s < services.size(); ++s) {
      cfg.step_deadline_budgets.push_back(
          slos[s] /
          static_cast<sim::TimePs>(
              services[s]->invocations_most_common_path() + 2));
    }
    jobs.push_back({"AccelFlow+EDF", std::move(cfg)});
  }

  // --fork: every SLO-search probe of one architecture forks from that
  // architecture's shared warmup checkpoint instead of re-simulating it
  // (EXPERIMENTS.md "Fork-mode sweeps").
  struct Found {
    double factor = 0;
    workload::SpeculationStats spec;
  };
  const std::vector<Found> found =
      workload::ParallelRunner().map(jobs, [&](const SearchJob& job) {
        Found f;
        if (obs_opts.fork) {
          workload::SweepSession session(job.cfg);
          f.factor = workload::find_max_load_forked(session, slos, iters);
        } else {
          f.factor = workload::find_max_load(job.cfg, slos, iters, 0.05,
                                             12.0, nullptr, &f.spec);
        }
        return f;
      });
  std::vector<double> factors;
  for (const Found& f : found) factors.push_back(f.factor);

  if (golden) {
    std::vector<std::pair<std::string, std::string>> entries;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      entries.emplace_back(jobs[j].label, bench::fmt6(factors[j]));
    }
    bench::emit_golden_json(obs_opts.golden_path, "fig14", "max_load",
                            entries);
    return 0;
  }

  stats::Table t("Figure 14: maximum load multiplier under SLO (basis: "
                 "Alibaba-like rates, avg 13.4K RPS/service)");
  t.set_header({"Architecture", "Max load (x base)", "Max avg kRPS/service"});
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    t.add_row({jobs[j].label, stats::Table::fmt(factors[j], 2),
               stats::Table::fmt(13.4 * factors[j], 1)});
  }
  t.print(std::cout);

  stats::Table r("Throughput ratios (paper: AccelFlow = 8.3x Non-acc, "
                 "2.2x RELIEF, within 8% of Ideal; EDF +1.6x)");
  r.set_header({"Ratio", "Value"});
  const double af = factors[4];
  r.add_row({"AccelFlow / Non-acc", stats::Table::fmt(af / factors[0], 2)});
  r.add_row({"AccelFlow / CPU-Centric",
             stats::Table::fmt(af / factors[1], 2)});
  r.add_row({"AccelFlow / RELIEF", stats::Table::fmt(af / factors[2], 2)});
  r.add_row({"AccelFlow / Cohort", stats::Table::fmt(af / factors[3], 2)});
  r.add_row({"AccelFlow / Ideal", stats::Table::fmt(af / factors[5], 2)});
  r.add_row({"AccelFlow+EDF / AccelFlow",
             stats::Table::fmt(factors[6] / af, 2)});
  r.print(std::cout);

  // Speculation counters depend on host timing, so they go to stderr and
  // stdout stays identical across thread counts (DESIGN.md §10).
  if (!obs_opts.fork) {
    stats::Table sp("SLO-search speculation (probes run ahead on idle "
                    "slots; hit rate = used / launched)");
    sp.set_header({"Architecture", "Probes", "Launched", "Used",
                   "Cancelled", "Hit rate"});
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const workload::SpeculationStats& st = found[j].spec;
      sp.add_row({jobs[j].label, std::to_string(st.probes),
                  std::to_string(st.launched), std::to_string(st.used),
                  std::to_string(st.cancelled),
                  st.launched == 0
                      ? "-"
                      : stats::Table::fmt(static_cast<double>(st.used) /
                                              static_cast<double>(st.launched),
                                          2)});
    }
    sp.print(std::cerr);
  }
  return 0;
}
