/**
 * @file
 * perfbench: the repository's end-to-end benchmark (perfbench/README.md).
 *
 * One process runs one named workload through the simulator's public entry
 * points and measures *host* time only:
 *
 *   fig11_steady    five architectures, one after another, on one thread
 *                   (workload::run_experiment, bursty trace load)
 *   slo_capacity    Fig. 14's SLO capacity search: unloaded_latency, then
 *                   one find_max_load per architecture on a ParallelRunner
 *   cluster_faulty  a 4-shard cluster::Datacenter under 1% faults and QoS
 *
 * Simulated values (p99, max-load factors, completions) are results, not
 * performance: every top-level call ("op") hashes them into a digest that
 * must equal the reference in digests.txt, or, for a seed without one,
 * the digest of the run's first repetition. A mismatch, an exception or a
 * failed sanity check makes the op fail.
 *
 * Timed mode (--trace 0) repeats the workload body for --seconds and
 * reports medians of host_s/cpu_s, the median of repeated set-ups and the
 * peak RSS. Traced mode (--trace 1) records one span per public call,
 * reads per-layer counts from what the program already exposes (metrics
 * registry, result structs, kernel stats), runs the tracer, critical-path
 * and invariant-checker passes, and writes the spans as JSON.
 *
 * The last line of stdout is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/datacenter.h"
#include "critpath/critpath.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "workload/experiment.h"
#include "workload/parallel_runner.h"
#include "workload/suites.h"

extern char** environ;

namespace {

using namespace accelflow;
using Clock = std::chrono::steady_clock;
using core::OrchKind;
using workload::ExperimentConfig;
using workload::ExperimentResult;

// ---------------------------------------------------------------------------
// Host measurements.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process (every thread). */
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// JSON output (shortest round-trip numbers; names are plain ASCII).

std::string num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0.0;  // No NaN/inf in JSON.
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Output digests.

/** FNV-1a over the exact bits of a result's simulated values. */
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
  }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/** Per-service completed/failed/p50/p99: fig11_steady's output. */
std::uint64_t services_digest(const ExperimentResult& r) {
  Digest d;
  for (const auto& s : r.services) {
    d.add(s.name).add(s.completed).add(s.failed);
    d.add(s.latency.p50()).add(s.latency.p99());
  }
  return d.value();
}

/** One top-level call into the simulator and the digest of its outputs. */
struct Op {
  std::string name;
  std::uint64_t digest = 0;
  std::string error;  ///< Non-empty: threw, or failed a sanity check.
};

/** Runs `fn` (returning a digest) as op `name`, catching what it throws. */
template <typename Fn>
Op run_op(std::string name, Fn&& fn) {
  Op op;
  op.name = std::move(name);
  try {
    op.digest = fn();
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  return op;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

void require_completions(const ExperimentResult& r) {
  require(!r.services.empty(), "no services in result");
  for (const auto& s : r.services) {
    require(s.completed > 0, "service " + s.name + " completed nothing");
  }
}

/** Reference digests: "workload seed op digest" lines (# comments). */
class References {
 public:
  bool load(const std::string& path) {
    std::ifstream f(path);
    if (!f) return false;
    std::string line;
    while (std::getline(f, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream is(line);
      std::string workload, seed, op, digest;
      if (is >> workload >> seed >> op >> digest) {
        refs_[workload + " " + seed + " " + op] =
            std::strtoull(digest.c_str(), nullptr, 16);
      }
    }
    return true;
  }
  const std::uint64_t* find(const std::string& workload, std::uint64_t seed,
                            const std::string& op) const {
    const auto it = refs_.find(workload + " " + std::to_string(seed) + " " + op);
    return it == refs_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::uint64_t> refs_;
};

/**
 * Counts ops and failures. An op with a reference must match it; one
 * without must match its first repetition (the simulator is
 * bit-deterministic per seed, so any difference is a real finding).
 */
class OpLedger {
 public:
  OpLedger(const References& refs, std::string workload, std::uint64_t seed)
      : refs_(refs), workload_(std::move(workload)), seed_(seed) {}

  void check(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      ++attempted_;
      std::string why = op.error;
      const std::uint64_t* ref = refs_.find(workload_, seed_, op.name);
      auto [it, first] = seen_.emplace(op.name, op.digest);
      basis_[op.name] = ref != nullptr ? "reference" : "repeat";
      if (why.empty() && ref != nullptr && op.digest != *ref) {
        why = "digest " + hex(op.digest) + " != reference " + hex(*ref);
      } else if (why.empty() && ref == nullptr && !first &&
                 op.digest != it->second) {
        why = "digest " + hex(op.digest) + " != first repetition " +
              hex(it->second);
      }
      if (!why.empty()) {
        ++failed_;
        if (failures_.size() < 16) failures_.push_back(op.name + ": " + why);
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /** "op": {"digest": ..., "checked_against": ...} entries. */
  std::string digests_json() const {
    std::string out = "{";
    for (const auto& [name, digest] : seen_) {
      if (out.size() > 1) out += ", ";
      out += quote(name) + ": {\"digest\": " + quote(hex(digest)) +
             ", \"checked_against\": " + quote(basis_.at(name)) + "}";
    }
    return out + "}";
  }

 private:
  const References& refs_;
  std::string workload_;
  std::uint64_t seed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> seen_;
  std::map<std::string, std::string> basis_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Spans (traced mode): one per public call, recorded by this file only.

struct Span {
  std::string name;
  int parent = -1;
  int run = 0;
  double start = 0;
  double end = 0;
};

class SpanLog {
 public:
  int begin(std::string name, int parent, int run) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), parent, run, seconds_since(epoch_), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = seconds_since(epoch_);
  }

  /** Duration minus the union of the children's intervals. */
  double self_time(std::size_t i) const {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = s.start;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    return (s.end - s.start) - covered;
  }

  void write_json(std::ostream& os, const std::string& run_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"run_id\": " << quote(run_id) << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": " << quote(s.name)
         << ", \"parent\": " << s.parent << ", \"run\": " << s.run
         << ", \"start_s\": " << num(s.start) << ", \"end_s\": " << num(s.end)
         << ", \"self_s\": " << num(self_time(i)) << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/** RAII span; a no-op without a log (timed mode). */
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, int run)
      : log_(log), id_(log ? log->begin(std::move(name), parent, run) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; the benchmark's
// tests check the two agree.

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* source;
  const char* workloads;  ///< Where the layer metric is measured.
};

constexpr MetricSpec kEndToEnd[] = {
    {"host_s", "s", "median wall time of the workload body", "all"},
    {"cpu_s", "s", "median user+sys CPU (getrusage) over the body", "all"},
    {"setup_s", "s", "median host time before the first simulated event",
     "all"},
    {"peak_rss_mb", "MB", "process max RSS after the workload", "all"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count", "registry sim.events / executed_events(), summed",
     "fig11_steady cluster_faulty"},
    {"sim.ns_per_event", "ns", "run wall / sim.events",
     "fig11_steady cluster_faulty"},
    {"sim.cancel_frac", "ratio", "kernel_stats() cancelled / scheduled",
     "cluster_faulty"},
    {"sim.pending_high_water", "count", "registry sim.pending_high_water, max",
     "fig11_steady"},
    {"arch.nonacc.host_s", "s", "wall of run_experiment(Non-acc)",
     "fig11_steady"},
    {"arch.cpucentric.host_s", "s", "wall of run_experiment(CPU-Centric)",
     "fig11_steady"},
    {"arch.relief.host_s", "s", "wall of run_experiment(RELIEF)",
     "fig11_steady"},
    {"arch.cohort.host_s", "s", "wall of run_experiment(Cohort)",
     "fig11_steady"},
    {"arch.accelflow.host_s", "s", "wall of run_experiment(AccelFlow)",
     "fig11_steady"},
    {"engine.chains_completed", "count",
     "registry engine.chains_completed, AccelFlow point", "fig11_steady"},
    {"engine.glue.ops", "count", "registry engine.glue.ops, AccelFlow point",
     "fig11_steady"},
    {"engine.hop_retries", "count", "ClusterResult shard EngineStats, summed",
     "cluster_faulty"},
    {"engine.hop_timeouts", "count", "ClusterResult shard EngineStats, summed",
     "cluster_faulty"},
    {"engine.chains_faulted", "count",
     "ClusterResult shard EngineStats, summed", "cluster_faulty"},
    {"accel.jobs", "count", "registry accel.<type>.jobs, summed, AccelFlow",
     "fig11_steady"},
    {"accel.queue_delay_us", "us",
     "registry accel.<type>.mean_queue_delay_ps, job-weighted, AccelFlow",
     "fig11_steady"},
    {"accel.overflow_enqueues", "count",
     "find_max_load(AccelFlow, at_peak).overflow_enqueues", "slo_capacity"},
    {"engine.fallbacks", "count",
     "find_max_load(AccelFlow, at_peak) engine fallbacks_by_type, summed",
     "slo_capacity"},
    {"dma.transfers", "count", "registry dma.transfers, AccelFlow",
     "fig11_steady"},
    {"noc.hops", "count", "registry noc.hops, AccelFlow", "fig11_steady"},
    {"mem.tlb.lookups", "count", "registry mem.tlb.lookups, AccelFlow",
     "fig11_steady"},
    {"mem.tlb.miss_rate", "ratio", "registry mem.tlb.miss_rate, AccelFlow",
     "fig11_steady"},
    {"mem.iommu.walks", "count", "registry mem.iommu.walks, AccelFlow",
     "fig11_steady"},
    {"search.nonacc.host_s", "s", "wall of find_max_load(Non-acc) in map",
     "slo_capacity"},
    {"search.cpucentric.host_s", "s",
     "wall of find_max_load(CPU-Centric) in map", "slo_capacity"},
    {"search.relief.host_s", "s", "wall of find_max_load(RELIEF) in map",
     "slo_capacity"},
    {"search.cohort.host_s", "s", "wall of find_max_load(Cohort) in map",
     "slo_capacity"},
    {"search.accelflow.host_s", "s", "wall of find_max_load(AccelFlow) in map",
     "slo_capacity"},
    {"search.nonacc.max_load", "x", "find_max_load(Non-acc) factor",
     "slo_capacity"},
    {"search.cpucentric.max_load", "x", "find_max_load(CPU-Centric) factor",
     "slo_capacity"},
    {"search.relief.max_load", "x", "find_max_load(RELIEF) factor",
     "slo_capacity"},
    {"search.cohort.max_load", "x", "find_max_load(Cohort) factor",
     "slo_capacity"},
    {"search.accelflow.max_load", "x", "find_max_load(AccelFlow) factor",
     "slo_capacity"},
    {"runner.busy_frac", "ratio",
     "sum of search walls / (threads x ParallelRunner::map wall)",
     "slo_capacity"},
    {"unloaded.host_s", "s", "wall of unloaded_latency(Non-acc)",
     "slo_capacity"},
    {"cluster.cpu_per_wall", "ratio",
     "CPU / wall of Datacenter::run on the runner's thread count",
     "cluster_faulty"},
    {"cluster.remote_rpcs", "count", "ClusterResult remote_rpcs",
     "cluster_faulty"},
    {"cluster.net_messages", "count", "ClusterResult network.messages",
     "cluster_faulty"},
    {"cluster.balancer_decisions", "count", "ClusterResult balancer_decisions",
     "cluster_faulty"},
    {"fault.injected", "count", "shard FaultStats total(), summed",
     "cluster_faulty"},
    {"qos.shed", "count", "shard qos_shed_total, summed", "cluster_faulty"},
    {"cluster.strong_scaling", "x",
     "Datacenter::run wall at 1 thread / at the runner's thread count",
     "cluster_faulty"},
    {"trace.overhead_frac", "ratio",
     "obs::Tracer on the AccelFlow point: traced / plain wall - 1",
     "fig11_steady"},
    {"trace.dropped", "count", "obs::Tracer dropped() on that point",
     "fig11_steady"},
    {"critpath.analyze_s", "s", "wall of critpath::Analyzer::analyze",
     "fig11_steady"},
    {"critpath.dispatch.share", "ratio", "Analyzer total() dispatch share",
     "fig11_steady"},
    {"critpath.queue.share", "ratio", "Analyzer total() queue share",
     "fig11_steady"},
    {"critpath.pe_service.share", "ratio", "Analyzer total() pe_service share",
     "fig11_steady"},
    {"critpath.glue.share", "ratio", "Analyzer total() glue share",
     "fig11_steady"},
    {"critpath.dma.share", "ratio", "Analyzer total() dma share",
     "fig11_steady"},
    {"critpath.noc.share", "ratio", "Analyzer total() noc share",
     "fig11_steady"},
    {"critpath.translation.share", "ratio",
     "Analyzer total() translation share", "fig11_steady"},
    {"critpath.network.share", "ratio", "Analyzer total() network share",
     "fig11_steady"},
    {"critpath.core.share", "ratio", "Analyzer total() core share",
     "fig11_steady"},
    {"check.overhead_frac", "ratio",
     "InvariantChecker attached: checked / plain wall - 1",
     "fig11_steady cluster_faulty"},
    {"bench.trace_overhead_s", "s",
     "median traced minus median untraced body wall", "all"},
};

/** Per-layer values gathered by a traced run. */
using Layers = std::map<std::string, double>;

/** Host-time-derived layer values vary run to run; the rest are simulated
 *  counts and must repeat exactly. */
bool is_host_time(const std::string& name) {
  for (const char* marker :
       {"host_s", "ns_per_event", "busy_frac"}) {
    if (name.find(marker) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Workloads.

/** What every workload function receives. */
struct Ctx {
  std::uint64_t seed = 1;
  unsigned threads = 1;
  bool short_windows = false;  ///< Tests only: windows / 10 (not SLO).
  SpanLog* spans = nullptr;    ///< Traced mode only.
  Layers* layers = nullptr;    ///< Traced mode only.
  int run = 0;                 ///< Span run id.
};

sim::TimePs window_ms(const Ctx& ctx, double ms) {
  return sim::milliseconds(ctx.short_windows ? ms / 10 : ms);
}

constexpr std::array<OrchKind, 5> kPaperArchs = {
    OrchKind::kNonAcc, OrchKind::kCpuCentric, OrchKind::kRelief,
    OrchKind::kCohort, OrchKind::kAccelFlow};

std::string arch_key(OrchKind k) {
  switch (k) {
    case OrchKind::kNonAcc: return "nonacc";
    case OrchKind::kCpuCentric: return "cpucentric";
    case OrchKind::kRelief: return "relief";
    case OrchKind::kCohort: return "cohort";
    case OrchKind::kAccelFlow: return "accelflow";
    default: return "other";
  }
}

/** Same construction code as `cfg`, with nothing simulated. */
ExperimentConfig zero_window(ExperimentConfig cfg) {
  cfg.warmup = cfg.measure = cfg.drain = 0;
  return cfg;
}

// --- fig11_steady ---------------------------------------------------------

/**
 * The Fig. 11 point: 8 SocialNetwork services at Alibaba-like rates (avg
 * 13.4K RPS/service), with the bench's warmup and drain and half its
 * measured window (more, shorter repetitions give a steadier median).
 * Arrivals are Poisson: the paper bench's bursty trace model redraws each
 * service's rate every 10 ms, so the offered load, and with it the host
 * work, moves by half from one seed to the next (seed 1: 69.6K AccelFlow
 * chains, seed 2: 105.3K, with a 14x deeper event calendar). Poisson
 * arrivals keep every seed below capacity and the work per seed comparable.
 */
ExperimentConfig fig11_config(const Ctx& ctx, OrchKind kind) {
  ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.specs = workload::social_network_specs();
  cfg.load_model = workload::LoadGenerator::Model::kPoisson;
  cfg.per_service_rps =
      workload::alibaba_like_rates(cfg.specs.size(), 13400.0);
  cfg.warmup = window_ms(ctx, 15);
  cfg.measure = window_ms(ctx, 50);
  cfg.drain = window_ms(ctx, 25);
  cfg.seed = ctx.seed;
  return cfg;
}

double fig11_setup(const Ctx& ctx) {
  const auto t0 = Clock::now();
  for (const OrchKind kind : kPaperArchs) {
    workload::run_experiment(zero_window(fig11_config(ctx, kind)));
  }
  return seconds_since(t0);
}

/** Layer counts of the AccelFlow point, from its metrics registry. */
void accelflow_layers(const obs::MetricsRegistry& reg, Layers& out) {
  out["engine.chains_completed"] = reg.get("engine.chains_completed");
  out["engine.glue.ops"] = reg.get("engine.glue.ops");
  double jobs = 0, delay_ps = 0;
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    const std::string p = obs::metric_path("accel", accel::name_of(t));
    const double j = reg.get(p + ".jobs");
    jobs += j;
    delay_ps += j * reg.get(p + ".mean_queue_delay_ps");
  }
  out["accel.jobs"] = jobs;
  out["accel.queue_delay_us"] = ratio(delay_ps, jobs) * 1e-6;
  for (const char* name : {"dma.transfers", "noc.hops", "mem.tlb.lookups",
                           "mem.tlb.miss_rate", "mem.iommu.walks"}) {
    out[name] = reg.get(name);
  }
}

std::vector<Op> fig11_body(const Ctx& ctx) {
  ScopedSpan root(ctx.spans, "fig11_steady", -1, ctx.run);
  std::vector<Op> ops;
  double wall_sum = 0, events = 0, high_water = 0;
  for (const OrchKind kind : kPaperArchs) {
    const std::string key = arch_key(kind);
    obs::MetricsRegistry reg;
    ExperimentConfig cfg = fig11_config(ctx, kind);
    if (ctx.layers != nullptr) cfg.metrics = &reg;
    double wall = 0;
    ops.push_back(run_op("run_experiment." + key, [&] {
      ScopedSpan span(ctx.spans, "run_experiment." + key, root.id(), ctx.run);
      const auto t0 = Clock::now();
      const ExperimentResult res = workload::run_experiment(cfg);
      wall = seconds_since(t0);
      require_completions(res);
      return services_digest(res);
    }));
    if (ctx.layers == nullptr) continue;
    Layers& l = *ctx.layers;
    l["arch." + key + ".host_s"] = wall;
    wall_sum += wall;
    events += reg.get("sim.events");
    high_water = std::max(high_water, reg.get("sim.pending_high_water"));
    if (kind == OrchKind::kAccelFlow) accelflow_layers(reg, l);
  }
  if (ctx.layers != nullptr) {
    (*ctx.layers)["sim.events"] = events;
    (*ctx.layers)["sim.ns_per_event"] = ratio(wall_sum, events) * 1e9;
    (*ctx.layers)["sim.pending_high_water"] = high_water;
  }
  return ops;
}

/**
 * Traced-mode passes over the AccelFlow point: plain, under an obs::Tracer
 * (then critpath analysis of its ring), and under an InvariantChecker.
 * Observers must not change results: each digest must equal the plain one.
 */
void fig11_extra(const Ctx& ctx, std::vector<Op>& ops) {
  ScopedSpan root(ctx.spans, "fig11_steady.observers", -1, ctx.run);
  Layers& l = *ctx.layers;
  const ExperimentConfig base = fig11_config(ctx, OrchKind::kAccelFlow);
  auto timed = [&](const ExperimentConfig& cfg, const std::string& name,
                   double& wall) {
    ScopedSpan span(ctx.spans, name, root.id(), ctx.run);
    const auto t0 = Clock::now();
    const ExperimentResult res = workload::run_experiment(cfg);
    wall = seconds_since(t0);
    require_completions(res);
    return services_digest(res);
  };

  double plain_wall = 0;
  const Op plain = run_op("run_experiment.accelflow", [&] {
    return timed(base, "run_experiment.accelflow", plain_wall);
  });
  ops.push_back(plain);

  // A generous ring, as bench_fig11_latency --trace uses.
  obs::Tracer tracer(1u << 18);
  double traced_wall = 0;
  ops.push_back(run_op("tracer.run_experiment.accelflow", [&] {
    ExperimentConfig cfg = base;
    cfg.tracer = &tracer;
    const std::uint64_t d =
        timed(cfg, "run_experiment.accelflow+tracer", traced_wall);
    require(d == plain.digest, "tracer changed the AccelFlow outputs");
    return d;
  }));
  l["trace.overhead_frac"] = ratio(traced_wall, plain_wall) - 1.0;
  l["trace.dropped"] = static_cast<double>(tracer.dropped());

  ops.push_back(run_op("critpath.analyze", [&] {
    critpath::Analyzer analyzer;
    {
      ScopedSpan span(ctx.spans, "Analyzer::analyze", root.id(), ctx.run);
      const auto t0 = Clock::now();
      analyzer.analyze(tracer);
      l["critpath.analyze_s"] = seconds_since(t0);
    }
    require(analyzer.violations().empty(),
            "critical-path conservation violated");
    const auto& cats = analyzer.total().by_category;
    double total = 0;
    for (const sim::TimePs t : cats) total += static_cast<double>(t);
    Digest d;
    for (std::size_t c = 0; c < critpath::kNumCategories; ++c) {
      const auto cat = static_cast<critpath::Category>(c);
      l["critpath." + std::string(critpath::name_of(cat)) + ".share"] =
          ratio(static_cast<double>(cats[c]), total);
      d.add(cats[c]);
    }
    return d.value();
  }));

  check::InvariantChecker checker;
  double checked_wall = 0;
  ops.push_back(run_op("checker.run_experiment.accelflow", [&] {
    ExperimentConfig cfg = base;
    cfg.checker = &checker;
    const std::uint64_t d =
        timed(cfg, "run_experiment.accelflow+checker", checked_wall);
    require(checker.ok(), "invariant violations:\n" + checker.report());
    require(d == plain.digest, "checker changed the AccelFlow outputs");
    return d;
  }));
  l["check.overhead_frac"] = ratio(checked_wall, plain_wall) - 1.0;
}

// --- slo_capacity ---------------------------------------------------------

/**
 * Fig. 14's search configuration: Poisson arrivals at the production rate
 * ratios, with windows and bisection depth sized for the benchmark. --short
 * leaves these windows alone: shorter ones leave services with no
 * completion at the search's trickle probe, so no load meets the SLO.
 */
ExperimentConfig slo_base(const Ctx& ctx) {
  ExperimentConfig cfg = fig11_config(ctx, OrchKind::kAccelFlow);
  cfg.warmup = sim::milliseconds(4);
  cfg.measure = sim::milliseconds(15);
  cfg.drain = sim::milliseconds(4);
  return cfg;
}
constexpr int kSearchIters = 4;

/** Longest search first, so the pool never starts it last. */
constexpr std::array<OrchKind, 5> kSearchOrder = {
    OrchKind::kAccelFlow, OrchKind::kRelief, OrchKind::kCpuCentric,
    OrchKind::kCohort, OrchKind::kNonAcc};

double slo_setup(const Ctx& ctx) {
  const ExperimentConfig base = slo_base(ctx);
  const auto t0 = Clock::now();
  for (const OrchKind kind : kPaperArchs) {
    ExperimentConfig cfg = zero_window(base);
    cfg.kind = kind;
    workload::run_experiment(cfg);
  }
  return seconds_since(t0);
}

struct Search {
  double factor = 0;
  ExperimentResult peak;
  double wall = 0;
  std::string error;
};

std::uint64_t search_digest(const std::vector<sim::TimePs>& slos,
                            const Search& s) {
  Digest d;
  for (const sim::TimePs slo : slos) d.add(slo);
  d.add(s.factor);
  for (const auto& svc : s.peak.services) d.add(svc.completed);
  return d.value();
}

std::vector<Op> slo_body(const Ctx& ctx) {
  ScopedSpan root(ctx.spans, "slo_capacity", -1, ctx.run);
  const ExperimentConfig base = slo_base(ctx);
  std::vector<Op> ops;

  // SLO: 5x the unloaded (Non-acc) P50 of each service.
  std::vector<sim::TimePs> slos;
  double unloaded_wall = 0;
  ops.push_back(run_op("unloaded_latency", [&] {
    ScopedSpan span(ctx.spans, "unloaded_latency", root.id(), ctx.run);
    const auto t0 = Clock::now();
    const auto unloaded = workload::unloaded_latency(base, OrchKind::kNonAcc);
    unloaded_wall = seconds_since(t0);
    Digest d;
    for (const sim::TimePs u : unloaded) {
      require(u > 0, "zero unloaded latency");
      slos.push_back(5 * u);
      d.add(u);
    }
    return d.value();
  }));
  if (!ops.back().error.empty()) return ops;

  std::vector<ExperimentConfig> jobs;
  for (const OrchKind kind : kSearchOrder) {
    jobs.push_back(base);
    jobs.back().kind = kind;
  }
  const workload::ParallelRunner runner(ctx.threads);
  std::vector<Search> found;
  double map_wall = 0;
  {
    ScopedSpan map_span(ctx.spans, "ParallelRunner::map", root.id(), ctx.run);
    const auto t0 = Clock::now();
    found = runner.map(jobs, [&](const ExperimentConfig& cfg) {
      Search s;
      ScopedSpan span(ctx.spans, "find_max_load." + arch_key(cfg.kind),
                      map_span.id(), ctx.run);
      const auto t1 = Clock::now();
      try {
        s.factor = workload::find_max_load(cfg, slos, kSearchIters, 0.05,
                                           12.0, &s.peak);
        if (s.factor <= 0) s.error = "no load meets the SLO";
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      s.wall = seconds_since(t1);
      return s;
    });
    map_wall = seconds_since(t0);
  }

  double busy = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string key = arch_key(jobs[j].kind);
    Op op{"find_max_load." + key, search_digest(slos, found[j]),
          found[j].error};
    ops.push_back(std::move(op));
    busy += found[j].wall;
    if (ctx.layers == nullptr) continue;
    (*ctx.layers)["search." + key + ".host_s"] = found[j].wall;
    (*ctx.layers)["search." + key + ".max_load"] = found[j].factor;
  }
  if (ctx.layers != nullptr) {
    Layers& l = *ctx.layers;
    const ExperimentResult& peak = found.front().peak;  // AccelFlow.
    std::uint64_t fallbacks = 0;
    for (const std::uint64_t f : peak.engine.fallbacks_by_type) fallbacks += f;
    l["accel.overflow_enqueues"] = static_cast<double>(peak.overflow_enqueues);
    l["engine.fallbacks"] = static_cast<double>(fallbacks);
    const double used = static_cast<double>(
        std::min<std::size_t>(runner.threads(), jobs.size()));
    l["runner.busy_frac"] = ratio(busy, used * map_wall);
    l["unloaded.host_s"] = unloaded_wall;
  }
  return ops;
}

/**
 * Traced-mode pass: the AccelFlow capacity point again, under an attached
 * InvariantChecker. It reports as op "find_max_load.accelflow", so the
 * ledger holds it to that search's digest: same SLOs, same factor and the
 * same per-service completions as the search's at_peak result.
 */
void slo_extra(const Ctx& ctx, std::vector<Op>& ops) {
  ScopedSpan root(ctx.spans, "slo_capacity.observers", -1, ctx.run);
  const double factor = (*ctx.layers)["search.accelflow.max_load"];
  ops.push_back(run_op("find_max_load.accelflow", [&] {
    require(factor > 0, "no AccelFlow capacity point");
    ExperimentConfig cfg = slo_base(ctx);
    std::vector<sim::TimePs> slos;
    for (const sim::TimePs u :
         workload::unloaded_latency(cfg, OrchKind::kNonAcc)) {
      slos.push_back(5 * u);
    }
    for (double& r : cfg.per_service_rps) r *= factor;
    check::InvariantChecker checker;
    cfg.checker = &checker;
    Search s;
    s.factor = factor;
    {
      ScopedSpan span(ctx.spans, "run_experiment.accelflow+checker",
                      root.id(), ctx.run);
      s.peak = workload::run_experiment(cfg);
    }
    require(checker.ok(), "invariant violations:\n" + checker.report());
    return search_digest(slos, s);
  }));
}

// --- cluster_faulty -------------------------------------------------------

/**
 * 4 AccelFlow shards, Poisson load, consistent-hash balancing, 25% remote
 * RPCs, 1% uniform faults and the QoS isolation defaults. Timed runs use
 * one thread: the parallel window engine makes every shard wait at each
 * barrier for the slowest, so on a shared host a single descheduled core
 * stalls them all. Across two sets of ten runs on a 4-vCPU VM, 4 threads
 * moved the median by 31% and 3 threads spread by 23%. The traced run
 * measures the parallel engine (cluster.strong_scaling, cpu_per_wall).
 */
cluster::ClusterConfig cluster_config(const Ctx& ctx, unsigned threads) {
  cluster::ClusterConfig cfg;
  ExperimentConfig& e = cfg.experiment;
  e.kind = OrchKind::kAccelFlow;
  e.specs = workload::social_network_specs();
  e.load_model = workload::LoadGenerator::Model::kPoisson;
  cfg.shards = 4;
  e.rps_per_service = 6000.0 * static_cast<double>(cfg.shards);
  e.warmup = window_ms(ctx, 4);
  e.measure = window_ms(ctx, 60);
  e.drain = window_ms(ctx, 10);
  e.seed = ctx.seed;
  e.faults = fault::FaultPlan::uniform(0.01, 0xFA017 ^ ctx.seed);
  e.qos = qos::QosPolicy::isolation_defaults(e.specs.size());
  cfg.policy = cluster::BalancePolicy::kConsistentHash;
  cfg.remote_rpc_fraction = 0.25;
  cfg.threads = threads;
  return cfg;
}

double cluster_setup(const Ctx& ctx) {
  const cluster::ClusterConfig cfg = cluster_config(ctx, 1);
  const auto t0 = Clock::now();
  auto dc = std::make_unique<cluster::Datacenter>(cfg);
  const double wall = seconds_since(t0);
  dc.reset();
  return wall;
}

/** Per-shard completions, remote RPCs, injected faults and sheds. */
std::uint64_t cluster_digest(const cluster::ClusterResult& r) {
  Digest d;
  for (const auto& shard : r.shards) {
    d.add(shard.total_completed()).add(shard.faults.total());
    d.add(shard.qos_shed_total);
  }
  d.add(r.remote_rpcs).add(r.network.messages).add(r.balancer_decisions);
  return d.value();
}

/** One Datacenter construction + run as op `name`: its wall and CPU time
 *  of Datacenter::run go to `host` (if set), its layer counts to `layers`
 *  (if set). */
Op cluster_op(const Ctx& ctx, const std::string& name,
              const cluster::ClusterConfig& cfg, int parent,
              std::pair<double, double>* host, Layers* layers) {
  return run_op(name, [&] {
    ScopedSpan span(ctx.spans, name, parent, ctx.run);
    std::unique_ptr<cluster::Datacenter> dc;
    {
      ScopedSpan ctor(ctx.spans, "Datacenter::Datacenter", span.id(), ctx.run);
      dc = std::make_unique<cluster::Datacenter>(cfg);
    }
    ScopedSpan run_span(ctx.spans, "Datacenter::run", span.id(), ctx.run);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const cluster::ClusterResult res = dc->run();
    const double wall = seconds_since(t0);
    if (host != nullptr) *host = {wall, cpu_seconds() - c0};
    require(res.total_completed() > 0, "cluster completed nothing");
    if (layers != nullptr) {
      Layers& l = *layers;
      double events = 0, scheduled = 0, cancelled = 0;
      double retries = 0, timeouts = 0, faulted = 0, injected = 0, shed = 0;
      for (std::size_t i = 0; i < dc->shards(); ++i) {
        const sim::Simulator& sim = dc->machine(i).sim();
        events += static_cast<double>(sim.executed_events());
        scheduled += static_cast<double>(sim.kernel_stats().scheduled);
        cancelled += static_cast<double>(sim.kernel_stats().cancelled);
        const ExperimentResult& s = res.shards[i];
        retries += static_cast<double>(s.engine.hop_retries);
        timeouts += static_cast<double>(s.engine.hop_timeouts);
        faulted += static_cast<double>(s.engine.chains_faulted);
        injected += static_cast<double>(s.faults.total());
        shed += static_cast<double>(s.qos_shed_total);
      }
      l["sim.events"] = events;
      l["sim.ns_per_event"] = ratio(wall, events) * 1e9;
      l["sim.cancel_frac"] = ratio(cancelled, scheduled);
      l["engine.hop_retries"] = retries;
      l["engine.hop_timeouts"] = timeouts;
      l["engine.chains_faulted"] = faulted;
      l["fault.injected"] = injected;
      l["qos.shed"] = shed;
      l["cluster.remote_rpcs"] = static_cast<double>(res.remote_rpcs);
      l["cluster.net_messages"] = static_cast<double>(res.network.messages);
      l["cluster.balancer_decisions"] =
          static_cast<double>(res.balancer_decisions);
    }
    return cluster_digest(res);
  });
}

std::vector<Op> cluster_body(const Ctx& ctx) {
  ScopedSpan root(ctx.spans, "cluster_faulty", -1, ctx.run);
  return {cluster_op(ctx, "cluster.run", cluster_config(ctx, 1), root.id(),
                     nullptr, ctx.layers)};
}

/**
 * Traced-mode passes: the cluster on one thread (as timed) and on
 * ctx.threads (strong scaling and CPU per wall second of the parallel
 * window engine; it is bit-deterministic for every thread count, so the
 * digest must not move), then the parallel run with an InvariantChecker
 * on shard 0.
 */
void cluster_extra(const Ctx& ctx, std::vector<Op>& ops) {
  ScopedSpan root(ctx.spans, "cluster_faulty.observers", -1, ctx.run);
  Layers& l = *ctx.layers;
  std::pair<double, double> serial{}, parallel{}, checked{};
  const Op plain = cluster_op(ctx, "cluster.run", cluster_config(ctx, 1),
                              root.id(), &serial, nullptr);
  ops.push_back(plain);
  auto must_match = [&](Op op, const std::string& what) {
    if (op.error.empty() && op.digest != plain.digest) {
      op.error = what + " changed the cluster outputs";
    }
    ops.push_back(std::move(op));
  };

  must_match(cluster_op(ctx, "cluster.run.parallel",
                        cluster_config(ctx, ctx.threads), root.id(),
                        &parallel, nullptr),
             std::to_string(ctx.threads) + " threads");
  l["cluster.strong_scaling"] = ratio(serial.first, parallel.first);
  l["cluster.cpu_per_wall"] = ratio(parallel.second, parallel.first);

  check::InvariantChecker checker;  // Outlives the Datacenter it watches.
  cluster::ClusterConfig cfg = cluster_config(ctx, ctx.threads);
  cfg.experiment.checker = &checker;
  Op op = cluster_op(ctx, "cluster.run.checker", cfg, root.id(), &checked,
                     nullptr);
  if (op.error.empty() && !checker.ok()) {
    op.error = "invariant violations:\n" + checker.report();
  }
  must_match(std::move(op), "the checker");
  l["check.overhead_frac"] = ratio(checked.first, parallel.first) - 1.0;
}

struct Workload {
  const char* name;
  bool parallel;  ///< The timed body runs on ctx.threads, not on one thread.
  double (*setup)(const Ctx&);
  std::vector<Op> (*body)(const Ctx&);
  void (*extra)(const Ctx&, std::vector<Op>&);
};

constexpr Workload kWorkloads[] = {
    {"fig11_steady", false, fig11_setup, fig11_body, fig11_extra},
    {"slo_capacity", true, slo_setup, slo_body, slo_extra},
    {"cluster_faulty", false, cluster_setup, cluster_body, cluster_extra},
};

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_windows = false;
  bool print_digests = false;
  std::string digests_path;
  std::string spans_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload {fig11_steady|slo_capacity|cluster_faulty}"
               " [--seed N] [--seconds S] [--trace 0|1] [--digests FILE]"
               " [--spans FILE] [--short] [--print-digests]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--digests") {
      o.digests_path = value();
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--short") {
      o.short_windows = true;
    } else if (a == "--print-digests") {
      o.print_digests = true;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty()) usage(argv[0]);
  return o;
}

/** Reasons a timed run does not measure the program users run. */
std::vector<std::string> invalid_reasons() {
  std::vector<std::string> out;
  if (workload::af_check_enabled()) {
    out.push_back("AF_CHECK is set: every run carries an invariant checker");
  }
#ifndef __OPTIMIZE__
  out.push_back("unoptimised build");
#endif
#ifndef NDEBUG
  out.push_back("assertions enabled (NDEBUG undefined)");
#endif
  return out;
}

/** Every AF_* variable in the environment, as a JSON object. */
std::string knobs_json() {
  std::map<std::string, std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    if (kv.rfind("AF_", 0) == 0 && eq != std::string::npos) {
      knobs[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  std::string out = "{";
  for (const auto& [k, v] : knobs) {
    if (out.size() > 1) out += ", ";
    out += quote(k) + ": " + quote(v);
  }
  return out + "}";
}

std::string build_json() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"type\": ") + quote(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + quote(PERFBENCH_CXX_FLAGS) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") + "}";
}

/** Median and quartiles of `v`, and (unless `brief`) every sample. */
std::string samples_json(const std::vector<double>& v, bool brief = false) {
  std::string out = "{\"n\": " + std::to_string(v.size()) +
                    ", \"median\": " + num(median(v)) +
                    ", \"q1\": " + num(quantile(v, 0.25)) +
                    ", \"q3\": " + num(quantile(v, 0.75));
  if (brief) return out + "}";
  out += ", \"samples\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + num(v[i]);
  }
  return out + "]}";
}

bool measured_on(const MetricSpec& m, const std::string& workload) {
  const std::string where = m.workloads;
  return where == "all" || (" " + where + " ").find(" " + workload + " ") !=
                               std::string::npos;
}

int run(const Options& o, const Workload& w) {
  References refs;
  if (!o.digests_path.empty() && !refs.load(o.digests_path)) {
    std::cerr << "perfbench: cannot read " << o.digests_path << "\n";
    return 2;
  }
  // Short windows simulate something else: they never match references.
  const std::string label =
      std::string(w.name) + (o.short_windows ? "/short" : "");
  Ctx ctx;
  ctx.seed = o.seed;
  ctx.threads = workload::ParallelRunner::default_threads();
  ctx.short_windows = o.short_windows;

  if (o.print_digests) {
    for (const Op& op : w.body(ctx)) {
      if (!op.error.empty()) {
        std::cerr << "perfbench: " << op.name << ": " << op.error << "\n";
        return 1;
      }
      std::cout << label << " " << o.seed << " " << op.name << " "
                << hex(op.digest) << "\n";
    }
    return 0;
  }

  OpLedger ledger(refs, label, o.seed);
  Layers layers;
  SpanLog spans;

  // Set-up is sub-millisecond and the host's speed drifts: sample it in
  // batches spread over the whole run (before the warm-up and before every
  // timed repetition), so its median sees the same conditions as the body.
  std::vector<double> setups;
  auto sample_setups = [&] {
    for (int i = 0; i < 25; ++i) setups.push_back(w.setup(ctx));
  };
  sample_setups();

  // Warm-up repetition: checked, not timed (allocator and caches settle).
  ledger.check(w.body(ctx));

  // Timed repetitions for --seconds (at least three; two in traced mode,
  // where each repetition is an untraced/traced pair and the traced one
  // carries spans and layer counts, which must repeat exactly).
  std::vector<double> walls, cpus, traced_walls;
  std::vector<Layers> traced_layers;
  const auto t_loop = Clock::now();
  const std::size_t min_reps = o.trace ? 2 : 3;
  do {
    sample_setups();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<Op> ops = w.body(ctx);
    walls.push_back(seconds_since(t0));
    cpus.push_back(cpu_seconds() - c0);
    ledger.check(ops);
    if (o.trace) {
      Ctx traced = ctx;
      traced.spans = &spans;
      traced_layers.emplace_back();
      traced.layers = &traced_layers.back();
      traced.run = static_cast<int>(traced_walls.size());
      const auto t1 = Clock::now();
      ops = w.body(traced);
      traced_walls.push_back(seconds_since(t1));
      ledger.check(ops);
    }
  } while (walls.size() < min_reps ||
           seconds_since(t_loop) + walls.back() *
                                       (o.trace ? 2.0 : 1.0) <= o.seconds);
  const double rss = peak_rss_mb();

  std::vector<Op> extra_ops;
  if (o.trace) {
    // Host-time layer metrics: medians over the traced repetitions. The
    // simulated counts must repeat exactly; the op "layer_counts" fails
    // naming the first one that does not.
    Op counts;
    counts.name = "layer_counts";
    Digest counts_digest;
    for (const auto& [name, value] : traced_layers.front()) {
      std::vector<double> vs;
      for (const Layers& l : traced_layers) vs.push_back(l.at(name));
      if (is_host_time(name)) {
        layers[name] = median(vs);
        continue;
      }
      layers[name] = value;
      counts_digest.add(name).add(value);
      const bool repeats = std::all_of(vs.begin(), vs.end(),
                                       [&](double v) { return v == value; });
      if (!repeats && counts.error.empty()) {
        counts.error = name + " differs between traced repetitions";
      }
    }
    counts.digest = counts_digest.value();
    extra_ops.push_back(std::move(counts));
    layers["bench.trace_overhead_s"] = median(traced_walls) - median(walls);
    Ctx extra = ctx;
    extra.spans = &spans;
    extra.layers = &layers;
    extra.run = static_cast<int>(traced_walls.size());
    w.extra(extra, extra_ops);
    ledger.check(extra_ops);
  }

  const std::vector<std::string> invalid = invalid_reasons();
  const unsigned nproc =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));

  // Record line: everything that produced and checks the numbers.
  std::ostringstream rec;
  rec << "{\"perfbench\": {\"workload\": " << quote(w.name)
      << ", \"seed\": " << o.seed
      << ", \"mode\": " << quote(o.trace ? "traced" : "timed")
      << ", \"short_windows\": " << (o.short_windows ? "true" : "false")
      << ", \"threads\": " << (w.parallel ? ctx.threads : 1)
      << ", \"nproc\": " << nproc
      << ", \"build\": " << build_json() << ", \"knobs\": " << knobs_json()
      << ", \"valid\": " << (invalid.empty() ? "true" : "false")
      << ", \"invalid_reasons\": [";
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    rec << (i ? ", " : "") << quote(invalid[i]);
  }
  rec << "], \"host_s\": " << samples_json(walls)
      << ", \"cpu_s\": " << samples_json(cpus)
      << ", \"setup_s\": " << samples_json(setups, /*brief=*/true)
      << ", \"digests\": " << ledger.digests_json() << ", \"failures\": [";
  for (std::size_t i = 0; i < ledger.failures().size(); ++i) {
    rec << (i ? ", " : "") << quote(ledger.failures()[i]);
  }
  rec << "]";
  if (o.trace) {
    rec << ", \"per_layer\": {";
    bool first = true;
    for (const MetricSpec& m : kPerLayer) {
      const bool here = measured_on(m, w.name);
      rec << (first ? "" : ", ") << quote(m.name) << ": {\"value\": "
          << num(here ? layers[m.name] : 0.0) << ", \"unit\": "
          << quote(m.unit) << ", \"source\": "
          << quote(here ? m.source
                        : std::string("not exercised by ") + w.name)
          << "}";
      first = false;
    }
    rec << "}, \"spans\": " << spans.size();
  }
  rec << "}}";
  std::cout << rec.str() << "\n";

  if (o.trace && !o.spans_path.empty()) {
    std::ofstream f(o.spans_path);
    spans.write_json(f, label + "-seed" + std::to_string(o.seed));
    if (!f) std::cerr << "perfbench: cannot write " << o.spans_path << "\n";
  }

  // Result line.
  std::ostringstream res;
  res << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  auto metric = [&](const MetricSpec& m, double v) {
    res << (first ? "" : ", ") << quote(m.name) << ": {\"value\": " << num(v)
        << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  };
  if (o.trace) {
    for (const MetricSpec& m : kPerLayer) {
      metric(m, measured_on(m, w.name) ? layers[m.name] : 0.0);
    }
  } else {
    metric(kEndToEnd[0], median(walls));
    metric(kEndToEnd[1], median(cpus));
    metric(kEndToEnd[2], median(setups));
    metric(kEndToEnd[3], rss);
  }
  res << "}}";
  std::cout << res.str() << std::endl;

  if (!o.trace && !invalid.empty()) {
    std::cerr << "perfbench: invalid timed run:";
    for (const std::string& r : invalid) std::cerr << " " << r << ";";
    std::cerr << "\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) return run(o, w);
  }
  std::cerr << "perfbench: unknown workload " << o.workload << "\n";
  usage(argv[0]);
}
