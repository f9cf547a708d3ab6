/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot orchestration primitives:
 * trace nibble encode/decode, branch evaluation, chain walking, the
 * simulator event loop, and RNG throughput. These bound the simulator's
 * own overhead, not the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include "core/trace_analysis.h"
#include "core/trace_builder.h"
#include "core/trace_templates.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using namespace accelflow;

void BM_TraceEncode(benchmark::State& state) {
  for (auto _ : state) {
    core::Trace t;
    core::append_invoke(t, accel::AccelType::kTcp);
    core::append_invoke(t, accel::AccelType::kDecr);
    core::append_invoke(t, accel::AccelType::kRpc);
    core::append_invoke(t, accel::AccelType::kDser);
    core::append_branch_skip(t, core::BranchCond::kCompressed, 3);
    core::append_transform(t, accel::DataFormat::kJson,
                           accel::DataFormat::kString);
    core::append_invoke(t, accel::AccelType::kDcmp);
    core::append_invoke(t, accel::AccelType::kLdb);
    core::append_end_notify(t);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecodeStep(benchmark::State& state) {
  core::TraceLibrary lib;
  const auto tt = core::register_templates(lib);
  const std::uint64_t word = lib.get(tt.t1).word;
  std::uint8_t pm = 0;
  for (auto _ : state) {
    const auto op = core::decode_op(word, pm);
    benchmark::DoNotOptimize(op);
    pm = op.kind == core::TraceOp::Kind::kEndNotify ? 0 : op.next_pm;
  }
}
BENCHMARK(BM_TraceDecodeStep);

void BM_BranchEval(benchmark::State& state) {
  accel::PayloadFlags f;
  f.compressed = true;
  f.hit = true;
  int i = 0;
  for (auto _ : state) {
    const auto cond = static_cast<core::BranchCond>(i++ % 5);
    benchmark::DoNotOptimize(core::eval_condition(cond, f));
  }
}
BENCHMARK(BM_BranchEval);

void BM_WalkLoginChain(benchmark::State& state) {
  core::TraceLibrary lib;
  const auto tt = core::register_templates(lib);
  accel::PayloadFlags f;
  f.found = true;
  f.compressed = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::walk_chain(lib, tt.t4, f));
  }
}
BENCHMARK(BM_WalkLoginChain);

void BM_TraceValidate(benchmark::State& state) {
  core::TraceLibrary lib;
  const auto tt = core::register_templates(lib);
  const core::Trace t = lib.get(tt.t10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::validate(t));
  }
}
BENCHMARK(BM_TraceValidate);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(static_cast<sim::TimePs>(i), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_RngLognormal(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean_cv(100.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

}  // namespace

BENCHMARK_MAIN();
