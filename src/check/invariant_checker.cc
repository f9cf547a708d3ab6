#include "check/invariant_checker.h"

#include <algorithm>
#include <sstream>

namespace accelflow::check {

using accel::AccelType;

InvariantChecker::InvariantChecker(CheckerConfig config)
    : config_(config) {}

InvariantChecker::~InvariantChecker() = default;

void InvariantChecker::attach(core::Machine& machine,
                              const core::TraceLibrary& lib) {
  machine_ = &machine;
  lib_ = &lib;
  machine.set_checker(this);
  machine.sim().set_probe(this);
  last_event_time_ = machine.sim().now();
  // Run-scoped tracking resets so one checker can audit several sequential
  // runs (e.g. find_max_load with a checker in its base config runs its
  // probes one at a time, speculation off, and attaches it to each);
  // detected violations and activity counters accumulate across runs.
  active_.clear();
  finished_.clear();
  sequences_.clear();
  dma_inflight_.clear();
  dma_issued_bytes_ = 0;
  dma_delivered_bytes_ = 0;
  if (machine.tracer() == nullptr) {
    // No tracer on this run: attach our own small flight recorder so a
    // violation can still show what the machine was doing. Recording never
    // perturbs scheduling (obs/tracer.h), so the run stays bit-identical.
    own_tracer_ = std::make_unique<obs::Tracer>(config_.flight_recorder_spans);
    machine.set_tracer(own_tracer_.get());
    installed_tracer_ = true;
  }
}

void InvariantChecker::detach() {
  if (machine_ == nullptr) return;
  if (machine_->checker() == this) machine_->set_checker(nullptr);
  if (machine_->sim().probe() == this) machine_->sim().set_probe(nullptr);
  if (installed_tracer_ && machine_->tracer() == own_tracer_.get()) {
    machine_->set_tracer(nullptr);
  }
  installed_tracer_ = false;
  machine_ = nullptr;
  lib_ = nullptr;
}

void InvariantChecker::on_chain_start(const core::ChainContext& ctx,
                                      core::AtmAddr first) {
  ++stats_.chains_started;
  const obs::FlowId flow = obs::flow_id(ctx.request, ctx.chain);
  if (active_.count(flow) > 0) {
    violate("chain started twice while still active", flow);
    return;
  }
  // Sequential stages of one request legitimately reuse its flow id (the
  // chain counter resets per launch): a restart after a finish is a new
  // chain of the same flow, not a duplicate.
  finished_.erase(flow);

  FlowState fs;
  const core::ChainWalk walk = core::walk_chain(*lib_, first, ctx.flags);
  fs.expected = walk.invocations;
  fs.remote_before.reserve(fs.expected.size());
  bool pending_remote = false;
  for (const core::LogicalOp& op : walk.ops) {
    if (op.kind == core::LogicalOp::Kind::kRemoteWait) {
      pending_remote = true;
    } else if (op.kind == core::LogicalOp::Kind::kInvoke) {
      fs.remote_before.push_back(pending_remote);
      pending_remote = false;
    }
  }
  fs.last_bytes = ctx.initial_bytes;
  fs.env = ctx.env;
  fs.started_at = machine_->sim().now();
  active_.emplace(flow, std::move(fs));
}

void InvariantChecker::on_stage(const core::ChainContext& ctx,
                                AccelType type, std::uint64_t payload_bytes,
                                bool on_cpu) {
  ++stats_.stages_checked;
  const obs::FlowId flow = obs::flow_id(ctx.request, ctx.chain);
  const auto it = active_.find(flow);
  if (it == active_.end()) {
    violate(std::string("stage ") + std::string(accel::name_of(type)) +
                " executed for a flow with no active chain",
            flow);
    return;
  }
  FlowState& fs = it->second;
  if (config_.record_sequences) {
    sequences_[flow].push_back(StageRecord{type, payload_bytes, on_cpu});
  }
  if (fs.next >= fs.expected.size()) {
    violate(std::string("stage ") + std::string(accel::name_of(type)) +
                " executed past the end of the expected sequence (" +
                std::to_string(fs.expected.size()) + " invocations)",
            flow);
    return;
  }
  if (type != fs.expected[fs.next]) {
    violate(std::string("out-of-order stage: expected ") +
                std::string(accel::name_of(fs.expected[fs.next])) +
                " at position " + std::to_string(fs.next) + ", got " +
                std::string(accel::name_of(type)),
            flow);
    // Resynchronize on the observed position if possible, so one slip does
    // not cascade into a violation per remaining stage.
    const auto seek = std::find(fs.expected.begin() + static_cast<std::ptrdiff_t>(fs.next),
                                fs.expected.end(), type);
    if (seek != fs.expected.end()) {
      fs.next = static_cast<std::size_t>(seek - fs.expected.begin());
    }
  } else if (!fs.remote_before[fs.next] && fs.env != nullptr) {
    // Payload evolution: between consecutive stages with no network wait,
    // the size entering this stage is exactly the transformed size of the
    // previous stage's input (transformed_size is deterministic).
    const std::uint64_t want =
        fs.next == 0 ? fs.last_bytes
                     : fs.env->transformed_size(fs.last_type, fs.last_bytes);
    if (payload_bytes != want) {
      violate("payload size diverged at stage " + std::to_string(fs.next) +
                  " (" + std::string(accel::name_of(type)) + "): expected " +
                  std::to_string(want) + " bytes, observed " +
                  std::to_string(payload_bytes),
              flow);
    }
  }
  fs.last_type = type;
  fs.last_bytes = payload_bytes;
  ++fs.next;
}

void InvariantChecker::on_chain_finish(const core::ChainContext& ctx,
                                       const core::ChainResult& result) {
  ++stats_.chains_finished;
  const obs::FlowId flow = obs::flow_id(ctx.request, ctx.chain);
  const auto it = active_.find(flow);
  if (it == active_.end()) {
    violate(finished_.count(flow) > 0
                ? std::string("chain finished twice")
                : std::string("chain finished without a recorded start"),
            flow);
    return;
  }
  const FlowState& fs = it->second;
  if (result.ok && fs.next != fs.expected.size()) {
    violate("chain completed OK after " + std::to_string(fs.next) + " of " +
                std::to_string(fs.expected.size()) + " expected invocations",
            flow);
  }
  // A timeout legitimately truncates the sequence: only a prefix ran.
  active_.erase(it);
  finished_.insert(flow);
  retire_dma(machine_->sim().now());
  if (config_.audit_on_finish) audit_queues();
}

void InvariantChecker::on_dma(std::uint64_t bytes, sim::TimePs complete_at) {
  ++stats_.dma_transfers;
  const sim::TimePs now = machine_->sim().now();
  if (complete_at < now || complete_at == sim::kTimeNever) {
    violate("DMA transfer of " + std::to_string(bytes) +
                " bytes completes at an invalid time (" +
                std::to_string(complete_at) + " ps, now " +
                std::to_string(now) + " ps)",
            0);
    return;
  }
  dma_issued_bytes_ += bytes;
  dma_inflight_.emplace_back(complete_at, bytes);
  std::push_heap(dma_inflight_.begin(), dma_inflight_.end(),
                 std::greater<>());
}

void InvariantChecker::on_event(sim::TimePs now) {
  ++stats_.events_observed;
  if (now < last_event_time_) {
    violate("event time moved backwards: " + std::to_string(now) +
                " ps after " + std::to_string(last_event_time_) + " ps",
            0);
  }
  last_event_time_ = now;
}

void InvariantChecker::retire_dma(sim::TimePs now) {
  while (!dma_inflight_.empty() && dma_inflight_.front().first <= now) {
    dma_delivered_bytes_ += dma_inflight_.front().second;
    std::pop_heap(dma_inflight_.begin(), dma_inflight_.end(),
                  std::greater<>());
    dma_inflight_.pop_back();
  }
}

void InvariantChecker::audit_queues() {
  ++stats_.audits;
  for (const AccelType t : accel::kAllAccelTypes) {
    const accel::Accelerator& acc = machine_->accel(t);
    const std::string name(accel::name_of(t));
    const accel::QueueStats& in = acc.input_stats();
    if (in.allocations != in.releases + acc.input_occupancy()) {
      violate(name + " input queue leaks entries: " +
                  std::to_string(in.allocations) + " allocated != " +
                  std::to_string(in.releases) + " released + " +
                  std::to_string(acc.input_occupancy()) + " resident",
              0);
    }
    if (acc.input_occupancy() > acc.params().input_queue_entries) {
      violate(name + " input queue over capacity", 0);
    }
    const accel::QueueStats& out = acc.output_stats();
    if (out.allocations != out.releases + acc.output_occupancy()) {
      violate(name + " output queue leaks entries", 0);
    }
    if (acc.output_occupancy() > acc.params().output_queue_entries) {
      violate(name + " output queue over capacity", 0);
    }
    const accel::AccelStats& st = acc.stats();
    if (st.overflow_enqueues !=
        st.overflow_drains + acc.overflow_occupancy()) {
      violate(name + " overflow accounting broken: " +
                  std::to_string(st.overflow_enqueues) + " enqueued != " +
                  std::to_string(st.overflow_drains) + " drained + " +
                  std::to_string(acc.overflow_occupancy()) + " resident",
              0);
    }
    if (acc.overflow_occupancy() > acc.params().overflow_capacity) {
      violate(name + " overflow area over capacity", 0);
    }
    // jobs and input_bytes are both recorded at dispatch; outputs trail
    // while PEs are busy but can never exceed dispatches.
    if (st.jobs != st.input_bytes.count()) {
      violate(name + " dispatch accounting broken: jobs != recorded inputs",
              0);
    }
    if (st.output_bytes.count() > st.jobs) {
      violate(name + " produced more outputs than dispatched jobs", 0);
    }
  }
}

void InvariantChecker::final_audit() {
  audit_queues();
  const sim::TimePs now = machine_->sim().now();
  retire_dma(now);
  if (machine_->sim().kernel_stats().clamped_past != 0) {
    violate("kernel clamped " +
                std::to_string(machine_->sim().kernel_stats().clamped_past) +
                " past-time schedules (model scheduled into the past)",
            0);
  }
  if (machine_->sim().pending_events() != 0) {
    // The run stopped at a horizon with work in flight: the zero-residual
    // identities below only hold at quiescence.
    return;
  }
  for (const auto& [flow, fs] : active_) {
    violate("chain never finished (stalled after " +
                std::to_string(fs.next) + " of " +
                std::to_string(fs.expected.size()) + " invocations)",
            flow);
  }
  if (!dma_inflight_.empty() || dma_issued_bytes_ != dma_delivered_bytes_) {
    violate("DMA bytes not conserved at quiescence: " +
                std::to_string(dma_issued_bytes_) + " issued, " +
                std::to_string(dma_delivered_bytes_) + " delivered",
            0);
  }
  for (const AccelType t : accel::kAllAccelTypes) {
    const accel::Accelerator& acc = machine_->accel(t);
    const accel::AccelStats& st = acc.stats();
    // Fault-injected runs kill some dispatched jobs before they deposit
    // output (DESIGN.md §14); every such loss must be explicitly counted,
    // never silent — the identity covers fault-free runs as a special case.
    if (st.jobs != st.output_bytes.count() + st.killed_jobs) {
      violate(std::string(accel::name_of(t)) +
                  " lost jobs at quiescence: " + std::to_string(st.jobs) +
                  " dispatched, " +
                  std::to_string(st.output_bytes.count()) + " deposited, " +
                  std::to_string(st.killed_jobs) + " killed by faults",
              0);
    }
    if (acc.input_occupancy() != 0 || acc.output_occupancy() != 0 ||
        acc.overflow_occupancy() != 0) {
      violate(std::string(accel::name_of(t)) +
                  " still holds queue entries at quiescence",
              0);
    }
  }
}

void InvariantChecker::violate(std::string what, obs::FlowId flow) {
  if (violations_.size() >= config_.max_violations) {
    ++stats_.violations_dropped;
    return;
  }
  Violation v;
  v.what = std::move(what);
  v.flow = flow;
  v.at = machine_ != nullptr ? machine_->sim().now() : 0;
  v.span_excerpt = span_excerpt();
  violations_.push_back(std::move(v));
}

std::string InvariantChecker::span_excerpt() const {
  if (machine_ == nullptr || machine_->tracer() == nullptr) return {};
  const obs::Tracer& tr = *machine_->tracer();
  const std::size_t want = config_.excerpt_spans;
  const std::size_t skip = tr.size() > want ? tr.size() - want : 0;
  std::ostringstream os;
  std::size_t i = 0;
  tr.for_each([&](const obs::SpanEvent& ev) {
    if (i++ < skip) return;
    os << "    [" << sim::to_microseconds(ev.ts) << "us] "
       << name_of(ev.subsys) << "/" << name_of(ev.kind);
    if (ev.dur != 0) os << " dur=" << sim::to_microseconds(ev.dur) << "us";
    if (ev.flow != 0) os << " flow=" << ev.flow;
    if (ev.arg != 0) os << " arg=" << ev.arg;
    os << "\n";
  });
  return os.str();
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  os << "InvariantChecker: " << violations_.size() << " violation(s) ("
     << stats_.violations_dropped << " more dropped), "
     << stats_.chains_started << " chains started, "
     << stats_.chains_finished << " finished, " << stats_.stages_checked
     << " stages checked, " << stats_.dma_transfers << " DMA transfers, "
     << stats_.audits << " queue audits\n";
  for (const Violation& v : violations_) {
    os << "  VIOLATION";
    if (v.flow != 0) {
      os << " [request " << (v.flow >> 8) << " chain " << (v.flow & 0xFF)
         << "]";
    }
    os << " at t=" << sim::to_microseconds(v.at) << "us: " << v.what << "\n";
    if (!v.span_excerpt.empty()) {
      os << "  recent spans:\n" << v.span_excerpt;
    }
  }
  return os.str();
}

const std::vector<StageRecord>* InvariantChecker::sequence(
    obs::FlowId flow) const {
  const auto it = sequences_.find(flow);
  return it == sequences_.end() ? nullptr : &it->second;
}

std::vector<obs::FlowId> InvariantChecker::recorded_flows() const {
  std::vector<obs::FlowId> flows;
  flows.reserve(sequences_.size());
  for (const auto& [flow, seq] : sequences_) flows.push_back(flow);
  std::sort(flows.begin(), flows.end());
  return flows;
}

}  // namespace accelflow::check
