#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>


namespace accelflow::core {

using accel::AccelType;
using accel::kInlineDataBytes;
using accel::QueueEntry;
using accel::SlotId;

namespace {
/** Header bytes moved with every queue-entry DMA (trace + metadata). */
constexpr std::uint64_t kEntryHeaderBytes = 64;

std::uint64_t entry_dma_bytes(const QueueEntry& e) {
  return std::min<std::uint64_t>(e.payload.size_bytes, kInlineDataBytes) +
         kEntryHeaderBytes;
}

/** Grow-on-demand slot of a per-tenant counter vector (EngineStats). */
std::uint64_t& tenant_count(std::vector<std::uint64_t>& v,
                            accel::TenantId tenant) {
  if (tenant >= v.size()) v.resize(static_cast<std::size_t>(tenant) + 1, 0);
  return v[tenant];
}
}  // namespace

AccelFlowEngine::AccelFlowEngine(Machine& machine, const TraceLibrary& lib,
                                 const EngineConfig& config)
    : machine_(machine),
      lib_(lib),
      config_(config),
      mba_(machine.sim(), config.mba) {
  machine_.load_traces(lib_);
  machine_.install_output_handler(this);
}

sim::TimePs AccelFlowEngine::instr_time(double instrs) const {
  // Dispatcher FSMs execute ~1 RISC instruction per cycle at the package
  // clock (Section VII-B.2).
  return sim::Clock(machine_.config().cpu.clock_ghz).cycles_to_ps(instrs);
}

std::uint32_t AccelFlowEngine::tenant_active(accel::TenantId tenant) const {
  return tenant < tenant_active_.size() ? tenant_active_[tenant] : 0;
}

void AccelFlowEngine::start_chain(ChainContext* ctx, AtmAddr first) {
  // Per-tenant trace throttling (Section IV-D): over-threshold starts wait
  // until one of the tenant's traces retires. The QosPolicy per-tenant
  // cap (DESIGN.md §19) composes with the global knob: the tighter of the
  // two binds.
  auto& active = tenant_slot(ctx->tenant);
  const qos::TenantSlo& slo = config_.qos.tenant(ctx->tenant);
  const std::uint32_t cap =
      std::min(config_.tenant_max_active, slo.max_active_chains);
  if (active >= cap) {
    ++stats_.tenant_throttled;
    if (active < config_.tenant_max_active) ++stats_.quota_throttled;
    throttled_.push_back(PendingStart{ctx, first});
    return;
  }
  ++active;
  // The SLO class's scheduling priority floors the caller-provided one,
  // so a latency-sensitive tenant's entries win SchedPolicy::kPriority
  // picks without every injector knowing about the policy.
  if (slo.priority > ctx->priority) ctx->priority = slo.priority;
  ++stats_.chains_started;
  if (ValidationHooks* c = chk()) c->on_chain_start(*ctx, first);

  const Trace& tr = lib_.get(first);
  const TraceOp op0 = decode_op(tr.word, 0);
  assert(op0.kind == TraceOp::Kind::kInvoke &&
         "a chain must start by invoking an accelerator");

  // Graceful degradation (DESIGN.md §14): while the first accelerator is
  // quarantined, the whole chain starts on the CPU instead.
  if (reroute_unhealthy(op0.accel)) {
    ++stats_.health_fallbacks;
    ++stats_.fallbacks_by_type[accel::index_of(op0.accel)];
    ctx->faulted = true;
    continue_chain_on_cpu(ctx, tr.word, op0.next_pm, ctx->initial_bytes,
                          op0.accel);
    return;
  }

  QueueEntry e;
  e.trace_word = tr.word;
  e.position_mark = op0.next_pm;
  e.tenant = ctx->tenant;
  e.request = ctx->request;
  e.chain = ctx->chain;
  e.payload.size_bytes = ctx->initial_bytes;
  e.payload.format = ctx->initial_format;
  e.payload.flags = ctx->flags;
  e.payload.va = ctx->buffer_va;
  e.cpu_cost = ctx->env->op_cpu_cost(*ctx, op0.accel, e.payload.size_bytes);
  e.priority = ctx->priority;
  if (config_.stamp_deadlines &&
      ctx->step_deadline_budget != sim::kTimeNever) {
    e.deadline = machine_.sim().now() + ctx->step_deadline_budget;
  }
  e.initiating_core = ctx->core;
  e.ctx = ctx;
  e.ready = false;
  e.pending_inputs = 1;

  // The user-mode Enqueue instruction plus A-DMA programming.
  machine_.cores().charge_enqueue(ctx->core);
  if (obs::Tracer* t = trc()) {
    // The chain's flow begins on the enqueue slice of the initiating core.
    const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
    const sim::TimePs now = machine_.sim().now();
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kEnqueue, tid, now, now,
                e.payload.size_bytes, flow);
    t->flow(obs::Phase::kFlowBegin, obs::Subsys::kEngine, tid, now, flow);
  }
  enqueue_with_retry(ctx, std::move(e), op0.accel, 0);
}

void AccelFlowEngine::enqueue_with_retry(ChainContext* ctx, QueueEntry entry,
                                         AccelType target, int attempt) {
  // Attribute the initial-payload DMA (and its NoC legs) to this chain.
  obs::FlowScope flow_scope(trc(), obs::flow_id(entry.request, entry.chain));
  accel::Accelerator& dst = machine_.accel(target);
  if (attempt == 0) ++stats_.attempts_by_type[accel::index_of(target)];
  const SlotId slot = dst.try_enqueue(entry);
  if (slot == accel::kInvalidSlot) {
    if (attempt + 1 >= config_.enqueue_retries) {
      // Starvation freedom: after several failed attempts the trace
      // executes on the core instead.
      ++stats_.enqueue_fallbacks;
      ++stats_.fallbacks_by_type[accel::index_of(target)];
      continue_chain_on_cpu(ctx, entry.trace_word, entry.position_mark,
                            entry.payload.size_bytes, target);
      return;
    }
    const auto parked = parked_.park(std::move(entry));
    machine_.sim().schedule_after(
        sim::nanoseconds(config_.enqueue_retry_delay_ns),
        [this, ctx, parked, target, attempt] {
          machine_.cores().charge_enqueue(ctx->core);
          enqueue_with_retry(ctx, parked_.take(parked), target, attempt + 1);
        });
    return;
  }

  // A-DMA collects the payload coherently and deposits it in the entry.
  sim::TimePs arrive = machine_.sim().now();
  if (!config_.zero_overhead) {
    const std::uint64_t bytes = entry_dma_bytes(dst.input_entry(slot));
    arrive = machine_.dma().transfer(machine_.core_location(ctx->core),
                                     dst.location(), bytes,
                                     mba_.acquire(ctx->tenant, bytes));
    if (ValidationHooks* c = chk()) c->on_dma(bytes, arrive);
  }
  arm_hop(ctx, target, entry.trace_word, entry.position_mark,
          entry.payload.size_bytes, entry.payload.format, arrive);
  machine_.sim().schedule_at(arrive,
                             [&dst, slot] { dst.deliver_data(slot); });
}

void AccelFlowEngine::handle_output(accel::Accelerator& acc, SlotId slot) {
  run_dispatcher_fsm(acc, slot);
}

void AccelFlowEngine::run_dispatcher_fsm(accel::Accelerator& acc,
                                         SlotId slot) {
  QueueEntry e = acc.output_entry(slot);  // The A-DMA moves a copy onward.
  ChainContext* ctx = e.ctx;
  assert(ctx != nullptr);
  if (resilience_active()) {
    // The hop produced output: stand the watchdog down (the next hand-off
    // re-arms it) and credit the accelerator's health.
    disarm_hop(ctx);
    record_hop_success(acc.type());
  }
  ++ctx->accel_invocations;
  // Everything the FSM touches synchronously below (dispatcher occupancy,
  // forwarding DMA, manager round trips) belongs to this chain.
  obs::FlowScope flow_scope(trc(), obs::flow_id(e.request, e.chain));
  if (ValidationHooks* c = chk()) {
    // The stage that just finished on `acc`, with its pre-transform size.
    c->on_stage(*ctx, acc.type(), e.payload.size_bytes, /*on_cpu=*/false);
  }

  // The PE's result replaces the payload.
  e.payload.size_bytes =
      ctx->env->transformed_size(acc.type(), e.payload.size_bytes);

  const bool zero = config_.zero_overhead;
  double instrs = zero ? 0.0 : config_.base_instrs;
  sim::TimePs fsm_extra = 0;  // DTE occupancy.
  sim::TimePs ready = machine_.sim().now();
  std::uint64_t word = e.trace_word;
  std::uint8_t pm = e.position_mark;
  bool saw_branch = false, saw_transform = false, saw_eot = false;

  auto record_glue = [&] {
    if (zero) return;
    stats_.glue_instrs.add(instrs);
    stats_.glue_branch_ops += saw_branch;
    stats_.glue_transform_ops += saw_transform;
    stats_.glue_eot_ops += saw_eot;
  };
  auto release_at = [this, &acc, slot](sim::TimePs when) {
    machine_.sim().schedule_at(when,
                               [&acc, slot] { acc.release_output(slot); });
  };
  auto atm_fetch = [&](AtmAddr addr) {
    ++stats_.atm_loads;
    word = machine_.atm().load(addr).word;
    pm = 0;
    if (!zero) {
      ready += machine_.atm().read_latency() +
               machine_.net().zero_load_latency(machine_.atm().location(),
                                                acc.location(), 8);
    }
  };

  for (;;) {
    const TraceOp op = decode_op(word, pm);
    switch (op.kind) {
      case TraceOp::Kind::kInvoke: {
        e.trace_word = word;
        e.position_mark = op.next_pm;
        e.cpu_cost =
            ctx->env->op_cpu_cost(*ctx, op.accel, e.payload.size_bytes);
        record_glue();
        const sim::TimePs fsm_done =
            zero ? ready : acc.occupy_dispatcher(instr_time(instrs) + fsm_extra);
        const sim::TimePs launch = std::max(ready, fsm_done);
        release_at(launch);
        forward(acc, std::move(e), op.accel, launch, /*armed_wait=*/false,
                RemoteKind::kNone);
        return;
      }
      case TraceOp::Kind::kBranchSkip: {
        ++ctx->branches;
        saw_branch = true;
        if (config_.dispatcher_branches || zero) {
          if (!zero) instrs += config_.branch_instrs;
        } else {
          ready = manager_round_trip(acc, ready);
        }
        pm = op.next_pm;
        if (!eval_condition(op.cond, e.payload.flags)) pm += op.skip;
        break;
      }
      case TraceOp::Kind::kBranchAtm: {
        ++ctx->branches;
        saw_branch = true;
        if (config_.dispatcher_branches || zero) {
          if (!zero) instrs += config_.branch_instrs;
        } else {
          ready = manager_round_trip(acc, ready);
        }
        if (eval_condition(op.cond, e.payload.flags)) {
          pm = op.next_pm;
        } else {
          atm_fetch(op.atm);
        }
        break;
      }
      case TraceOp::Kind::kTransform: {
        ++ctx->transforms;
        saw_transform = true;
        if (config_.dispatcher_transforms || zero) {
          if (!zero) {
            // Bulk loads/stores per 2KB block, bounded: the DTE streams
            // large payloads (Section VII-B.2's worst case is ~50).
            instrs += config_.transform_instrs *
                      std::clamp(static_cast<double>(e.payload.size_bytes) /
                                     static_cast<double>(kInlineDataBytes),
                                 1.0, 2.5);
            fsm_extra += static_cast<sim::TimePs>(
                static_cast<double>(e.payload.size_bytes) /
                (config_.dte_gbps * 1e9) * 1e12);
          }
        } else {
          // CntrFlow ablation: the manager performs the transformation,
          // which also round-trips the payload.
          ready = manager_round_trip(acc, ready);
          ready = machine_.net().transfer(acc.location(),
                                          machine_.manager_location(),
                                          e.payload.size_bytes, ready);
          ready = machine_.net().transfer(machine_.manager_location(),
                                          acc.location(),
                                          e.payload.size_bytes, ready);
        }
        e.payload.format = op.to;
        pm = op.next_pm;
        break;
      }
      case TraceOp::Kind::kNotifyCont: {
        ++ctx->mid_notifies;
        ++stats_.notifications;
        const int core = ctx->core;
        machine_.sim().schedule_at(
            ready, [this, core] { machine_.cores().notify(core); });
        pm = op.next_pm;
        break;
      }
      case TraceOp::Kind::kTail: {
        saw_eot = true;
        if (!zero) instrs += config_.eot_atm_instrs;
        const RemoteKind kind = lib_.remote_of(op.atm);
        atm_fetch(op.atm);
        if (kind == RemoteKind::kNone) break;  // Chain immediately.

        // The loaded trace waits for a network response: deposit it in the
        // input queue of its first accelerator (the same TCP in all of
        // Table II's traces) as a non-ready entry.
        const TraceOp first = decode_op(word, 0);
        assert(first.kind == TraceOp::Kind::kInvoke);
        e.trace_word = word;
        e.position_mark = first.next_pm;
        record_glue();
        const sim::TimePs fsm_done =
            zero ? ready : acc.occupy_dispatcher(instr_time(instrs) + fsm_extra);
        const sim::TimePs launch = std::max(ready, fsm_done);
        release_at(launch);
        forward(acc, std::move(e), first.accel, launch, /*armed_wait=*/true,
                kind);
        return;
      }
      case TraceOp::Kind::kEndNotify: {
        saw_eot = true;
        if (!zero) instrs += config_.eot_notify_instrs;
        record_glue();
        const sim::TimePs fsm_done =
            zero ? ready : acc.occupy_dispatcher(instr_time(instrs) + fsm_extra);
        const sim::TimePs launch = std::max(ready, fsm_done);
        release_at(launch);
        finish_to_cpu(acc, std::move(e), launch);
        return;
      }
    }
  }
}

void AccelFlowEngine::forward(accel::Accelerator& from, QueueEntry e,
                              AccelType target, sim::TimePs ready,
                              bool armed_wait, RemoteKind wait_kind) {
  obs::FlowScope flow_scope(trc(), obs::flow_id(e.request, e.chain));
  accel::Accelerator& dst = machine_.accel(target);
  ChainContext* ctx = e.ctx;

  // Graceful degradation: don't hand new work to a quarantined
  // accelerator. Armed network waits are exempt — the receive trace must
  // park somewhere, and the CPU path models that wait differently.
  if (!armed_wait && reroute_unhealthy(target)) {
    ++stats_.health_fallbacks;
    ++stats_.fallbacks_by_type[accel::index_of(target)];
    ctx->faulted = true;
    cpu_fallback_from_entry(e, target);
    return;
  }

  if (config_.stamp_deadlines &&
      ctx->step_deadline_budget != sim::kTimeNever) {
    // The deadline is relative to now; early finishers pass slack on.
    e.deadline = machine_.sim().now() + ctx->step_deadline_budget;
  }

  sim::TimePs arrive = ready;
  if (!config_.zero_overhead) {
    // MBA-style throttling: a capped tenant's transfers wait for bucket
    // credit before touching the A-DMA engines (Section IV-D).
    const sim::TimePs admitted = std::max(
        ready, mba_.acquire(e.tenant, entry_dma_bytes(e)));
    arrive = machine_.dma().transfer(from.location(), dst.location(),
                                     entry_dma_bytes(e), admitted);
    if (ValidationHooks* c = chk()) c->on_dma(entry_dma_bytes(e), arrive);
    if (e.payload.size_bytes > kInlineDataBytes) {
      // The remainder lives in the memory buffer: the producer writes it
      // back coherently; the consumer fetches it through its Memory
      // Pointer at dispatch time.
      const auto w = machine_.memory().write(
          e.payload.size_bytes - kInlineDataBytes, /*llc_hit_prob=*/0.9);
      arrive = std::max(arrive, w.complete_at);
    }
  }

  e.ready = false;
  e.pending_inputs = 1;
  arm_hop(ctx, target, e.trace_word, e.position_mark, e.payload.size_bytes,
          e.payload.format, arrive);
  const auto parked = parked_.park(std::move(e));
  machine_.sim().schedule_at(
      arrive, [this, &dst, parked, armed_wait, wait_kind] {
        accel::QueueEntry e = parked_.take(parked);
        ChainContext* ctx = e.ctx;
        const AccelType target = dst.type();
        ++stats_.attempts_by_type[accel::index_of(target)];
        const SlotId slot = dst.try_enqueue(e);
        if (slot == accel::kInvalidSlot) {
          if (armed_wait) {
            // No room to pre-arm the receive trace: defer the arming and
            // re-enqueue when the response actually arrives (the entry
            // carries no data yet, so the overflow area cannot hold it).
            ++stats_.deferred_arms;
            ++ctx->remote_calls;
            // The deferred entry parks again until the response arrives;
            // every exit below either redeems or drops the ticket.
            const auto deferred = parked_.park(std::move(e));
            auto deliver_deferred = [this, deferred,
                                     &dst](std::uint64_t bytes) {
              accel::QueueEntry le = parked_.take(deferred);
              ChainContext* lctx = le.ctx;
              le.payload.size_bytes = bytes;
              le.payload.flags = lctx->flags;
              le.cpu_cost =
                  lctx->env->op_cpu_cost(*lctx, dst.type(), bytes);
              le.ready = false;
              le.pending_inputs = 1;
              forward_into_queue(dst, std::move(le));
            };
            // The parked entry is invisible to holds_chain(): tell the
            // watchdog this is a (possibly unbounded) known wait, not a
            // loss. A synchronous nested delivery re-arms right over it.
            note_hop_wait(ctx, sim::kTimeNever);
            if (!ctx->env->nested_call(*ctx, wait_kind, deliver_deferred)) {
              const sim::TimePs latency =
                  ctx->env->remote_latency(*ctx, wait_kind);
              const sim::TimePs timeout =
                  sim::milliseconds(config_.response_timeout_ms);
              if (latency > timeout) {
                ++stats_.timeouts;
                parked_.drop(deferred);  // The timeout path never delivers.
                disarm_hop(ctx);  // The chain completes below, on schedule.
                machine_.sim().schedule_after(timeout, [this, ctx] {
                  ChainResult r;
                  r.ok = false;
                  r.timeout = true;
                  r.completed_at = machine_.sim().now();
                  machine_.cores().notify(ctx->core);
                  complete_chain(ctx, r);
                });
                return;
              }
              const std::uint64_t resp =
                  ctx->env->response_size(*ctx, wait_kind);
              note_hop_wait(ctx, machine_.sim().now() + latency);
              machine_.sim().schedule_after(
                  latency,
                  [deliver_deferred, resp] { deliver_deferred(resp); });
            }
            return;
          }
          // Output dispatchers cannot retry: the entry goes to the overflow
          // area; a full overflow area falls back to the CPU (Section IV-A).
          if (!dst.overflow_enqueue(e)) {
            ++stats_.overflow_fallbacks;
            ++stats_.fallbacks_by_type[accel::index_of(target)];
            // Include the about-to-run op: backing the PM up is impossible
            // (nibbles vary), so re-walk from the invoke by prepending it.
            cpu_fallback_from_entry(e, target);
            return;
          }
          return;  // Drained into the queue later by the accelerator.
        }
        if (!armed_wait) {
          dst.deliver_data(slot);
          return;
        }
        // Armed network wait: the response (or a timeout) makes it ready.
        ++ctx->remote_calls;
        auto deliver = [this, &dst, slot, ctx](std::uint64_t bytes) {
          accel::QueueEntry& qe = dst.input_entry(slot);
          qe.payload.size_bytes = bytes;
          qe.payload.flags = ctx->flags;
          qe.cpu_cost = ctx->env->op_cpu_cost(*ctx, dst.type(), bytes);
          // Refresh the hand-off record: a re-issue of this hop must carry
          // the response payload, not the pre-response placeholder.
          arm_hop(ctx, dst.type(), qe.trace_word, qe.position_mark, bytes,
                  qe.payload.format, /*in_flight_until=*/0);
          dst.deliver_data(slot);
        };
        if (ctx->env->nested_call(*ctx, wait_kind, deliver)) return;
        const sim::TimePs latency = ctx->env->remote_latency(*ctx, wait_kind);
        const sim::TimePs timeout =
            sim::milliseconds(config_.response_timeout_ms);
        if (latency > timeout) {
          ++stats_.timeouts;
          disarm_hop(ctx);  // The chain completes below, on schedule.
          machine_.sim().schedule_after(timeout, [this, &dst, slot, ctx] {
            dst.release_input(slot);
            ChainResult r;
            r.ok = false;
            r.timeout = true;
            r.completed_at = machine_.sim().now();
            machine_.cores().notify(ctx->core);
            complete_chain(ctx, r);
          });
          return;
        }
        machine_.sim().schedule_after(
            latency, [this, &dst, slot, ctx, wait_kind] {
              QueueEntry& qe = dst.input_entry(slot);
              qe.payload.size_bytes =
                  ctx->env->response_size(*ctx, wait_kind);
              qe.payload.flags = ctx->flags;
              qe.cpu_cost = ctx->env->op_cpu_cost(*ctx, dst.type(),
                                                  qe.payload.size_bytes);
              arm_hop(ctx, dst.type(), qe.trace_word, qe.position_mark,
                      qe.payload.size_bytes, qe.payload.format,
                      /*in_flight_until=*/0);
              dst.deliver_data(slot);
            });
      });
}

void AccelFlowEngine::forward_into_queue(accel::Accelerator& dst,
                                         QueueEntry e) {
  if (reroute_unhealthy(dst.type())) {
    ++stats_.health_fallbacks;
    ++stats_.fallbacks_by_type[accel::index_of(dst.type())];
    e.ctx->faulted = true;
    cpu_fallback_from_entry(e, dst.type());
    return;
  }
  arm_hop(e.ctx, dst.type(), e.trace_word, e.position_mark,
          e.payload.size_bytes, e.payload.format, /*in_flight_until=*/0);
  ++stats_.attempts_by_type[accel::index_of(dst.type())];
  const SlotId slot = dst.try_enqueue(e);
  if (slot != accel::kInvalidSlot) {
    dst.deliver_data(slot);
    return;
  }
  if (!dst.overflow_enqueue(e)) {
    ++stats_.overflow_fallbacks;
    ++stats_.fallbacks_by_type[accel::index_of(dst.type())];
    cpu_fallback_from_entry(e, dst.type());
  }
}

void AccelFlowEngine::cpu_fallback_from_entry(const QueueEntry& e,
                                              AccelType pending) {
  continue_chain_on_cpu(e.ctx, e.trace_word, e.position_mark,
                        e.payload.size_bytes, pending);
}

void AccelFlowEngine::continue_chain_on_cpu(ChainContext* ctx,
                                            std::uint64_t word,
                                            std::uint8_t pm,
                                            std::uint64_t payload_bytes,
                                            AccelType pending) {
  // The CPU path cannot lose a chain (every branch below completes it or
  // re-enters the ensemble, which re-arms): the watchdog stands down.
  disarm_hop(ctx);
  ++tenant_count(stats_.fallback_by_tenant, ctx->tenant);
  if (obs::Tracer* t = trc()) {
    t->instant(obs::Subsys::kCpu, obs::SpanKind::kCpuFallback,
               static_cast<std::uint32_t>(ctx->core), machine_.sim().now(),
               payload_bytes, obs::flow_id(ctx->request, ctx->chain));
  }
  // The denied operation executes unaccelerated on the initiating core.
  if (ValidationHooks* c = chk()) {
    c->on_stage(*ctx, pending, payload_bytes, /*on_cpu=*/true);
  }
  auto& cores = machine_.cores();
  const double tax_speed = cores.params().tax_speed;
  sim::TimePs segment = static_cast<sim::TimePs>(
      static_cast<double>(
          ctx->env->op_cpu_cost(*ctx, pending, payload_bytes)) /
      tax_speed);
  ++ctx->accel_invocations;
  std::uint64_t bytes = ctx->env->transformed_size(pending, payload_bytes);

  // Interpret control ops on the core until the next accelerator invoke,
  // a network wait, or the end of the chain.
  for (;;) {
    const TraceOp op = decode_op(word, pm);
    switch (op.kind) {
      case TraceOp::Kind::kInvoke: {
        // Re-enter the ensemble.
        QueueEntry e;
        e.trace_word = word;
        e.position_mark = op.next_pm;
        e.tenant = ctx->tenant;
        e.request = ctx->request;
        e.chain = ctx->chain;
        e.payload.size_bytes = bytes;
        e.payload.flags = ctx->flags;
        e.payload.va = ctx->buffer_va;
        e.cpu_cost = ctx->env->op_cpu_cost(*ctx, op.accel, bytes);
        e.priority = ctx->priority;
        e.initiating_core = ctx->core;
        e.ctx = ctx;
        e.ready = false;
        e.pending_inputs = 1;
        accel::Accelerator& dst = machine_.accel(op.accel);
        const auto parked = parked_.park(std::move(e));
        cores.run_on(ctx->core, segment, [this, &dst, parked] {
          forward_into_queue(dst, parked_.take(parked));
        });
        return;
      }
      case TraceOp::Kind::kBranchSkip:
        ++ctx->branches;
        segment += cores.cycles(20);
        pm = op.next_pm;
        if (!eval_condition(op.cond, ctx->flags)) pm += op.skip;
        break;
      case TraceOp::Kind::kBranchAtm:
        ++ctx->branches;
        segment += cores.cycles(20);
        if (eval_condition(op.cond, ctx->flags)) {
          pm = op.next_pm;
        } else {
          word = lib_.get(op.atm).word;
          pm = 0;
        }
        break;
      case TraceOp::Kind::kTransform:
        ++ctx->transforms;
        segment += static_cast<sim::TimePs>(
            static_cast<double>(bytes) / 2e9 * 1e12 / tax_speed);
        pm = op.next_pm;
        break;
      case TraceOp::Kind::kNotifyCont:
        ++ctx->mid_notifies;
        pm = op.next_pm;
        break;
      case TraceOp::Kind::kTail: {
        const RemoteKind kind = lib_.remote_of(op.atm);
        word = lib_.get(op.atm).word;
        pm = 0;
        if (kind == RemoteKind::kNone) break;
        // The core sends the message and waits for the response; the
        // receive trace then re-enters the ensemble.
        const TraceOp first = decode_op(word, 0);
        assert(first.kind == TraceOp::Kind::kInvoke);
        const std::uint64_t next_word = word;
        const std::uint8_t next_pm = first.next_pm;
        const AccelType recv = first.accel;
        ++ctx->remote_calls;
        auto deliver = [this, ctx, next_word, next_pm,
                        recv](std::uint64_t resp) {
          QueueEntry e;
          e.trace_word = next_word;
          e.position_mark = next_pm;
          e.tenant = ctx->tenant;
          e.request = ctx->request;
          e.chain = ctx->chain;
          e.payload.size_bytes = resp;
          e.payload.flags = ctx->flags;
          e.payload.va = ctx->buffer_va;
          e.cpu_cost = ctx->env->op_cpu_cost(*ctx, recv, resp);
          e.priority = ctx->priority;
          e.initiating_core = ctx->core;
          e.ctx = ctx;
          e.ready = false;
          e.pending_inputs = 1;
          forward_into_queue(machine_.accel(recv), std::move(e));
        };
        cores.run_on(ctx->core, segment, [this, ctx, kind, deliver] {
          if (ctx->env->nested_call(*ctx, kind, deliver)) return;
          const sim::TimePs latency = ctx->env->remote_latency(*ctx, kind);
          const sim::TimePs timeout =
              sim::milliseconds(config_.response_timeout_ms);
          if (latency > timeout) {
            ++stats_.timeouts;
            machine_.sim().schedule_after(timeout, [this, ctx] {
              ChainResult r;
              r.ok = false;
              r.timeout = true;
              r.cpu_fallback = true;
              r.completed_at = machine_.sim().now();
              complete_chain(ctx, r);
            });
            return;
          }
          const std::uint64_t resp = ctx->env->response_size(*ctx, kind);
          machine_.sim().schedule_after(
              latency, [deliver, resp] { deliver(resp); });
        });
        return;
      }
      case TraceOp::Kind::kEndNotify: {
        cores.run_on(ctx->core, segment, [this, ctx] {
          ChainResult r;
          r.ok = true;
          r.cpu_fallback = true;
          r.completed_at = machine_.sim().now();
          complete_chain(ctx, r);
        });
        return;
      }
    }
  }
}

void AccelFlowEngine::finish_to_cpu(accel::Accelerator& from, QueueEntry e,
                                    sim::TimePs ready) {
  ChainContext* ctx = e.ctx;
  sim::TimePs arrive = ready;
  if (!config_.zero_overhead) {
    // The A-DMA deposits the result in a memory buffer the core reads.
    arrive = machine_.dma().transfer(from.location(),
                                     machine_.core_location(ctx->core),
                                     entry_dma_bytes(e), ready);
    if (ValidationHooks* c = chk()) c->on_dma(entry_dma_bytes(e), arrive);
    if (e.payload.size_bytes > kInlineDataBytes) {
      const auto w = machine_.memory().write(
          e.payload.size_bytes - kInlineDataBytes, /*llc_hit_prob=*/0.9);
      arrive = std::max(arrive, w.complete_at);
    }
  }
  ++stats_.notifications;
  if (obs::Tracer* t = trc()) {
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kNotify,
                static_cast<std::uint32_t>(ctx->core), ready, arrive,
                e.payload.size_bytes, obs::flow_id(e.request, e.chain));
  }
  machine_.sim().schedule_at(arrive, [this, ctx] {
    machine_.cores().notify(ctx->core, [this, ctx] {
      ChainResult r;
      r.ok = true;
      r.completed_at = machine_.sim().now();
      complete_chain(ctx, r);
    });
  });
}

sim::TimePs AccelFlowEngine::manager_round_trip(
    const accel::Accelerator& at, sim::TimePs ready) {
  ++stats_.manager_fallbacks;
  const sim::TimePs go = machine_.net().transfer(
      at.location(), machine_.manager_location(), 64, ready);
  const sim::TimePs handled = machine_.manager().submit_at(
      go, sim::microseconds(machine_.config().manager_event_us *
                            config_.manager_fallback_events));
  if (obs::Tracer* t = trc()) {
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kManagerEvent,
                obs::kManagerTid, go, handled);
  }
  return machine_.net().transfer(machine_.manager_location(), at.location(),
                                 64, handled);
}

void AccelFlowEngine::snapshot_metrics(obs::MetricsRegistry& reg) const {
  using Kind = obs::MetricsRegistry::Kind;
  reg.set("engine.chains_started", static_cast<double>(stats_.chains_started));
  reg.set("engine.chains_completed",
          static_cast<double>(stats_.chains_completed));
  reg.set("engine.enqueue_fallbacks",
          static_cast<double>(stats_.enqueue_fallbacks));
  reg.set("engine.overflow_fallbacks",
          static_cast<double>(stats_.overflow_fallbacks));
  reg.set("engine.timeouts", static_cast<double>(stats_.timeouts));
  reg.set("engine.deferred_arms", static_cast<double>(stats_.deferred_arms));
  reg.set("engine.manager_fallbacks",
          static_cast<double>(stats_.manager_fallbacks));
  reg.set("engine.atm_loads", static_cast<double>(stats_.atm_loads));
  reg.set("engine.notifications", static_cast<double>(stats_.notifications));
  reg.set("engine.tenant_throttled",
          static_cast<double>(stats_.tenant_throttled));
  reg.set("engine.quota_throttled",
          static_cast<double>(stats_.quota_throttled));
  // Per-tenant families (DESIGN.md §19): one series per tenant that ever
  // completed a chain, so single-tenant runs add no cardinality.
  for (std::size_t t = 0; t < stats_.completed_by_tenant.size(); ++t) {
    const std::string base = "engine.tenant." + std::to_string(t);
    reg.set(base + ".completed",
            static_cast<double>(stats_.completed_by_tenant[t]));
    if (t < stats_.faulted_by_tenant.size()) {
      reg.set(base + ".faulted",
              static_cast<double>(stats_.faulted_by_tenant[t]));
    }
    if (t < stats_.fallback_by_tenant.size()) {
      reg.set(base + ".fallbacks",
              static_cast<double>(stats_.fallback_by_tenant[t]));
    }
  }
  reg.set("engine.hop_timeouts", static_cast<double>(stats_.hop_timeouts));
  reg.set("engine.hop_retries", static_cast<double>(stats_.hop_retries));
  reg.set("engine.hop_probes", static_cast<double>(stats_.hop_probes));
  reg.set("engine.retry_exhausted_fallbacks",
          static_cast<double>(stats_.retry_exhausted_fallbacks));
  reg.set("engine.health_fallbacks",
          static_cast<double>(stats_.health_fallbacks));
  reg.set("engine.unhealthy_transitions",
          static_cast<double>(stats_.unhealthy_transitions));
  reg.set("engine.probation_recoveries",
          static_cast<double>(stats_.probation_recoveries));
  reg.set("engine.chains_faulted",
          static_cast<double>(stats_.chains_faulted));
  reg.set("engine.glue.mean_instrs", stats_.glue_instrs.mean(), Kind::kGauge);
  reg.set("engine.glue.ops", static_cast<double>(stats_.glue_instrs.count()));
  for (const AccelType t : accel::kAllAccelTypes) {
    const std::size_t i = accel::index_of(t);
    const std::string p = obs::metric_path("engine.fallbacks",
                                           accel::name_of(t));
    reg.set(p, static_cast<double>(stats_.fallbacks_by_type[i]));
  }
}

void AccelFlowEngine::complete_chain(ChainContext* ctx,
                                     const ChainResult& result) {
  disarm_hop(ctx);
  ChainResult res = result;
  if (ctx->faulted) {
    res.faulted = true;
    ++stats_.chains_faulted;
    ++tenant_count(stats_.faulted_by_tenant, ctx->tenant);
  }
  ++stats_.chains_completed;
  ++tenant_count(stats_.completed_by_tenant, ctx->tenant);
  if (ValidationHooks* c = chk()) c->on_chain_finish(*ctx, res);
  if (obs::Tracer* t = trc()) {
    const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
    const sim::TimePs now = machine_.sim().now();
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    // arg carries the tenant (== workload service index) so post-hoc
    // consumers (critpath::Analyzer) can attribute chains per service.
    t->instant(obs::Subsys::kEngine,
               res.timeout ? obs::SpanKind::kTimeout
                           : obs::SpanKind::kChainDone,
               tid, now, ctx->tenant, flow);
    t->flow(obs::Phase::kFlowEnd, obs::Subsys::kEngine, tid, now, flow);
  }
  std::uint32_t& active = tenant_slot(ctx->tenant);
  if (active > 0) --active;
  ctx->finish(res);
  // Admit throttled starts whose tenant is now below its cap. The scan
  // skips blocked entries (rather than stopping at the head) so one
  // capped tenant cannot head-block every other tenant's waiting starts
  // — per-tenant FIFO order is still preserved.
  for (std::size_t i = 0; i < throttled_.size();) {
    const PendingStart next = throttled_[i];
    const std::uint32_t cap =
        std::min(config_.tenant_max_active,
                 config_.qos.tenant(next.ctx->tenant).max_active_chains);
    if (tenant_slot(next.ctx->tenant) >= cap) {
      ++i;
      continue;
    }
    throttled_.erase(throttled_.begin() + static_cast<std::ptrdiff_t>(i));
    start_chain(next.ctx, next.first);
  }
}

// --- Fault resilience (DESIGN.md §14) -----------------------------------

void AccelFlowEngine::arm_hop(ChainContext* ctx, AccelType target,
                              std::uint64_t word, std::uint8_t pm,
                              std::uint64_t bytes, accel::DataFormat fmt,
                              sim::TimePs in_flight_until) {
  if (!resilience_active()) return;
  HopState& h = hops_[ctx];
  if (h.timer != sim::kInvalidEventId) machine_.sim().cancel(h.timer);
  // A re-issue of the same hop keeps its retry budget; any other arm is
  // forward progress and starts fresh (timeout == 0 marks a new record).
  const bool same_hop =
      h.timeout != 0 && h.target == target && h.word == word && h.pm == pm;
  if (!same_hop) {
    h.retries = 0;
    h.timeout = sim::microseconds(config_.resilience.hop_timeout_us);
  }
  h.target = target;
  h.word = word;
  h.pm = pm;
  h.bytes = bytes;
  h.fmt = fmt;
  h.in_flight_until = in_flight_until;
  h.timer = machine_.sim().schedule_after(
      h.timeout, [this, ctx] { on_hop_timeout(ctx); });
}

void AccelFlowEngine::disarm_hop(ChainContext* ctx) {
  if (hops_.empty()) return;
  auto it = hops_.find(ctx);
  if (it == hops_.end()) return;
  if (it->second.timer != sim::kInvalidEventId) {
    machine_.sim().cancel(it->second.timer);
  }
  hops_.erase(it);
}

void AccelFlowEngine::note_hop_wait(ChainContext* ctx, sim::TimePs until) {
  auto it = hops_.find(ctx);
  if (it != hops_.end()) it->second.in_flight_until = until;
}

void AccelFlowEngine::on_hop_timeout(ChainContext* ctx) {
  auto it = hops_.find(ctx);
  if (it == hops_.end()) return;
  HopState& h = it->second;
  h.timer = sim::kInvalidEventId;
  const sim::TimePs now = machine_.sim().now();
  auto rearm = [&](sim::TimePs delay) {
    ++stats_.hop_probes;
    h.timer = machine_.sim().schedule_after(
        delay, [this, ctx] { on_hop_timeout(ctx); });
  };
  // A known future delivery (remote response, DMA arrival) means the hop
  // cannot be lost yet: look again once it should have landed.
  if (h.in_flight_until == sim::kTimeNever ||
      (h.in_flight_until != 0 && now < h.in_flight_until)) {
    rearm(h.timeout);
    return;
  }
  // Probe: a slow-but-alive entry (queued, executing, overflowed or
  // blocked on translation) must never be re-issued — watch it more
  // patiently instead. Only a vanished entry was lost to a hard failure.
  for (const AccelType t : accel::kAllAccelTypes) {
    if (machine_.accel(t).holds_chain(ctx)) {
      h.timeout *= 2;
      rearm(h.timeout);
      return;
    }
  }
  // Lost: a hard-failed PE consumed the entry without producing output.
  ++stats_.hop_timeouts;
  ctx->faulted = true;
  record_hop_failure(h.target);
  if (h.retries >= config_.resilience.hop_retries) {
    // Retry budget spent: the CPU finishes the chain — it always can.
    ++stats_.retry_exhausted_fallbacks;
    ++stats_.fallbacks_by_type[accel::index_of(h.target)];
    const AccelType target = h.target;
    const std::uint64_t word = h.word;
    const std::uint8_t pm = h.pm;
    const std::uint64_t bytes = h.bytes;
    continue_chain_on_cpu(ctx, word, pm, bytes, target);  // Disarms.
    return;
  }
  ++h.retries;
  ++stats_.hop_retries;
  if (obs::Tracer* t = trc()) {
    t->instant(obs::Subsys::kEngine, obs::SpanKind::kHopRetry,
               static_cast<std::uint32_t>(ctx->core), now,
               static_cast<std::uint64_t>(h.retries),
               obs::flow_id(ctx->request, ctx->chain));
  }
  // Exponential backoff before the re-issue; the timer slot holds the
  // backoff event, so disarm_hop() cancels a pending retry too.
  const double backoff_us =
      config_.resilience.backoff_base_us *
      std::pow(config_.resilience.backoff_factor, h.retries - 1);
  h.timer = machine_.sim().schedule_after(
      sim::microseconds(backoff_us), [this, ctx] { retry_hop(ctx); });
}

void AccelFlowEngine::retry_hop(ChainContext* ctx) {
  auto it = hops_.find(ctx);
  if (it == hops_.end()) return;
  HopState& h = it->second;
  h.timer = sim::kInvalidEventId;
  obs::FlowScope flow_scope(trc(), obs::flow_id(ctx->request, ctx->chain));
  // Rebuild the lost entry from the hand-off record (the payload still
  // lives in its memory buffer; the re-issued DMA is modeled by the
  // normal enqueue path) and hand it back to the same accelerator.
  QueueEntry e;
  e.trace_word = h.word;
  e.position_mark = h.pm;
  e.tenant = ctx->tenant;
  e.request = ctx->request;
  e.chain = ctx->chain;
  e.payload.size_bytes = h.bytes;
  e.payload.format = h.fmt;
  e.payload.flags = ctx->flags;
  e.payload.va = ctx->buffer_va;
  e.cpu_cost = ctx->env->op_cpu_cost(*ctx, h.target, h.bytes);
  e.priority = ctx->priority;
  if (config_.stamp_deadlines &&
      ctx->step_deadline_budget != sim::kTimeNever) {
    e.deadline = machine_.sim().now() + ctx->step_deadline_budget;
  }
  e.initiating_core = ctx->core;
  e.ctx = ctx;
  e.ready = false;
  e.pending_inputs = 1;
  forward_into_queue(machine_.accel(h.target), std::move(e));
}

void AccelFlowEngine::record_hop_failure(AccelType t) {
  Health& hs = health_[accel::index_of(t)];
  ++hs.consecutive_losses;
  const sim::TimePs until =
      machine_.sim().now() +
      sim::microseconds(config_.resilience.quarantine_us);
  if (hs.state == Health::State::kProbation) {
    // One loss during probation sends it straight back to quarantine.
    hs.state = Health::State::kUnhealthy;
    hs.quarantine_until = until;
    ++stats_.unhealthy_transitions;
  } else if (hs.state == Health::State::kHealthy &&
             hs.consecutive_losses >=
                 config_.resilience.unhealthy_threshold) {
    hs.state = Health::State::kUnhealthy;
    hs.quarantine_until = until;
    ++stats_.unhealthy_transitions;
  } else if (hs.state == Health::State::kUnhealthy) {
    // Stragglers dispatched before the quarantine keep failing: extend it.
    hs.quarantine_until = until;
  }
}

void AccelFlowEngine::record_hop_success(AccelType t) {
  Health& hs = health_[accel::index_of(t)];
  hs.consecutive_losses = 0;
  if (hs.state == Health::State::kProbation &&
      ++hs.probation_successes >= config_.resilience.probation_successes) {
    hs.state = Health::State::kHealthy;
    hs.probation_successes = 0;
    ++stats_.probation_recoveries;
  }
}

bool AccelFlowEngine::reroute_unhealthy(AccelType t) {
  if (!resilience_active()) return false;
  Health& hs = health_[accel::index_of(t)];
  if (hs.state != Health::State::kUnhealthy) return false;
  if (machine_.sim().now() >= hs.quarantine_until) {
    // Quarantine served: probation admits work again, watched closely.
    hs.state = Health::State::kProbation;
    hs.probation_successes = 0;
    hs.consecutive_losses = 0;
    return false;
  }
  return true;
}

}  // namespace accelflow::core
