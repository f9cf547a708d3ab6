#include "cluster/datacenter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "workload/parallel_runner.h"
#include "workload/rig.h"

namespace accelflow::cluster {

/** One cross-shard RPC hop, parked in the sender's outbox until the next
 *  window barrier merges it into the destination calendar. */
struct Datacenter::Message {
  enum Kind : std::uint8_t { kRequest, kReply };
  Kind kind = kRequest;
  std::uint32_t src = 0;      ///< Sending shard.
  std::uint32_t dst = 0;      ///< Receiving shard.
  sim::TimePs sent = 0;       ///< Simulated send time.
  std::uint64_t bytes = 0;    ///< Wire size (request or response payload).
  std::uint64_t rpc_id = 0;   ///< Matches a reply to its pending callback.
  std::size_t callee = 0;     ///< kRequest: target service index.
  obs::FlowId flow = 0;       ///< Caller chain (hop-span attribution).
};

/** One machine shard: its workload::Rig plus the cluster-only state. */
struct Datacenter::Shard {
  Shard(const workload::ExperimentConfig& e, sim::TimePs issue_until,
        sim::TimePs govern_until, std::size_t index)
      : rig(e, issue_until, govern_until, index) {}

  workload::Rig rig;
  /** Local vs remote decision stream for nested RPCs (shard-private, so
   *  draws happen race-free on the shard's own worker thread). */
  sim::Rng remote_rng{0};
  /** Messages sent this window, merged (and cleared) at the barrier. */
  std::vector<Message> outbox;
  /** In-flight outbound RPCs: id -> continuation fired by the reply. */
  std::unordered_map<std::uint64_t, std::function<void(std::uint64_t)>>
      pending;
  std::uint64_t next_rpc = 0;     ///< Outbound RPC id cursor.
  std::uint64_t remote_sent = 0;  ///< Nested calls that went remote (ever).

  // Measurement baselines captured by reset_stats() so harvest() reports
  // the measured window only (generators have no reset of their own).
  std::uint64_t admitted_base = 0;
  std::uint64_t generated_base = 0;
  std::uint64_t remote_base = 0;

  sim::Simulator& sim() { return rig.machine().sim(); }
};

/** The whole-cluster fork checkpoint (ClusterSession). */
struct Datacenter::ForkState {
  struct PerShard {
    workload::Rig::Checkpoint rig;
    std::array<std::uint64_t, 4> remote_rng{};
    std::uint64_t next_rpc = 0;
  };
  std::vector<PerShard> shards;
  RackNetwork::Checkpoint rack;
};

/**
 * Persistent window workers. Windows are short (one lookahead of simulated
 * time), so thread-per-window would drown in spawn cost; instead helpers
 * park in a spin-then-yield wait on a generation counter and claim shards
 * from a shared cursor each time the coordinator opens a window. The
 * coordinator participates too, and completion is detected by counting
 * finished *shards* (not workers), which makes stragglers from a previous
 * generation harmless: at worst they claim work of the new one.
 */
class Datacenter::ShardPool {
 public:
  ShardPool(std::size_t shards, unsigned threads) : shards_(shards) {
    const unsigned helpers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(helpers);
    for (unsigned w = 0; w < helpers; ++w) {
      workers_.emplace_back([this] { helper_loop(); });
    }
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  ~ShardPool() {
    quit_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : workers_) t.join();
  }

  /** Runs fn(shard) for every shard; returns when all completed. */
  void run(const std::function<void(std::size_t)>& fn) {
    // Order matters: job before next (its release-store publishes the
    // pointer to any straggler that claims early), generation last.
    job_.store(&fn, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    claim();
    while (completed_.load(std::memory_order_acquire) < shards_) {
      std::this_thread::yield();
    }
    if (error_ != nullptr) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

 private:
  void claim() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_acq_rel);
      if (i >= shards_) break;
      const auto* fn = job_.load(std::memory_order_relaxed);
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
      completed_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t gen = generation_.load(std::memory_order_acquire);
      unsigned spins = 0;
      while (gen == seen) {
        // Hot runs reopen windows within microseconds: yield first, and
        // only drop to a sleep when the pool has clearly gone idle.
        if (++spins < 4096) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        gen = generation_.load(std::memory_order_acquire);
      }
      seen = gen;
      if (quit_.load(std::memory_order_acquire)) return;
      claim();
    }
  }

  std::size_t shards_;
  std::atomic<const std::function<void(std::size_t)>*> job_{nullptr};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> quit_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

Datacenter::Datacenter(const ClusterConfig& config, bool fork_mode)
    : config_(config), fork_mode_(fork_mode) {
  assert(config_.shards > 0);
  const workload::ExperimentConfig& e = config_.experiment;

  balancer_ = std::make_unique<Balancer>(
      config_.policy, config_.shards, workload::mix_seed(e.seed, 0xB417CE));
  rack_ = std::make_unique<RackNetwork>(config_.rack, config_.shards);

  // Fork mode cuts the replicated streams and the governors at warmup so
  // prepare() can drain to quiescence; run_point() revives them per point.
  const sim::TimePs issue_until =
      fork_mode_ ? e.warmup : e.warmup + e.measure;
  const sim::TimePs govern_until =
      fork_mode_ ? e.warmup : issue_until + e.drain;

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    // Shard 0's rig is the single-machine run's, unperturbed seeds and
    // all: the 1-shard conformance oracle (tests/test_cluster.cc).
    auto sh = std::make_unique<Shard>(e, issue_until, govern_until, i);
    if (config_.shards > 1) {
      for (auto& g : sh->rig.generators()) g->set_router(balancer_.get(), i);
      // Re-route a slice of nested RPCs across the rack: replace the
      // RequestEngine's machine-local injector with one that draws a
      // local/remote decision per call. Same callee universe.
      if (config_.remote_rpc_fraction > 0.0) {
        for (auto& svc : sh->rig.services()) {
          if (svc->callee_indices().empty()) continue;
          const double rtt = svc->spec().rpc_wire_rtt_us;
          std::vector<std::size_t> callees = svc->callee_indices();
          svc->set_nested_injector(
              [this, i, rtt](core::ChainContext& ctx, std::size_t callee,
                             std::function<void(std::uint64_t)> deliver) {
                route_nested(i, rtt, ctx, callee, std::move(deliver));
              },
              std::move(callees));
        }
      }
      sh->remote_rng = sim::Rng(workload::mix_seed(e.seed, 0x2E30 + i));
    }
    shards_.push_back(std::move(sh));
  }

  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::min<unsigned>(
                       static_cast<unsigned>(config_.shards),
                       workload::ParallelRunner::default_threads());
  if (threads_ < 1) threads_ = 1;
  if (config_.shards > 1 && threads_ > 1) {
    pool_ = std::make_unique<ShardPool>(config_.shards, threads_);
  }
}

Datacenter::~Datacenter() = default;

std::size_t Datacenter::shards() const { return shards_.size(); }

core::Machine& Datacenter::machine(std::size_t shard) {
  return shards_[shard]->rig.machine();
}

workload::RequestEngine& Datacenter::engine(std::size_t shard) {
  return shards_[shard]->rig.engine();
}

bool Datacenter::prepared() const { return fork_ != nullptr; }

void Datacenter::run_window(sim::TimePs horizon) {
  const std::function<void(std::size_t)> advance = [this,
                                                    horizon](std::size_t i) {
    shards_[i]->sim().run_until(horizon);
  };
  if (pool_ != nullptr) {
    pool_->run(advance);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) advance(i);
  }
}

void Datacenter::barrier_sync() {
  // Merge outboxes in (shard, push) order — a fixed total order, so the
  // rack's latency/fault draws and the destination calendar insertions
  // are identical for every thread count.
  for (auto& sh : shards_) {
    for (const Message& m : sh->outbox) deliver_message(m);
    sh->outbox.clear();
  }
  // Refresh the JSQ snapshot once per window: the bounded staleness a
  // real balancer's load-report loop has, and the only balancer state
  // route() reads — updated here, between windows, never during one.
  std::vector<std::uint64_t> load(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    load[i] = shards_[i]->rig.engine().in_flight();
  }
  balancer_->update_load(std::move(load));
}

void Datacenter::deliver_message(const Message& m) {
  const sim::TimePs latency = rack_->hop_latency(m.src, m.dst, m.bytes);
  const sim::TimePs arrival = m.sent + latency;
  // The hop span lands on the tracer of the shard owning the caller's
  // flow (requests go out from it, replies come home to it); only shards
  // with a tracer attached record anything. tid = the far shard, so each
  // peer gets its own track under the net process.
  Shard& flow_owner = *shards_[m.kind == Message::kRequest ? m.src : m.dst];
  if (obs::Tracer* tr = flow_owner.rig.machine().tracer()) {
    const std::uint32_t far =
        m.kind == Message::kRequest ? m.dst : m.src;
    tr->complete(obs::Subsys::kNet, obs::SpanKind::kNetHop, far, m.sent,
                 arrival, m.bytes, m.flow);
  }
  Shard& dst = *shards_[m.dst];
  assert(arrival >= dst.sim().now() &&
         "lookahead violation: message arrives inside a computed window");
  if (m.kind == Message::kRequest) {
    const std::size_t dst_idx = m.dst;
    const std::uint32_t src_idx = m.src;
    const std::uint64_t rpc_id = m.rpc_id;
    const std::size_t callee = m.callee;
    const obs::FlowId flow = m.flow;
    dst.sim().schedule_at(
        arrival, [this, dst_idx, src_idx, rpc_id, callee, flow] {
          // Serve the sub-request locally on the destination shard; its
          // completion posts the reply hop back through the outbox.
          shards_[dst_idx]->rig.engine().inject_internal(
              callee, 0.0,
              [this, dst_idx, src_idx, rpc_id,
               flow](std::uint64_t resp_bytes) {
                Shard& d = *shards_[dst_idx];
                Message reply;
                reply.kind = Message::kReply;
                reply.src = static_cast<std::uint32_t>(dst_idx);
                reply.dst = src_idx;
                reply.sent = d.sim().now();
                reply.bytes = resp_bytes;
                reply.rpc_id = rpc_id;
                reply.flow = flow;
                d.outbox.push_back(reply);
              });
        });
  } else {
    const std::size_t dst_idx = m.dst;
    const std::uint64_t rpc_id = m.rpc_id;
    const std::uint64_t resp_bytes = m.bytes;
    dst.sim().schedule_at(
        arrival, [this, dst_idx, rpc_id, resp_bytes] {
          Shard& d = *shards_[dst_idx];
          auto it = d.pending.find(rpc_id);
          assert(it != d.pending.end() && "reply for unknown RPC");
          auto deliver = std::move(it->second);
          d.pending.erase(it);
          deliver(resp_bytes);
        });
  }
}

void Datacenter::route_nested(std::size_t src, double rtt_us,
                              core::ChainContext& ctx, std::size_t callee,
                              std::function<void(std::uint64_t)> deliver) {
  Shard& sh = *shards_[src];
  const bool remote = shards_.size() > 1 &&
                      sh.remote_rng.bernoulli(config_.remote_rpc_fraction);
  if (!remote) {
    // The machine-local path the RequestEngine would have taken.
    sh.rig.engine().inject_internal(callee, rtt_us, std::move(deliver));
    return;
  }
  // Uniform choice among the other shards; both draws come from the
  // shard-private stream, so this runs race-free on the shard's thread.
  const std::size_t other = sh.remote_rng.next_below(shards_.size() - 1);
  const std::size_t dst = other >= src ? other + 1 : other;
  const std::uint64_t rpc_id =
      (static_cast<std::uint64_t>(src) << 48) | sh.next_rpc++;
  sh.pending.emplace(rpc_id, std::move(deliver));
  ++sh.remote_sent;
  Message m;
  m.kind = Message::kRequest;
  m.src = static_cast<std::uint32_t>(src);
  m.dst = static_cast<std::uint32_t>(dst);
  m.sent = sh.sim().now();
  m.bytes = rack_->params().request_bytes;
  m.rpc_id = rpc_id;
  m.callee = callee;
  m.flow = obs::flow_id(ctx.request, ctx.chain);
  sh.outbox.push_back(std::move(m));
}

void Datacenter::advance_to(sim::TimePs target) {
  if (shards_.size() == 1) {
    // One shard has nobody to talk to: no windows, no barriers — the
    // exact run_until() call run_experiment() makes (conformance).
    shards_[0]->sim().run_until(target);
    now_ = target;
    return;
  }
  const sim::TimePs lookahead = rack_->lookahead();
  while (now_ < target) {
    sim::TimePs horizon = std::min<sim::TimePs>(target, now_ + lookahead);
    // Next-event probe: with every outbox empty nothing is on the wire,
    // so a window no shard has a calendar entry in would run and merge
    // nothing — hop straight to the window holding the earliest pending
    // event (or to the target). Causally safe and deterministic for the
    // same reason as drain_quiescent()'s hop, and cheap: next_event_time()
    // reads the calendar heap's root. The skipped barriers were no-ops — no
    // messages to merge, and a JSQ refresh with in-flight counts nothing
    // changed.
    bool wire = false;
    sim::TimePs next = sim::Simulator::kNoEvent;
    for (const auto& sh : shards_) {
      wire = wire || !sh->outbox.empty();
      next = std::min(next, sh->sim().next_event_time());
    }
    if (!wire && next > horizon) {
      now_ = std::min(target, next);
      horizon = std::min<sim::TimePs>(target, now_ + lookahead);
      // Still run the (possibly empty, possibly final) window below so
      // every shard's clock lands on the horizon.
    }
    run_window(horizon);
    barrier_sync();
    now_ = horizon;
  }
}

bool Datacenter::quiescent() const {
  for (const auto& sh : shards_) {
    if (sh->sim().pending_events() != 0) return false;
    if (!sh->outbox.empty() || !sh->pending.empty()) return false;
  }
  return true;
}

void Datacenter::drain_quiescent() {
  const sim::TimePs lookahead = rack_->lookahead();
  std::uint64_t guard = 0;
  while (!quiescent()) {
    // Fast-forward idle gaps (e.g. a fault-retry backoff timer seconds
    // out): with every outbox empty nothing is on the wire, so the next
    // global event is the earliest calendar entry and hopping straight
    // to it is causally safe — and deterministic, since the hop depends
    // only on simulated state.
    bool wire = false;
    sim::TimePs next = sim::Simulator::kNoEvent;
    for (const auto& sh : shards_) {
      wire = wire || !sh->outbox.empty();
      next = std::min(next, sh->sim().next_event_time());
    }
    if (!wire && next != sim::Simulator::kNoEvent && next > now_) {
      now_ = next;
    }
    advance_to(now_ + lookahead);
    ++guard;
    assert(guard < (1ull << 32) && "cluster does not quiesce");
  }
}

void Datacenter::reset_stats() {
  for (auto& sh : shards_) {
    sh->rig.reset_stats();
    std::uint64_t admitted = 0;
    std::uint64_t generated = 0;
    for (const auto& g : sh->rig.generators()) {
      admitted += g->admitted();
      generated += g->generated();
    }
    sh->admitted_base = admitted;
    sh->generated_base = generated;
    sh->remote_base = sh->remote_sent;
  }
  rack_->reset_stats();
}

ClusterResult Datacenter::run() {
  assert(!fork_mode_ && "run() is the straight-through protocol");
  assert(!ran_ && "run() already called");
  ran_ = true;
  const workload::ExperimentConfig& e = config_.experiment;
  // Warmup, reset the recorders, then measure + drain: run_experiment()'s
  // protocol applied cluster-wide.
  advance_to(e.warmup);
  reset_stats();
  advance_to(e.warmup + e.measure + e.drain);
  if (config_.drain_to_quiescence) {
    // Soak protocol: past the nominal horizon, keep opening windows until
    // every calendar, outbox and pending-RPC map is empty, so "zero lost
    // chains" is decidable — a fixed horizon can strand a fault-retried
    // chain (or its reply) in the final lookahead window.
    if (shards_.size() == 1) {
      shards_[0]->sim().run();
      now_ = shards_[0]->sim().now();
    } else {
      drain_quiescent();
    }
  }
  ClusterResult out = harvest();
  final_audits();
  // The conservation audit now includes the network category's hop spans.
  workload::audit_critical_path(e.tracer);
  return out;
}

void Datacenter::prepare() {
  assert(fork_mode_ && "prepare() requires fork mode");
  assert(fork_ == nullptr && "prepare() already called");
  advance_to(config_.experiment.warmup);
  if (shards_.size() == 1) {
    // Drain exactly as SweepSession does: run to an empty calendar.
    shards_[0]->sim().run();
    now_ = shards_[0]->sim().now();
  } else {
    // Drain to *global* quiescence: keep opening windows until every
    // calendar, outbox and pending-RPC map is empty. Window boundaries
    // depend only on simulated state, so the fork time is deterministic.
    drain_quiescent();
  }
  t_fork_ = now_;

  fork_ = std::make_unique<ForkState>();
  fork_->rack = rack_->checkpoint();
  fork_->shards.reserve(shards_.size());
  for (const auto& sh : shards_) {
    fork_->shards.push_back(
        {sh->rig.checkpoint(), sh->remote_rng.state(), sh->next_rpc});
  }
}

ClusterResult Datacenter::run_point(double rate_factor) {
  assert(fork_ != nullptr && "call prepare() before run_point()");
  rack_->restore(fork_->rack);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    const ForkState::PerShard& f = fork_->shards[i];
    sh.rig.restore(f.rig);
    sh.remote_rng.set_state(f.remote_rng);
    sh.next_rpc = f.next_rpc;
    sh.outbox.clear();
    sh.pending.clear();
  }
  now_ = t_fork_;

  reset_stats();
  const sim::TimePs issue_until = t_fork_ + config_.experiment.measure;
  const sim::TimePs end = issue_until + config_.experiment.drain;
  for (auto& sh : shards_) sh->rig.resume(rate_factor, issue_until, end);
  advance_to(end);
  ClusterResult out = harvest();
  final_audits();
  return out;
}

ClusterResult Datacenter::harvest() {
  ClusterResult out;
  out.shards.reserve(shards_.size());
  out.admitted.reserve(shards_.size());
  std::uint64_t decisions = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    out.shards.push_back(sh.rig.harvest());
    std::uint64_t admitted = 0;
    std::uint64_t generated = 0;
    for (const auto& g : sh.rig.generators()) {
      admitted += g->admitted();
      generated += g->generated();
    }
    out.admitted.push_back(admitted - sh.admitted_base);
    // The streams are replicated, so shard 0's arrival count is *the*
    // cluster arrival count: each arrival is one routing decision.
    if (i == 0) decisions = generated - sh.generated_base;
    out.remote_rpcs += sh.remote_sent - sh.remote_base;
  }
  out.network = rack_->stats();
  if (shards_.size() > 1) {
    out.balancer_decisions = decisions;
    out.balancer_busy =
        static_cast<sim::TimePs>(decisions) * Balancer::decision_cost_ps();
  }
  out.elapsed = shards_[0]->sim().now();
  return out;
}

void Datacenter::final_audits() {
  for (auto& sh : shards_) sh->rig.final_audit();
}

}  // namespace accelflow::cluster
