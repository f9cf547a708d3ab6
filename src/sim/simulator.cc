#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/snapshot.h"

namespace accelflow::sim {

namespace {

/** Decomposes an EventId into (slot, generation). Returns false if the id
 *  cannot name any slot. */
bool decode_id(EventId id, std::size_t pool_size, std::uint32_t* slot,
               std::uint32_t* gen) {
  if (id == kInvalidEventId) return false;
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > pool_size) return false;
  *slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  *gen = static_cast<std::uint32_t>(id);
  return true;
}

EventId encode_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(slot) + 1) << 32 | gen;
}

}  // namespace

std::uint32_t Simulator::alloc_slot() {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
    ++kstats_.pool_grown;
  }
  return slot;
}

EventId Simulator::schedule_at(TimePs t, Callback cb) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) {
    // Release-build policy: clamp to now() — the event runs after the
    // current one, in insertion order, keeping the run deterministic.
    ++kstats_.clamped_past;
    t = now_;
  }

  const std::uint32_t slot = alloc_slot();
  Event& ev = pool_[slot];
  ev.cb = std::move(cb);

  ev.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);

  ++kstats_.scheduled;
  if (heap_.size() > kstats_.pending_high_water) {
    kstats_.pending_high_water = heap_.size();
  }
  return encode_id(slot, ev.gen);
}

bool Simulator::cancel(EventId id) {
  std::uint32_t slot, gen;
  if (!decode_id(id, pool_.size(), &slot, &gen)) return false;
  Event& ev = pool_[slot];
  // A stale generation means the event already ran or was already
  // cancelled (the slot has been recycled since the id was minted).
  if (ev.gen != gen || ev.heap_pos == kNoSlot) return false;
  ev.cb.reset();
  unlink_from_heap(slot);
  recycle(slot);
  ++kstats_.cancelled;
  return true;
}

// Both sifts use the hole technique: lift the moving entry into a local,
// shift blocking entries over the hole (one move + one heap_pos write per
// level, no swaps), and drop the entry at its final position. Comparisons
// read only the contiguous heap array; the scattered pool records are
// touched with writes alone.

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pool_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::unlink_from_heap(std::uint32_t slot) {
  const std::size_t pos = pool_[slot].heap_pos;
  const std::size_t last = heap_.size() - 1;
  pool_[slot].heap_pos = kNoSlot;
  if (pos != last) {
    const std::uint32_t moved = heap_[last].slot;
    heap_[pos] = heap_[last];
    heap_.pop_back();
    pool_[moved].heap_pos = static_cast<std::uint32_t>(pos);
    // The displaced element may need to move either direction.
    sift_down(pos);
    if (pool_[moved].heap_pos == pos) sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Simulator::recycle(std::uint32_t slot) {
  Event& ev = pool_[slot];
  ++ev.gen;  // Invalidate outstanding ids naming this slot.
  ev.next_free = free_head_;
  free_head_ = slot;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  Event& ev = pool_[slot];
  assert(heap_[0].time >= now_);
  now_ = heap_[0].time;
  if (probe_ != nullptr) probe_->on_event(now_);
  // Move the callback out and free the record *before* invoking, so the
  // callback can freely schedule (possibly reusing this very slot) or
  // grow the pool without invalidating anything we still hold.
  Callback cb = std::move(ev.cb);
  unlink_from_heap(slot);
  recycle(slot);
  ++executed_;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePs t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !heap_.empty() && heap_[0].time <= t) {
    step();
    ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

void Simulator::checkpoint(Snapshot& out) const {
  // Canonical calendar form: the flat pending list sorted by (time, seq).
  // A sorted array is a valid min-heap, so restore adopts it directly.
  out.heap.clear();
  out.heap.reserve(heap_.size());
  for (const HeapEntry& he : heap_) {
    out.heap.push_back(Snapshot::CalendarEntry{he.time, he.seq, he.slot});
  }
  std::sort(out.heap.begin(), out.heap.end(),
            [](const Snapshot::CalendarEntry& a,
               const Snapshot::CalendarEntry& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });

  // EventRecord.heap_pos carries the canonical flat index (kNoSlot for
  // free slots), which is also the restored heap position.
  std::vector<std::uint32_t> flat_pos(pool_.size(), kNoSlot);
  for (std::size_t i = 0; i < out.heap.size(); ++i) {
    flat_pos[out.heap[i].slot] = static_cast<std::uint32_t>(i);
  }
  out.pool.clear();
  out.pool.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const Event& ev = pool_[i];
    Snapshot::EventRecord rec;
    rec.gen = ev.gen;
    rec.heap_pos = flat_pos[i];
    rec.next_free = ev.next_free;
    if (rec.heap_pos != kNoSlot) {
      assert(ev.cb.clonable() &&
             "pending callback is move-only: checkpoint at quiescence "
             "(empty calendar) or make the capture copyable");
      rec.cb = ev.cb.clone();
    }
    out.pool.push_back(std::move(rec));
  }
  out.now = now_;
  out.next_seq = next_seq_;
  out.executed = executed_;
  out.free_head = free_head_;
  out.stats_scheduled = kstats_.scheduled;
  out.stats_cancelled = kstats_.cancelled;
  out.stats_clamped = kstats_.clamped_past;
  out.stats_pool_grown = kstats_.pool_grown;
  out.stats_pending_high = kstats_.pending_high_water;
}

void Simulator::restore(const Snapshot& snap) {
  pool_.clear();
  pool_.resize(snap.pool.size());
  for (std::size_t i = 0; i < snap.pool.size(); ++i) {
    const Snapshot::EventRecord& rec = snap.pool[i];
    Event& ev = pool_[i];
    ev.gen = rec.gen;
    ev.heap_pos = kNoSlot;
    ev.next_free = rec.next_free;
    if (rec.heap_pos != kNoSlot) ev.cb = rec.cb.clone();
  }
  now_ = snap.now;
  // The canonical entries are (time, seq)-sorted, which is already a
  // valid min-heap: adopt verbatim, flat index = heap position.
  heap_.clear();
  heap_.reserve(snap.heap.size());
  for (std::size_t i = 0; i < snap.heap.size(); ++i) {
    const Snapshot::CalendarEntry& ce = snap.heap[i];
    heap_.push_back(HeapEntry{ce.time, ce.seq, ce.slot});
    pool_[ce.slot].heap_pos = static_cast<std::uint32_t>(i);
  }
  next_seq_ = snap.next_seq;
  executed_ = snap.executed;
  free_head_ = snap.free_head;
  stopped_ = false;
  kstats_.scheduled = snap.stats_scheduled;
  kstats_.cancelled = snap.stats_cancelled;
  kstats_.clamped_past = snap.stats_clamped;
  kstats_.pool_grown = snap.stats_pool_grown;
  kstats_.pending_high_water = snap.stats_pending_high;
}

}  // namespace accelflow::sim
