#include "trace/tracer.h"

#include <algorithm>

#include "obs/metrics_registry.h"

namespace atp {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::TxnBegin: return "txn_begin";
    case TraceKind::TxnCommit: return "txn_commit";
    case TraceKind::TxnAbort: return "txn_abort";
    case TraceKind::Read: return "read";
    case TraceKind::Write: return "write";
    case TraceKind::RunBegin: return "run_begin";
    case TraceKind::RunCommit: return "run_commit";
    case TraceKind::RunRollback: return "run_rollback";
    case TraceKind::PieceStart: return "piece_start";
    case TraceKind::PieceFinish: return "piece_finish";
    case TraceKind::PieceResubmit: return "piece_resubmit";
    case TraceKind::LockWait: return "lock_wait";
    case TraceKind::LockAcquire: return "lock_acquire";
    case TraceKind::LockRelease: return "lock_release";
    case TraceKind::LockDeadlock: return "lock_deadlock";
    case TraceKind::LockTimeout: return "lock_timeout";
    case TraceKind::FuzzImport: return "fuzz_import";
    case TraceKind::FuzzExport: return "fuzz_export";
    case TraceKind::QueueEnqueue: return "queue_enqueue";
    case TraceKind::QueueDequeue: return "queue_dequeue";
    case TraceKind::QueueDeliver: return "queue_deliver";
    case TraceKind::QueueRedeliver: return "queue_redeliver";
    case TraceKind::NetSend: return "net_send";
    case TraceKind::NetDeliver: return "net_deliver";
    case TraceKind::NetDrop: return "net_drop";
    case TraceKind::SiteCrash: return "site_crash";
    case TraceKind::SiteRecover: return "site_recover";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> next_tracer_id{1};
}  // namespace

Tracer::Tracer(std::size_t per_thread_capacity)
    : id_(next_tracer_id.fetch_add(  // relaxed-ok: unique id only
          1, std::memory_order_relaxed)),
      capacity_(std::max<std::size_t>(1, per_thread_capacity)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

void Tracer::attach_metrics(obs::MetricsRegistry* registry) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = registry;
  if (registry == nullptr) return;
  collector_id_ = registry->add_collector([this](obs::SnapshotBuilder& b) {
    b.counter("trace.dropped_events", double(dropped()));
    b.gauge("trace.retained_events", double(size()));
  });
}

Tracer::Ring* Tracer::ring_for_current_thread() {
  // One-entry cache keyed by the tracer's never-reused id -- NOT its address:
  // a dead tracer's storage can be reused by a new one, and an address match
  // would then hand back a ring freed with the old tracer.  A thread
  // alternating between live tracers gets a fresh ring per switch (the old
  // ring stays in rings_, so its events still reach collect()).
  struct Cache {
    std::uint64_t tracer_id = 0;
    Ring* ring = nullptr;
  };
  static thread_local Cache cache;
  if (cache.tracer_id == id_) return cache.ring;

  std::lock_guard lock(registry_mu_);
  rings_.push_back(std::make_unique<Ring>());
  cache.tracer_id = id_;
  cache.ring = rings_.back().get();
  return cache.ring;
}

void Tracer::record(TraceKind kind, SiteId site, TxnId txn, Key key, double a,
                    double b, std::uint64_t aux, std::uint64_t aux2) {
  TraceEvent ev;
  ev.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - epoch_)
                 .count();
  ev.site = site;
  ev.kind = kind;
  ev.txn = txn;
  ev.key = key;
  ev.a = a;
  ev.b = b;
  ev.aux = aux;
  ev.aux2 = aux2;

  Ring* ring = ring_for_current_thread();
  std::lock_guard lock(ring->mu);
  // The seq ticket is taken INSIDE the ring critical section: a drain pass
  // that reads next_seq_ and then locks this ring is guaranteed every event
  // numbered below that reading is already published in some ring -- the
  // stable-horizon contract of TraceSubscription::drain().
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: ring mutex publishes the slot; consumers order by seq
  if (ring->slots.size() < capacity_) {
    ring->slots.push_back(ev);
  } else {
    // (written - base) counts events since the last clear(), so this cycles
    // through the slots oldest-first regardless of clears.
    ring->slots[(ring->written - ring->base) % capacity_] = ev;
  }
  ++ring->written;
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard registry_lock(registry_mu_);
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      const Ring& ring = *rings_[i];
      std::lock_guard lock(ring.mu);
      for (TraceEvent ev : ring.slots) {
        ev.tid = static_cast<std::uint32_t>(i);
        all.push_back(ev);
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return all;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard registry_lock(registry_mu_);
  std::uint64_t lost = 0;
  for (const auto& ring : rings_) {
    std::lock_guard lock(ring->mu);
    const std::uint64_t live = ring->written - ring->base;
    if (live > capacity_) lost += live - capacity_;
  }
  return lost;
}

std::size_t Tracer::size() const {
  std::lock_guard registry_lock(registry_mu_);
  std::size_t n = 0;
  for (const auto& ring : rings_) {
    std::lock_guard lock(ring->mu);
    n += ring->slots.size();
  }
  return n;
}

void Tracer::clear() {
  std::lock_guard registry_lock(registry_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard lock(ring->mu);
    ring->slots.clear();
    ring->base = ring->written;
  }
}

TraceSubscription::TraceSubscription(const Tracer& tracer) : tracer_(tracer) {
  // Start every existing ring's cursor at its oldest *retained* event:
  // whatever was overwritten or clear()ed before this subscription existed
  // is history, not a post-subscription loss, and must not count toward
  // `dropped` (it would permanently flip consumers' degraded flags).
  std::lock_guard registry_lock(tracer_.registry_mu_);
  consumed_.reserve(tracer_.rings_.size());
  for (const auto& ring : tracer_.rings_) {
    std::lock_guard lock(ring->mu);
    consumed_.push_back(ring->written - ring->slots.size());
  }
}

void TraceSubscription::drain(Batch& batch) {
  batch.events.clear();
  // The horizon is read BEFORE any ring lock: seq tickets are issued inside
  // ring critical sections (see record()), so after the sweep below every
  // event numbered under this reading has been copied out, consumed earlier,
  // or charged to `dropped`.  Anything at or past it may still be mid-record.
  batch.stable_before =
      tracer_.next_seq_.load(std::memory_order_acquire);
  {
    std::lock_guard registry_lock(tracer_.registry_mu_);
    if (consumed_.size() < tracer_.rings_.size()) {
      consumed_.resize(tracer_.rings_.size(), 0);
    }
    for (std::size_t i = 0; i < tracer_.rings_.size(); ++i) {
      const Tracer::Ring& ring = *tracer_.rings_[i];
      std::lock_guard lock(ring.mu);
      // Retained logical write indices are [written - slots.size(), written);
      // anything below that was overwritten or clear()ed before we got here.
      const std::uint64_t oldest = ring.written - ring.slots.size();
      std::uint64_t& cursor = consumed_[i];
      if (cursor < oldest) {
        dropped_ += oldest - cursor;
        cursor = oldest;
      }
      for (; cursor < ring.written; ++cursor) {
        TraceEvent ev =
            ring.slots[(cursor - ring.base) % tracer_.capacity_];
        ev.tid = static_cast<std::uint32_t>(i);
        batch.events.push_back(ev);
      }
    }
  }
  std::sort(batch.events.begin(), batch.events.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  batch.dropped = dropped_;
}

}  // namespace atp
