#include "trace/tracer.h"

#include <algorithm>
#include <bit>
#include <cstddef>

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

// One recording thread's ring.  Single producer: only the owning thread
// writes the slots, `busy`, `written`, `published_seq` and `base`; clear()
// writes `cleared_below`; readers write nothing.  Event i (in `written`
// units) lives in slot (i - base) % capacity, so indexing restarts at slot 0
// when the producer adopts a clear().
struct alignas(64) TraceRing {
  explicit TraceRing(std::size_t words_total)
      : words(std::make_unique_for_overwrite<std::uint64_t[]>(words_total)) {}

  std::atomic<bool> busy{false};  ///< producer is inside record()
  std::atomic<std::uint64_t> written{0};        ///< events ever written
  std::atomic<std::uint64_t> published_seq{0};  ///< seq of event written-1
  std::atomic<std::uint64_t> base{0};           ///< slot origin
  std::atomic<std::uint64_t> cleared_below{0};  ///< clear(): below is gone
  /// Slot payloads, read and written only through atomic_ref, so a drain
  /// racing its producer is a detected lap rather than a data race.
  /// Default-initialised: a page is touched when its first slot is written.
  std::unique_ptr<std::uint64_t[]> words;
};

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

// A slot is kSlotWords words: the event minus its tid (assigned when a
// reader merges the rings), with site and kind packed into one word.
constexpr std::size_t kSlotWords = 9;

// Every slot word is a release store and an acquire load, as in the store's
// VersionSlot: a reader whose load sees any word of a record therefore also
// sees what its producer wrote before the slot -- the raised `busy` flag,
// the write count, an adopted `base` -- when it re-reads them after the
// copy.  Both are plain moves on x86, and unlike fences ThreadSanitizer
// models them.
void store_slot(std::uint64_t* slot, const TraceEvent& ev) {
  const std::uint64_t w[kSlotWords] = {
      ev.seq,
      std::bit_cast<std::uint64_t>(ev.ts_us),
      std::uint64_t(ev.site) | (std::uint64_t(ev.kind) << 32),
      ev.txn,
      ev.key,
      std::bit_cast<std::uint64_t>(ev.a),
      std::bit_cast<std::uint64_t>(ev.b),
      ev.aux,
      ev.aux2};
  for (std::size_t i = 0; i < kSlotWords; ++i) {
    std::atomic_ref<std::uint64_t>(slot[i]).store(w[i],
                                                  std::memory_order_release);
  }
}

TraceEvent load_slot(std::uint64_t* slot, std::uint32_t tid) {
  auto word = [slot](std::size_t i) {
    return std::atomic_ref<std::uint64_t>(slot[i]).load(
        std::memory_order_acquire);
  };
  TraceEvent ev;
  ev.seq = word(0);
  ev.ts_us = std::bit_cast<std::int64_t>(word(1));
  const std::uint64_t site_kind = word(2);
  ev.site = static_cast<SiteId>(site_kind);
  ev.kind = static_cast<TraceKind>(site_kind >> 32);
  ev.txn = word(3);
  ev.key = word(4);
  ev.a = std::bit_cast<double>(word(5));
  ev.b = std::bit_cast<double>(word(6));
  ev.aux = word(7);
  ev.aux2 = word(8);
  ev.tid = tid;
  return ev;
}

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

TraceRing* Tracer::ring_for_current_thread() {
  // One-entry cache keyed by the tracer's never-reused id -- NOT its address:
  // a dead tracer's storage can be reused by a new one, and an address match
  // would then hand back a ring freed with the old tracer.  A thread
  // alternating between live tracers gets a fresh ring per switch (the old
  // ring stays in rings_, so its events still reach collect()).
  struct Cache {
    std::uint64_t tracer_id = 0;
    TraceRing* ring = nullptr;
  };
  static thread_local Cache cache;
  if (cache.tracer_id == id_) return cache.ring;

  auto ring = std::make_unique<TraceRing>(capacity_ * kSlotWords);
  std::lock_guard lock(registry_mu_);
  rings_.push_back(std::move(ring));
  cache.tracer_id = id_;
  cache.ring = rings_.back().get();
  return cache.ring;
}

void Tracer::record(TraceKind kind, SiteId site, TxnId txn, Key key, double a,
                    double b, std::uint64_t aux, std::uint64_t aux2) {
  TraceEvent ev;
  ev.ts_us = now_us();
  ev.site = site;
  ev.kind = kind;
  ev.txn = txn;
  ev.key = key;
  ev.a = a;
  ev.b = b;
  ev.aux = aux;
  ev.aux2 = aux2;

  TraceRing& ring = *ring_for_current_thread();
  // The flag goes up before the ticket is taken and comes down only after
  // the event is published: the stable-horizon argument of
  // TraceSubscription rests on this bracket.  The raise needs no fence of
  // its own: the ticket's fetch_add is a release, and a drain's acquire
  // load that sees this ticket (or any later one: fetch_adds continue the
  // release sequence) therefore also sees the raised flag.
  ring.busy.store(true, std::memory_order_relaxed);  // relaxed-ok: published by the release fetch_add below
  ev.seq = next_seq_.fetch_add(1, std::memory_order_release);
  // relaxed-ok(begin): written and base have no other writer than this
  // thread; cleared_below is re-checked every record, so a stale read only
  // postpones adopting a clear() by one event.
  const std::uint64_t w = ring.written.load(std::memory_order_relaxed);
  std::uint64_t base = ring.base.load(std::memory_order_relaxed);
  if (ring.cleared_below.load(std::memory_order_relaxed) > base) {
    base = w;  // adopt the clear(): this event goes to slot 0
    ring.base.store(base, std::memory_order_relaxed);
  }
  // relaxed-ok(end)
  // A reader that sees any word of this slot also sees the flag, the count
  // and the base above (store_slot), so it counts the slot as lapped.
  store_slot(&ring.words[((w - base) % capacity_) * kSlotWords], ev);
  ring.written.store(w + 1, std::memory_order_release);
  ring.published_seq.store(ev.seq, std::memory_order_release);
  ring.busy.store(false, std::memory_order_release);
}

std::vector<const TraceRing*> Tracer::list_rings() const {
  std::vector<const TraceRing*> out;
  std::lock_guard lock(registry_mu_);
  for (const auto& ring : rings_) out.push_back(ring.get());
  return out;
}

std::uint64_t Tracer::oldest_retained(const TraceRing& ring) const {
  const std::uint64_t written = ring.written.load(std::memory_order_acquire);
  return std::max({ring.base.load(std::memory_order_acquire),
                   ring.cleared_below.load(std::memory_order_acquire),
                   written > capacity_ ? written - capacity_ : 0});
}

std::uint64_t Tracer::copy_ring(const TraceRing& ring, std::uint64_t from,
                                std::uint32_t tid,
                                std::vector<TraceEvent>& out,
                                std::uint64_t& lost) const {
  // written before base: a base adopted after this read is >= written, so
  // the copy range below comes out empty rather than mis-indexed.
  const std::uint64_t written = ring.written.load(std::memory_order_acquire);
  const std::uint64_t base = ring.base.load(std::memory_order_acquire);
  const std::uint64_t lo = std::max(
      {from, base, ring.cleared_below.load(std::memory_order_acquire),
       written > capacity_ ? written - capacity_ : 0});
  const std::size_t first = out.size();
  std::size_t slot = (lo - base) % capacity_;
  for (std::uint64_t i = lo; i < written; ++i) {
    out.push_back(load_slot(&ring.words[slot * kSlotWords], tid));
    if (++slot == capacity_) slot = 0;
  }
  // Which copied slots may the producer have rewritten meanwhile?  Having
  // read any word of its record for index `written2` (which rewrites index
  // written2 - capacity), this thread now sees `busy` up or the count past
  // written2 (see store_slot); busy is read first so that a lowered flag
  // brings its count with it.  A base adopted meanwhile remaps every slot.
  const std::uint64_t busy = ring.busy.load(std::memory_order_acquire) ? 1 : 0;
  const std::uint64_t written2 = ring.written.load(std::memory_order_acquire);
  const std::uint64_t end = std::max(lo, written);
  std::uint64_t valid = lo;
  if (ring.base.load(std::memory_order_acquire) != base) {
    valid = end;
  } else if (written2 + busy > capacity_) {
    valid = std::clamp(written2 + busy - capacity_, lo, end);
  }
  if (valid > lo) {
    out.erase(out.begin() + std::ptrdiff_t(first),
              out.begin() + std::ptrdiff_t(first + (valid - lo)));
  }
  lost += valid - from;
  return end;
}

std::vector<TraceEvent> Tracer::collect() const {
  const std::vector<const TraceRing*> rings = list_rings();
  std::vector<TraceEvent> all;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    (void)copy_ring(*rings[i], 0, static_cast<std::uint32_t>(i), all, lost);
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return all;
}

std::uint64_t Tracer::dropped() const {
  const std::vector<const TraceRing*> rings = list_rings();
  std::uint64_t lost = 0;
  for (const TraceRing* ring : rings) {
    const std::uint64_t written = ring->written.load(std::memory_order_acquire);
    const std::uint64_t origin =
        std::max(ring->base.load(std::memory_order_acquire),
                 ring->cleared_below.load(std::memory_order_acquire));
    const std::uint64_t live = written > origin ? written - origin : 0;
    if (live > capacity_) lost += live - capacity_;
  }
  return lost;
}

std::size_t Tracer::size() const {
  const std::vector<const TraceRing*> rings = list_rings();
  std::size_t n = 0;
  for (const TraceRing* ring : rings) {
    const std::uint64_t written = ring->written.load(std::memory_order_acquire);
    const std::uint64_t oldest = oldest_retained(*ring);
    if (written > oldest) n += std::size_t(written - oldest);
  }
  return n;
}

void Tracer::clear() {
  std::lock_guard registry_lock(registry_mu_);
  for (const auto& ring : rings_) {
    ring->cleared_below.store(ring->written.load(std::memory_order_acquire),
                              std::memory_order_release);
  }
}

TraceSubscription::TraceSubscription(const Tracer& tracer) : tracer_(tracer) {
  // Start every existing ring's cursor at its oldest *retained* event:
  // whatever was overwritten or clear()ed before this subscription existed
  // is history, not a post-subscription loss, and must not count toward
  // `dropped` (it would permanently flip consumers' degraded flags).
  const std::vector<const TraceRing*> rings = tracer_.list_rings();
  consumed_.reserve(rings.size());
  for (const TraceRing* ring : rings) {
    consumed_.push_back(tracer_.oldest_retained(*ring));
  }
}

void TraceSubscription::drain(Batch& batch) {
  batch.events.clear();
  // The ticket counter is read BEFORE any ring (see the class comment):
  // after the sweep, every event numbered below it has been copied out,
  // consumed earlier or charged to `dropped`, except in rings caught
  // mid-record, which clamp the horizon to what they have published.
  std::uint64_t horizon = tracer_.next_seq_.load(std::memory_order_acquire);
  const std::vector<const TraceRing*> rings = tracer_.list_rings();
  if (consumed_.size() < rings.size()) consumed_.resize(rings.size(), 0);
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const TraceRing& ring = *rings[i];
    if (ring.busy.load(std::memory_order_acquire)) {
      horizon = std::min(
          horizon, ring.published_seq.load(std::memory_order_acquire) + 1);
    }
    consumed_[i] = tracer_.copy_ring(ring, consumed_[i],
                                     static_cast<std::uint32_t>(i),
                                     batch.events, dropped_);
  }
  std::sort(batch.events.begin(), batch.events.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  horizon_ = std::max(horizon_, horizon);
  batch.stable_before = horizon_;
  batch.dropped = dropped_;
}

}  // namespace atp
