// Structured event tracing for the whole transaction lifecycle.
//
// The Tracer is a low-overhead, thread-safe recorder.  Each recording thread
// owns a fixed-size ring that only it writes, so once a thread's ring is
// registered (its first event), record() takes no lock: it sets the ring's
// in-flight flag, takes a ticket from one global sequence, writes the slot
// and publishes the ring's write count with a release store.
// The sequence ticket is the only word recorders share; collect() merges the
// rings into one stream totally ordered by it.  When tracing is off every
// instrumented call site costs a single null-pointer check.
//
// The ticket is taken inside record(), and record() runs under whatever
// locks its caller holds (lock stripes, store and queue locks), so sequence
// order is conflict order: the SR certifier's soundness argument (DESIGN.md
// section 5) rests on that, not on any tracer lock.
//
// The captured history is the input to the audit layer (src/audit/): the SR
// certifier rebuilds the direct-serialization graph from Read/Write events,
// and the ESR certifier replays the FuzzImport ledger.  The
// exporters (trace/export.h) turn the same events into Chrome trace_event
// JSON (chrome://tracing, Perfetto) and newline-delimited JSON.
//
// Rings overwrite their oldest events when full (the recorder never blocks
// and never allocates after its ring exists); dropped() reports how many
// events were lost so an auditor can refuse to certify an incomplete trace.
// A ring's storage is reserved whole but touched only as slots are first
// written, so a short or idle thread costs address space, not memory.
//
// Live consumption: subscribe() returns a TraceSubscription whose drain()
// incrementally copies every ring's new events without disturbing them and
// without ever making a recorder wait: a drain reads slots while their
// producer may be lapping them, then re-reads the ring's counters and
// discards (and counts as dropped) every slot that may have been rewritten
// under it.  Each drained batch carries a stable-seq horizon: every event
// numbered below it has been delivered (in this batch or an earlier one) or
// counted as dropped, so a consumer such as the online certifier
// (audit/online_certifier.h) can process a strictly seq-ordered prefix and
// buffer the rest.  attach_metrics() additionally publishes ring health
// (trace.dropped_events, trace.retained_events) into an obs registry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

#include "common/ordered_lock.h"

namespace atp {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// What happened.  Field conventions per kind are documented inline; unused
/// fields are zero.
enum class TraceKind : std::uint8_t {
  // Epsilon-transaction (ET) lifecycle -- sched/.
  TxnBegin,    ///< txn; a=import limit; b unused (0); aux=1 if update ET;
               ///< aux2=parent id (0 when unchopped)
  TxnCommit,   ///< txn; a=final fuzziness Z (what it imported; 0 for an
               ///< update ET, which is never charged)
  TxnAbort,    ///< txn
  Read,        ///< txn, key; a=value observed
  Write,       ///< txn, key; a=value installed
  // Original (chopped) transaction + piece lifecycle -- engine/.
  RunBegin,     ///< txn=original id
  RunCommit,    ///< txn=original id; a=Z restricted, b=Z total
  RunRollback,  ///< txn=original id (programmed rollback taken)
  PieceStart,   ///< txn=piece ET id; key=piece index; a=piece Limit;
                ///< aux2=original id
  PieceFinish,  ///< txn=piece ET id; key=piece index; a=Z_p; aux2=original id
  PieceResubmit,  ///< key=piece index; aux=attempt; aux2=original id
  // Lock manager -- lock/.  aux bit0 = exclusive mode.
  LockWait,      ///< txn, key; aux=mode; aux2=one blocking txn
  LockAcquire,   ///< txn, key; aux=mode
  LockRelease,   ///< txn (release_all: every key at once)
  LockDeadlock,  ///< txn, key; aux=mode (refused as deadlock victim)
  LockTimeout,   ///< txn, key; aux=mode
  // Divergence-control fuzziness ledger -- txn/.
  FuzzImport,  ///< txn=query ET; a=amount; b=import limit at charge time;
               ///< aux2 unused (0)
  // Recoverable queues -- queue/.
  QueueEnqueue,    ///< txn; aux=qmsg id; aux2=destination site
  QueueDequeue,    ///< txn; aux=qmsg id (claim staged under txn)
  QueueDeliver,    ///< aux=qmsg id; aux2=sender site; a=1 new, 0 duplicate
  QueueRedeliver,  ///< aux=qmsg id (claim returned by an aborting consumer)
  // Simulated network -- net/.  site=sender for Send/Drop, receiver for
  // Deliver; key carries the peer site id.
  NetSend,     ///< site=from, key=to, aux=message id
  NetDeliver,  ///< site=to, key=from, aux=message id
  NetDrop,     ///< site=from, key=to, aux=message id
  // Site failure injection -- dist/.
  SiteCrash,    ///< site
  SiteRecover,  ///< site
};

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

/// One recorded event.  POD on purpose: recording must not allocate.
struct TraceEvent {
  std::uint64_t seq = 0;   ///< global total order (assigned at record time)
  std::int64_t ts_us = 0;  ///< microseconds since the tracer's epoch
  std::uint32_t tid = 0;   ///< dense per-tracer thread index
  SiteId site = 0;         ///< site the event happened at (0 when single-site)
  TraceKind kind = TraceKind::TxnBegin;
  TxnId txn = kInvalidTxn;
  Key key = 0;
  double a = 0;  ///< primary scalar payload (value, amount, Z, ...)
  double b = 0;  ///< secondary scalar payload (limit, Z total, ...)
  std::uint64_t aux = 0;   ///< small integer payload (mode bits, msg id, ...)
  std::uint64_t aux2 = 0;  ///< second integer payload (parent, peer, ...)
};

/// Lock-mode bits carried in `aux` of the Lock* events.
inline constexpr std::uint64_t kTraceModeExclusive = 1;

class Tracer;
struct TraceRing;  ///< one recording thread's ring (tracer.cpp)

/// Incremental consumer of one Tracer's streams (Tracer::subscribe()).
///
/// drain() copies everything recorded since the previous drain() and returns
/// it with a *stable horizon* `stable_before`: every event with
/// `seq < stable_before` is either in this batch, was in an earlier batch, or
/// has been counted in `dropped` (overwritten or clear()ed before the cursor
/// reached it, or lapped by its producer while drain() copied it).
///
/// Why the horizon holds without a lock.  A recorder raises its ring's
/// `busy` flag before it takes its ticket with a release fetch_add, and
/// lowers it (release) only after the slot, the ring's write count and its
/// `published_seq` are published.  drain() reads the global ticket counter
/// H first (acquire), then each ring's `busy` flag, then its
/// `published_seq` and write count.  An event whose ticket is below H was
/// ticketed before H was read, and the acquire read of H makes the flag it
/// raised visible: drain() either sees the flag still up, or sees it
/// lowered by that event's own release (or a later one) and with it the
/// event's slot and write count.  So for a ring seen idle, every
/// ticket below H is already in the ring; for a ring seen busy, the horizon
/// is clamped to its `published_seq + 1`, below which the ring is complete.
/// The clamp can move the horizon below an earlier drain's, so the horizon
/// is kept monotone: what an earlier drain settled stays settled.
///
/// Events at or past the horizon may still be mid-record on some thread; a
/// strict-order consumer buffers them for the next drain.
///
/// Not thread-safe (one draining thread per subscription); the subscription
/// must not outlive its Tracer.
class TraceSubscription {
 public:
  struct Batch {
    std::vector<TraceEvent> events;   ///< new events, sorted by seq
    std::uint64_t stable_before = 0;  ///< every seq below this is final
    std::uint64_t dropped = 0;        ///< cumulative events lost to this
                                      ///< subscription (overwrites + clears)
  };

  /// Collect everything new into `batch`, replacing its contents.  The
  /// event vector is cleared, not freed, so a consumer that reuses one
  /// Batch across drains allocates only when a drain outgrows all earlier
  /// ones.  Takes the ring registry lock only to list the rings; the copy
  /// itself never blocks a recorder.
  void drain(Batch& batch);

 private:
  friend class Tracer;
  /// Snapshots each existing ring's oldest retained index so events lost
  /// BEFORE the subscription (overwrites, clear()s) are not charged to
  /// `dropped`; rings that appear later start at their birth (index 0).
  explicit TraceSubscription(const Tracer& tracer);

  const Tracer& tracer_;
  std::vector<std::uint64_t> consumed_;  ///< per-ring cursor, `written` units
  std::uint64_t dropped_ = 0;
  std::uint64_t horizon_ = 0;  ///< highest stable_before handed out so far
};

class Tracer {
 public:
  /// `per_thread_capacity`: ring size, in events, of each recording thread.
  explicit Tracer(std::size_t per_thread_capacity = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record one event.  Thread-safe and lock-free after the thread's first
  /// event (which registers its ring); assigns seq/ts/tid.  Never waits for
  /// another recorder or for a reader.
  void record(TraceKind kind, SiteId site, TxnId txn = kInvalidTxn,
              Key key = 0, double a = 0, double b = 0, std::uint64_t aux = 0,
              std::uint64_t aux2 = 0);

  /// Null-safe convenience for instrumented call sites: one pointer check
  /// when tracing is off.
  static void emit(Tracer* tracer, TraceKind kind, SiteId site,
                   TxnId txn = kInvalidTxn, Key key = 0, double a = 0,
                   double b = 0, std::uint64_t aux = 0,
                   std::uint64_t aux2 = 0) {
    if (tracer != nullptr) tracer->record(kind, site, txn, key, a, b, aux, aux2);
  }

  /// Merge every thread's ring into one stream ordered by seq.
  /// Non-destructive: events stay in their rings until overwritten.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Events lost to ring overwrites since the last clear().  A nonzero value
  /// means collect() is a suffix of the true history; certifiers report such
  /// traces as incomplete.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Events currently retained across all rings.
  [[nodiscard]] std::size_t size() const;

  /// Drop all retained events and reset the drop counters.  The seq counter
  /// keeps climbing so pre-clear stragglers can never alias post-clear order.
  /// Live subscriptions see cleared-but-undrained events as dropped.  Meant
  /// for quiescent recorders; an event recorded concurrently with clear()
  /// may survive it or be counted as dropped, but is never torn.
  void clear();

  /// New live consumer; starts at the oldest events still retained.  The
  /// subscription must not outlive the tracer.
  [[nodiscard]] std::unique_ptr<TraceSubscription> subscribe() const {
    return std::unique_ptr<TraceSubscription>(new TraceSubscription(*this));
  }

  /// Microseconds since this tracer's epoch -- same clock as
  /// TraceEvent::ts_us, so consumers can compute event-to-now lag.
  [[nodiscard]] std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Publish ring health into `registry` as trace.dropped_events (counter)
  /// and trace.retained_events (gauge).  The registry must outlive the
  /// tracer (the destructor unregisters).  At most one registry at a time.
  void attach_metrics(obs::MetricsRegistry* registry);

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  friend class TraceSubscription;

  [[nodiscard]] TraceRing* ring_for_current_thread();

  /// The rings registered so far (pointers stable for the tracer's life).
  [[nodiscard]] std::vector<const TraceRing*> list_rings() const;

  /// Oldest event index `ring` still retains.
  [[nodiscard]] std::uint64_t oldest_retained(const TraceRing& ring) const;

  /// Append `ring`'s events with index >= `from` to `out`, tagged `tid`.
  /// Indices at or past `from` that are not appended (overwritten or
  /// cleared before the copy, or lapped by the producer during it) are
  /// added to `lost`.  Returns the index the next copy starts from.
  std::uint64_t copy_ring(const TraceRing& ring, std::uint64_t from,
                          std::uint32_t tid, std::vector<TraceEvent>& out,
                          std::uint64_t& lost) const;

  const std::uint64_t id_;  ///< process-unique, never reused (cache key)
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  /// The global seq ticket, alone on its cache line: every record() from
  /// every thread writes it, and the read-only fields above are read by
  /// every record() too.
  alignas(64) std::atomic<std::uint64_t> next_seq_{1};
  /// rank kTraceRegistry: guards rings_; taken by a thread's first record()
  /// and by readers to list the rings.
  alignas(64) mutable OrderedMutex<LockRank::kTraceRegistry> registry_mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< attach_metrics target
  std::uint64_t collector_id_ = 0;
};

}  // namespace atp
