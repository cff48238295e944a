// Structured event tracing for the whole transaction lifecycle.
//
// The Tracer is a low-overhead, thread-safe recorder: each recording thread
// writes into its own fixed-size ring buffer (one uncontended mutex per ring,
// taken only by the owner thread and by collect()), and events carry a global
// sequence number so collect() can merge the rings into one totally ordered
// span stream.  When tracing is off every instrumented call site costs a
// single null-pointer check.
//
// The captured history is the input to the audit layer (src/audit/): the SR
// certifier rebuilds the direct-serialization graph from Read/Write events,
// and the ESR certifier replays the FuzzImport/FuzzExport ledger.  The
// exporters (trace/export.h) turn the same events into Chrome trace_event
// JSON (chrome://tracing, Perfetto) and newline-delimited JSON.
//
// Rings overwrite their oldest events when full (the recorder never blocks
// and never allocates after a ring fills); dropped() reports how many events
// were lost so an auditor can refuse to certify an incomplete trace.
//
// Live consumption: subscribe() returns a TraceSubscription whose drain()
// incrementally copies every ring's new events without disturbing them --
// per-ring cursors, one short lock per ring per drain, recorders never wait
// on the consumer.  Each drained batch carries a stable-seq horizon: every
// event numbered below it has been delivered (in this batch or an earlier
// one) or counted as dropped, so a consumer such as the online certifier
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
  TxnBegin,    ///< txn; a=import limit, b=export limit; aux=1 if update ET;
               ///< aux2=parent id (0 when unchopped)
  TxnCommit,   ///< txn; a=final fuzziness Z (imported+exported)
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
               ///< aux2=counterpart update ET (0 for a self-import)
  FuzzExport,  ///< txn=update ET; a=amount; b=export limit at charge time;
               ///< aux2=counterpart query ET
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

/// Incremental consumer of one Tracer's streams (Tracer::subscribe()).
///
/// drain() copies everything recorded since the previous drain() and returns
/// it with a *stable horizon*: seq numbers are handed out inside each ring's
/// critical section, so once drain() has visited every ring, any event with
/// `seq < stable_before` is either in this batch, was in an earlier batch, or
/// has been counted in `dropped` (overwritten or clear()ed before the cursor
/// reached it).  Events at or past the horizon may still be mid-record on
/// some thread; a strict-order consumer buffers them for the next drain.
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
  /// ones.  One short lock per ring; never blocks a recorder for longer
  /// than one slot copy.
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
};

class Tracer {
 public:
  /// `per_thread_capacity`: ring size, in events, of each recording thread.
  explicit Tracer(std::size_t per_thread_capacity = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record one event.  Thread-safe; assigns seq/ts/tid.  Never blocks on
  /// other recorders (each thread owns its ring).
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
  /// Live subscriptions see cleared-but-undrained events as dropped.
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
  struct Ring {
    mutable OrderedMutex<LockRank::kTraceRing> mu;  ///< rank kTraceRing: leaf (emit runs under stripe/inbox locks)
    std::vector<TraceEvent> slots;  ///< grows to capacity, then wraps
    std::uint64_t written = 0;      ///< total events ever written
    std::uint64_t base = 0;         ///< events discarded by clear()
  };

  friend class TraceSubscription;

  [[nodiscard]] Ring* ring_for_current_thread();

  const std::uint64_t id_;  ///< process-unique, never reused (cache key)
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_seq_{1};
  mutable OrderedMutex<LockRank::kTraceRegistry> registry_mu_;  ///< rank kTraceRegistry: taken before each Ring::mu
  std::vector<std::unique_ptr<Ring>> rings_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< attach_metrics target
  std::uint64_t collector_id_ = 0;
};

}  // namespace atp
