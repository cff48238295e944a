// Strict two-phase-locking lock manager, sharded into independently-locked
// stripes.
//
// Only update ETs enter the lock table: CC queries read an MVCC snapshot and
// DC queries read through DcResolver::read_fresh, so no query/update conflict
// is ever decided here and both schedulers run updates under plain strict
// 2PL.
//
// Scalability: the lock table is partitioned into N stripes keyed by
// hash(key) % N.  Each stripe owns its mutex, condition variable, wait
// queues, per-transaction held-key index and wait/timeout statistics, so
// acquires and releases on different stripes never contend.  A request
// granted on its first evaluation touches nothing but its stripe: it never
// registers as a waiter, publishes no wait edges and arms no timeout.  What
// cannot be striped is the waits-for relation, which only a request that
// blocks ever touches: a transaction blocked in stripe A may wait for a
// transaction blocked in stripe B, so deadlock cycles cross stripes.  Wait edges are therefore *published* to one global wait graph
// (its own small mutex, ordered strictly after any stripe mutex) and the
// deadlock DFS runs there.  Publication happens before the DFS under the
// same wait-graph lock, so a cycle formed by concurrent blockers in
// different stripes is always visible to whichever blocker publishes last --
// no deadlock goes undetected that the single-mutex design would have
// caught.  The converse race (a just-granted waiter whose edges linger for a
// moment) can produce a rare *spurious* victim under heavy contention;
// aborting a transaction is always safe (the piece runner resubmits), and
// the wait timeout backstops anything else.
//
// Deadlocks are detected eagerly: every time a request is about to block,
// the waits-for DFS runs through the new wait edges; if the requester closes
// a cycle the acquire fails with kDeadlock and the caller aborts (youngest-
// ish victim: the transaction that *created* the cycle dies, which is always
// sufficient to break it because cycles can only appear when a new edge is
// added).  A wait timeout backstops anything the DFS cannot see (e.g. waits
// induced outside this lock manager).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "trace/tracer.h"

#include "common/ordered_lock.h"

namespace atp {

enum class LockMode : std::uint8_t { Shared, Exclusive };

[[nodiscard]] constexpr bool compatible(LockMode a, LockMode b) noexcept {
  return a == LockMode::Shared && b == LockMode::Shared;
}

[[nodiscard]] constexpr const char* to_string(LockMode m) noexcept {
  return m == LockMode::Shared ? "S" : "X";
}

/// A granted lock on one key.
struct LockHolder {
  TxnId txn = kInvalidTxn;
  LockMode mode = LockMode::Shared;
};

struct LockStats {
  std::uint64_t waits = 0;      // requests that blocked at least once
  std::uint64_t deadlocks = 0;  // requests refused as deadlock victims
  std::uint64_t timeouts = 0;   // requests that timed out waiting
};

/// Per-stripe observability snapshot (stripe_stats()): the contention
/// heatmap's raw material.  `acquire_us` is a sampled latency distribution
/// (one in kLatencySampleShift-th of acquires is timed end to end), so its
/// count is a fraction of `acquires`.
struct LockStripeSnapshot {
  LockStats stats;
  std::uint64_t acquires = 0;     ///< acquire() calls routed to this stripe
  std::uint64_t releases = 0;     ///< release_all() visits to this stripe
  std::uint64_t waiters_now = 0;  ///< transactions blocked right now
  std::uint64_t max_waiters = 0;  ///< high-water mark of concurrent waiters
  StatSummary acquire_us;         ///< sampled end-to-end acquire latency
};

class LockManager {
 public:
  /// Stripe count: enough that a handful of workers rarely collide on
  /// stripe mutexes for uniformly-hashed keys, and exactly as many as a
  /// StripeMask has bits, so a transaction can name every stripe it locked
  /// in and release_all visits only those.
  static constexpr std::size_t kStripes = 16;

  /// Set of stripes, bit i = stripe i.  A caller records
  /// stripe_bit(key) before each acquire and hands the union to
  /// release_all (see Txn).
  using StripeMask = std::uint16_t;
  static_assert(kStripes <= 8 * sizeof(StripeMask));
  static constexpr StripeMask kAllStripes = StripeMask(~StripeMask{0});

  [[nodiscard]] static constexpr std::size_t stripe_index(Key key) noexcept {
    // Multiplicative hash: workload keys are clustered (branch*1e6 + index),
    // so identity % N would put whole branches on few stripes.
    return (key * 0x9E3779B97F4A7C15ULL >> 32) % kStripes;
  }
  [[nodiscard]] static constexpr StripeMask stripe_bit(Key key) noexcept {
    return StripeMask(StripeMask{1} << stripe_index(key));
  }

  explicit LockManager(std::chrono::milliseconds default_timeout =
                           std::chrono::milliseconds(2000));
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquire `mode` on `key` for `txn`.  Blocks (honouring FIFO fairness)
  /// until granted, deadlock, or timeout.  Re-entrant: if txn already holds
  /// a mode covering the request this is a no-op; S->X upgrade is supported.
  Status acquire(TxnId txn, Key key, LockMode mode);

  /// Release every lock txn holds and cancel any pending wait.  Idempotent.
  /// Only the stripes in `stripes` are visited: it must include every
  /// stripe txn ever called acquire() in (a pending wait's stripe
  /// included), which is what lets a transaction that locked in two
  /// stripes -- or none, like a snapshot query -- skip the other fourteen.
  void release_all(TxnId txn, StripeMask stripes = kAllStripes);

  /// Does txn hold at least `mode` on key?
  [[nodiscard]] bool holds(TxnId txn, Key key, LockMode mode) const;

  /// Snapshot of current holders of `key` (diagnostics / DC write charging).
  [[nodiscard]] std::vector<LockHolder> holders_of(Key key) const;

  /// Aggregated over all stripes.
  [[nodiscard]] LockStats stats() const;

  /// Per-stripe counters + sampled acquire latency, in stripe order -- the
  /// obs layer renders this as the contention heatmap.
  [[nodiscard]] std::vector<LockStripeSnapshot> stripe_stats() const;

  void set_timeout(std::chrono::milliseconds t) { timeout_ = t; }

  /// Attach a tracer: grants (with conflict type), waits, deadlocks,
  /// timeouts and releases are recorded as structured events.
  void set_trace(Tracer* tracer, SiteId site) noexcept {
    tracer_ = tracer;
    site_ = site;
  }

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
    bool cancelled = false;  // guarded by the owning stripe's mutex
    // Txns this waiter currently waits for (holders + conflicting waiters
    // ahead); refreshed on each blocking evaluation under the stripe mutex,
    // then copied into the global wait graph.
    std::unordered_set<TxnId> waits_for;
  };

  struct Queue {
    std::vector<LockHolder> holders;
    std::list<Waiter*> waiters;  // FIFO
  };

  /// One shard of the lock table.  Everything inside is guarded by mu --
  /// except the observability fields at the bottom, which are updated
  /// outside the stripe mutex (see acquire()) and therefore atomic / self-
  /// locking.  cv is broadcast on any release/cancel affecting the stripe.
  struct Stripe {
    mutable OrderedMutex<LockRank::kLockStripe> mu;  ///< rank kLockStripe: taken before waits-for/delta/store/txn locks
    OrderedCondVar cv;
    std::unordered_map<Key, Queue> queues;
    // Keys each transaction holds here, in grant order.  A transaction
    // holds a handful of keys per stripe, so a vector beats a node set.
    std::unordered_map<TxnId, std::vector<Key>> held_keys;
    // One outstanding request per txn at a time (the piece runner
    // guarantees it), so at most one entry per txn across ALL stripes.
    std::unordered_map<TxnId, Waiter*> waiting;
    LockStats stats;
    std::uint64_t max_waiters = 0;  // guarded by mu (updated when queueing)
    std::uint64_t releases = 0;     // guarded by mu (release_all visits)
    // Observability: total acquires (relaxed atomic -- also the sampling
    // clock for the latency histogram, bumped after the stripe mutex is
    // released) and the sampled end-to-end acquire latency.
    std::atomic<std::uint64_t> acquires{0};
    Histogram acquire_us{256};
  };

  /// 1-in-2^kLatencySampleShift acquires are timed end to end.  Sampling
  /// keeps the steady_clock reads and the histogram's mutex off most of the
  /// hot path while still populating a faithful latency distribution.
  /// 1-in-64: at 1-in-8 the amortized clock reads were the dominant term of
  /// the instrumentation overhead on an uncontended acquire (~40-100ns per
  /// sampled pair vs a ~270ns acquire); 64 pushes that under 2ns amortized
  /// while a bench run still collects thousands of samples per stripe.
  static constexpr std::uint64_t kLatencySampleShift = 6;

  // The un-instrumented acquire body (acquire() wraps it with the sampled
  // latency probe).
  Status acquire_impl(TxnId txn, Key key, LockMode mode, Stripe& s);

  [[nodiscard]] Stripe& stripe_of(Key key) const noexcept {
    return *stripes_[stripe_index(key)];
  }

  enum class Decision { Granted, Blocked };

  // Evaluate whether self's request can be granted now; grants it if so,
  // otherwise refills self.waits_for with the blockers (conflicting holders
  // and incompatible waiters ahead).  Caller holds the stripe mutex.
  Decision evaluate(Key key, Stripe& s, Queue& q, Waiter& self);

  // Publish `self`'s current wait edges to the global graph and check
  // whether they close a cycle back to `txn`.  Caller holds the stripe
  // mutex; takes wait_mu_ (stripe -> wait order, never the reverse).
  [[nodiscard]] bool publish_and_check_deadlock(TxnId txn, const Waiter& self);

  // Remove txn's published wait edges (after grant/deadlock/timeout/cancel).
  void retract_wait_edges(TxnId txn);

  void grant(TxnId txn, Key key, LockMode mode, Stripe& s, Queue& q);

  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;

  // Global waits-for graph for cross-stripe deadlock detection.  Lock order:
  // any stripe mutex, then wait_mu_.  Values are snapshots of each blocked
  // txn's waits_for set, republished on every blocking evaluation.
  mutable OrderedMutex<LockRank::kWaitsFor> wait_mu_;  ///< rank kWaitsFor: stripe then wait, never the reverse
  std::unordered_map<TxnId, std::unordered_set<TxnId>> wait_edges_;

  std::chrono::milliseconds timeout_;
  Tracer* tracer_ = nullptr;
  SiteId site_ = 0;
};

}  // namespace atp
