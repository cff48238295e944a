// Registry of live epsilon transactions and their fuzziness accounts.
//
// Every elementary transaction (ET, one piece) registers here at begin and
// retires at commit or abort, so the registry sits on every transaction's
// path.  It is split into kShards shards by ET id; each shard owns its slice
// of the live table, the parent (Z_t) accumulators of the ids that hash to
// it, its retirement telemetry and its own struct mutex.  begin, end_commit,
// end_abort, try_self_import, fuzziness_of and set_spec lock only the shard
// of the id they name, so concurrent ETs on different shards never meet on
// a registry lock.  All shard mutexes share one rank (kTxnStruct), which
// makes holding two of them a lock-order violation: no path ever does.
// Bulk reads (snapshot_all, live_count) visit the shards one at a time, and
// end_commit drops the piece's shard before it adds Z_p to the parent's.
//
// Charges are single-ET: the query side's import account (divergence
// control prices a fresh read off version timestamps, DcResolver) and the
// eps-spec rewrites of dynamic limit distribution.  Mutations serialize
// behind charge_mu_ and write inside an epoch window (seqlock discipline):
// a charge bumps the epoch to odd, applies its stores, bumps back to even; a
// reader retries until it sees the same even epoch on both sides of its
// loads.  Every (counter, limit) pair a reader returns is therefore from one
// instant -- no torn eps-spec checks -- see DESIGN.md section 7.
//
// Pieces of a chopped transaction register with a `parent` id; committed
// fuzziness rolls up into per-parent totals so the engine can verify
// Lemma 1 (Z_t = sum of Z_p) and Condition 2 at runtime.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "trace/tracer.h"
#include "txn/epsilon.h"

#include "common/ordered_lock.h"

// ThreadSanitizer does not model standalone fences (GCC hard-errors on
// atomic_thread_fence under -fsanitize=thread); the seqlock read below
// substitutes an instrumented RMW when TSan is active.
#if defined(__SANITIZE_THREAD__)
#define ATP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATP_TSAN 1
#endif
#endif

namespace atp {

class EtRegistry {
 public:
  /// Read-only snapshot of a live ET (epoch-consistent copy).
  struct Entry {
    TxnId id = kInvalidTxn;
    TxnKind kind = TxnKind::Update;
    TxnId parent = kInvalidTxn;  ///< original transaction, if a chopped piece
    EpsilonSpec spec;
    Value imported = 0;  ///< fuzziness observed so far (query side)
    Value exported = 0;  ///< fuzziness leaked so far (update side)
  };

  /// Register a new ET and return its id.  `parent` links a chopped piece to
  /// its original transaction (kInvalidTxn for unchopped ETs).
  TxnId begin(TxnKind kind, EpsilonSpec spec, TxnId parent = kInvalidTxn);

  /// Allocate a fresh id without registering an ET -- used as the `parent`
  /// handle of a chopped original transaction, which never runs itself.
  TxnId allocate_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: uniqueness, not ordering
  }

  /// Charge `amount` to the query ET's own import account with no export
  /// counterpart -- divergence control prices a fresh read (DcResolver)
  /// against already-committed updates, whose export accounts are gone.
  /// All-or-nothing against the import limit.
  bool try_self_import(TxnId query_et, Value amount);

  /// Cumulative charge/rejection telemetry plus roll-ups of ended ETs,
  /// maintained inline (relaxed atomics, all mutated under existing locks)
  /// so the obs layer can report epsilon budgets as an operational quantity.
  /// "used"/"limit" are per-kind: a query's budget is its import side, an
  /// update's its export side; ETs whose limit on that side is infinite are
  /// counted in `*_unlimited` and excluded from the used/limit sums so a
  /// utilization ratio stays meaningful.
  struct ChargeStats {
    std::uint64_t charges_ok = 0;          ///< successful charge operations
    std::uint64_t rejected_import = 0;     ///< refusals: import limit hit
    double import_charged = 0;             ///< total fuzziness imported
    // The next three stay 0: every charge is an import now (DC prices
    // reads and never grants past a lock).  They are kept so the eps.*
    // metric family keeps its shape for its readers.
    std::uint64_t rejected_export = 0;     ///< refusals: export limit hit
    std::uint64_t rejected_admission = 0;  ///< DC feasibility peeks refused
    double export_charged = 0;             ///< total fuzziness exported
    std::uint64_t retired_query_count = 0;
    std::uint64_t retired_query_unlimited = 0;
    double retired_query_used = 0;
    double retired_query_limit = 0;
    std::uint64_t retired_update_count = 0;
    std::uint64_t retired_update_unlimited = 0;
    double retired_update_used = 0;
    double retired_update_limit = 0;
  };

  [[nodiscard]] ChargeStats charge_stats() const;

  /// Snapshot of an entry (copies; absent if ended).
  [[nodiscard]] std::optional<Entry> get(TxnId id) const;

  /// Copy of every live ET -- the obs layer's bulk read.  Shards are
  /// visited one at a time; each shard's entries are captured inside one
  /// even seqlock epoch, so every (counter, limit) pair is from one instant
  /// (no torn epsilon-budget pairs).  ETs beginning or retiring during the
  /// sweep may or may not appear.
  [[nodiscard]] std::vector<Entry> snapshot_all() const;

  /// Total fuzziness of the ET: imported + exported (for a piece, its Z_p).
  [[nodiscard]] Value fuzziness_of(TxnId id) const;

  /// Replace the ET's epsilon spec (dynamic limit distribution adjusts piece
  /// budgets between executions).
  void set_spec(TxnId id, EpsilonSpec spec);

  /// Commit-side roll-up: fold the piece's accumulated fuzziness into its
  /// parent's running Z_t, then drop the entry.  Returns the piece's Z_p.
  Value end_commit(TxnId id);

  /// Abort-side teardown: the piece's fuzziness evaporates with it (the
  /// paper: "the piece rolls back and resets Z to zero, and retries").
  void end_abort(TxnId id);

  /// Accumulated Z_t of an original transaction (sum over committed pieces).
  [[nodiscard]] Value parent_fuzziness(TxnId parent) const;

  /// Drop the parent accumulator (after the original txn fully commits).
  void forget_parent(TxnId parent);

  [[nodiscard]] std::size_t live_count() const;

  /// Attach a tracer: every successful import/export charge is recorded as a
  /// fuzziness-ledger event (amount + the limit in force), which is what the
  /// ESR certifier replays.
  void set_trace(Tracer* tracer, SiteId site) noexcept {
    tracer_ = tracer;
    site_ = site;
  }

 private:
  /// Shard count: a power of two well above the worker count, so ETs begun
  /// back to back (consecutive ids) land on different shards.
  static constexpr std::size_t kShards = 16;

  /// Live ET record, stored in its shard's map node (stable address while
  /// the ET lives).  One cache line per ET: the import/export counters are
  /// the write-hot fields.  id/kind/parent are immutable after begin(); the
  /// limits and counters are atomics mutated only under charge_mu_ inside an
  /// epoch window, and read lock-free under the epoch protocol.
  struct alignas(64) Slot {
    TxnId id = kInvalidTxn;
    TxnKind kind = TxnKind::Update;
    TxnId parent = kInvalidTxn;
    std::atomic<Value> import_limit{0};
    std::atomic<Value> export_limit{0};
    std::atomic<Value> imported{0};
    std::atomic<Value> exported{0};
  };

  /// Retirement roll-up of one shard: mutated under the shard's exclusive
  /// lock, read lock-free by charge_stats() (relaxed atomics).
  struct Retired {
    std::atomic<std::uint64_t> query_count{0};
    std::atomic<std::uint64_t> query_unlimited{0};
    std::atomic<double> query_used{0};
    std::atomic<double> query_limit{0};
    std::atomic<std::uint64_t> update_count{0};
    std::atomic<std::uint64_t> update_unlimited{0};
    std::atomic<double> update_used{0};
    std::atomic<double> update_limit{0};
  };

  /// One shard.  `mu` guards the maps' structure (insert/erase/lookup), NOT
  /// the slot counters: lookups take it shared, begin/end take it unique.
  /// Cache-line aligned so neighbouring shards' mutexes do not false-share.
  struct alignas(64) Shard {
    mutable OrderedSharedMutex<LockRank::kTxnStruct> mu;  ///< rank kTxnStruct: one shard at a time, then charge_mu_
    std::unordered_map<TxnId, Slot> live;
    std::unordered_map<TxnId, Value> parent_z;  ///< Z_t accumulators
    Retired retired;
  };

  [[nodiscard]] Shard& shard_of(TxnId id) noexcept {
    return shards_[id % kShards];
  }
  [[nodiscard]] const Shard& shard_of(TxnId id) const noexcept {
    return shards_[id % kShards];
  }

  /// Begin an epoch-write window (caller holds charge_mu_).
  void write_begin() noexcept {
    epoch_.fetch_add(1, std::memory_order_acq_rel);  // now odd
  }
  void write_end() noexcept {
    epoch_.fetch_add(1, std::memory_order_acq_rel);  // even again
  }

  /// Run `read` until it executes entirely inside one even epoch.
  template <typename F>
  auto epoch_consistent(F&& read) const {
    for (;;) {
      const std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
      if (e1 & 1) {  // charge in flight
        std::this_thread::yield();
        continue;
      }
      auto result = read();
#if defined(ATP_TSAN)
      // Fence-free variant: a seq_cst RMW on the epoch orders the data loads
      // above before the recheck and is fully TSan-instrumented.
      if (epoch_.fetch_add(0, std::memory_order_seq_cst) == e1) return result;
#else
      std::atomic_thread_fence(std::memory_order_acquire);
      if (epoch_.load(std::memory_order_acquire) == e1) return result;
#endif
    }
  }

  /// Lookup in the id's shard (caller holds that shard's mu).
  [[nodiscard]] static Slot* find(Shard& sh, TxnId id) {
    auto it = sh.live.find(id);
    return it == sh.live.end() ? nullptr : &it->second;
  }
  [[nodiscard]] static const Slot* find(const Shard& sh, TxnId id) {
    auto it = sh.live.find(id);
    return it == sh.live.end() ? nullptr : &it->second;
  }

  [[nodiscard]] static Entry entry_of(const Slot& s);

  std::array<Shard, kShards> shards_;

  // Serializes all counter/limit mutations.  Lock order: the ET's shard mu
  // (shared) then charge_mu_.
  mutable OrderedMutex<LockRank::kTxnCharge> charge_mu_;  ///< rank kTxnCharge: a shard's struct mu (shared) then charge_mu_
  /// Seqlock epoch; odd = write in flight.  Mutable: the TSan-friendly
  /// read path re-checks it with a (value-preserving) RMW from const reads.
  mutable std::atomic<std::uint64_t> epoch_{0};

  std::atomic<TxnId> next_id_{1};
  Tracer* tracer_ = nullptr;
  SiteId site_ = 0;

  /// Charge telemetry.  Mutations happen under charge_mu_, so the relaxed
  /// atomics are only for lock-free reads by charge_stats().
  struct ChargeCounters {
    std::atomic<std::uint64_t> charges_ok{0};
    std::atomic<std::uint64_t> rejected_import{0};
    std::atomic<double> import_charged{0};
  };
  ChargeCounters charge_counters_;
};

}  // namespace atp
