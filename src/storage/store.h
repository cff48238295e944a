// In-memory multi-version record store over the canonical metric space.
//
// Each cell keeps a fixed-depth ring of committed *versions*, every version
// stamped with the global commit sequence that published it, plus at most one
// *dirty* value owned by an in-flight update transaction.  Two-phase-locking
// guarantees at most one uncommitted writer per key (update ETs remain
// serializable among themselves under both CC and DC -- Section 1.1), so one
// dirty slot still suffices; what the version ring adds is a lock-free
// *snapshot read path*: a query ET acquires a snapshot sequence, reads the
// newest version at or below it with a seqlock-validated scan, and never
// touches the lock manager at all.
//
// Every operation makes one shared lookup in the key map and takes at most
// one dirty-slot stripe: an update's read-modify-write (stage_add), its
// locked read (read_for_update) and a divergence-control query's paired
// snapshot/newest read (read_snapshot_and_latest) each resolve the cell
// once and do all their work on it.
//
// Commit publication and snapshot lifetime are serialized by one commit
// mutex (rank kStoreCommit): commit_publish allocates the next commit
// sequence, moves every staged dirty value into its key's ring, and prunes
// versions no live snapshot can reach (epoch GC -- a version is reclaimable
// once its *successor* is visible to the oldest live snapshot).  The ring
// overwrites its oldest entry when full regardless; a reader whose snapshot
// predates the oldest retained version gets kAborted ("snapshot too old")
// and retries with a fresh snapshot.
//
// Divergence-control reads charge fuzziness from version timestamps: the
// distance between the freshest version and the snapshot version of a key is
// exactly the inconsistency a query imports by reading fresh (see
// DcResolver).  `crash()` models a site failure: all dirty state is lost,
// committed state survives -- this is what the recoverable-queue layer
// relies on.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "common/types.h"

#include "common/ordered_lock.h"

namespace atp {

/// One committed version observed by a read: its value and the commit
/// sequence that published it (0 for bulk-loaded primordial state).
struct VersionRead {
  Value value = 0;
  std::uint64_t seq = 0;
};

/// What an update ET observes on a key it holds locked, with the version
/// stamp its trace Read carries: the committed version's seq + 1, or
/// Store::kOwnWrite when the value is the transaction's own staged write.
struct OwnedRead {
  Value value = 0;
  std::uint64_t trace_version = 0;
};

/// A divergence-control read's two versions of one key: the newest at the
/// query's snapshot and the newest overall (latest.seq >= snap.seq).
struct SnapshotAndLatest {
  VersionRead snap;
  VersionRead latest;
};

/// Lifetime counters for the obs layer (mvcc.* instruments).  Monotonic;
/// read lock-free.
struct MvccStats {
  std::uint64_t commit_seq = 0;        ///< last allocated commit sequence
  std::uint64_t versions_published = 0;
  std::uint64_t gc_reclaimed = 0;      ///< versions pruned by epoch GC
  std::uint64_t snapshot_too_old = 0;  ///< reads refused past the ring tail
  std::uint64_t snapshots_acquired = 0;
  std::uint64_t live_snapshots = 0;    ///< currently registered snapshots
};

class Store {
 public:
  /// Default `under_lock` of snapshot_acquire and commit_publish.
  struct NoHook {
    void operator()(std::uint64_t) const noexcept {}
  };

  /// OwnedRead::trace_version of a read that saw the reader's own staged
  /// write rather than a committed version.
  static constexpr std::uint64_t kOwnWrite = ~std::uint64_t{0};

  /// Versions retained per key.  Deep enough that epoch GC (not ring
  /// overflow) is the common reclaim path under realistic query lifetimes.
  static constexpr std::size_t kVersionDepth = 12;

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Create or overwrite a key with a committed value (bulk load, no txn).
  /// Resets the key's version chain to that single value.  Fails with
  /// FailedPrecondition over a cell with an in-flight writer: silently
  /// resetting the dirty owner would orphan that transaction (its later
  /// commit_key would no-op and the update would vanish).
  Status load(Key key, Value value);

  /// Last committed value (the newest version).
  [[nodiscard]] Result<Value> read_committed(Key key) const;

  /// Newest committed version together with its commit sequence.  Lock-free
  /// against concurrent publication.
  [[nodiscard]] Result<VersionRead> read_latest_versioned(Key key) const;

  /// Newest version with seq <= `snapshot`, seqlock-validated and lock-free.
  /// kAborted when the ring no longer retains a version that old ("snapshot
  /// too old" -- the caller retries on a fresh snapshot); kNotFound when the
  /// key did not exist at the snapshot.
  [[nodiscard]] Result<VersionRead> read_snapshot(Key key,
                                                  std::uint64_t snapshot) const;

  /// One lookup serving both reads a divergence-control query needs: the
  /// newest version at `snapshot` (errors exactly as read_snapshot) and the
  /// newest committed version, read after it.
  [[nodiscard]] Result<SnapshotAndLatest> read_snapshot_and_latest(
      Key key, std::uint64_t snapshot) const;

  /// The owner's view of a key `txn` holds locked: its own staged value
  /// (kOwnWrite) if it has one, else the newest committed version.  Another
  /// transaction's dirty value is never returned.  kNotFound when the key
  /// holds neither.
  [[nodiscard]] Result<OwnedRead> read_for_update(TxnId txn, Key key) const;

  /// Read-modify-write for an update holding X on `key`: reads the owner's
  /// view (as read_for_update) and stages view + `delta` as txn's dirty
  /// value under the same stripe lock; returns the view it added to.  Fails,
  /// leaving the cell untouched, with FailedPrecondition if another
  /// transaction's dirty value is present and with kNotFound if the key has
  /// no value to add to.  Never creates a cell.
  [[nodiscard]] Result<OwnedRead> stage_add(TxnId txn, Key key, Value delta);

  /// Stage an uncommitted write.  Fails with FailedPrecondition if another
  /// transaction's dirty value is present (X-locking above this layer should
  /// make that impossible).  Creates the cell (born at the current commit
  /// sequence, value 0) if absent.
  Status write(TxnId txn, Key key, Value value);

  /// Register a live snapshot at the current commit frontier and return its
  /// sequence.  Epoch GC never reclaims a version still reachable from a
  /// registered snapshot.  `under_lock(snap)` runs inside the commit mutex
  /// -- callers use it to trace-order the acquisition consistently with
  /// commit publication.  A template, not a std::function: the begin path
  /// passes a capturing lambda on every query ET.  Pair with
  /// snapshot_release.
  template <typename UnderLock = NoHook>
  std::uint64_t snapshot_acquire(UnderLock&& under_lock = {}) {
    std::lock_guard commit_lock(commit_mu_);
    const std::uint64_t snap = last_commit_seq_;
    live_snapshots_.insert(snap);
    stats_snapshots_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
    under_lock(snap);
    return snap;
  }
  void snapshot_release(std::uint64_t snapshot);

  /// Promote every staged dirty value of `txn` on `keys` to a new version,
  /// all stamped with one freshly allocated commit sequence.  Runs epoch GC
  /// on the touched cells and invokes `under_lock(seq)` inside the commit
  /// mutex (trace emission: the event order matches publication order).
  /// Returns the commit sequence (0 when `keys` is empty).
  template <typename KeyRange, typename UnderLock = NoHook>
  std::uint64_t commit_publish(TxnId txn, const KeyRange& keys,
                               UnderLock&& under_lock = {}) {
    std::lock_guard commit_lock(commit_mu_);
    std::uint64_t seq = 0;
    for (const Key k : keys) {
      if (seq == 0) seq = ++last_commit_seq_;
      publish_key_locked(txn, k, seq);
    }
    under_lock(seq);
    return seq;
  }

  /// Single-key commit (compatibility wrapper): allocates its own sequence.
  void commit_key(TxnId txn, Key key);

  /// Discard txn's dirty value on `key`.  No-op if absent or foreign.
  void abort_key(TxnId txn, Key key);

  /// Consistent point-in-time copy of all committed values (serial oracles).
  [[nodiscard]] std::unordered_map<Key, Value> snapshot_committed() const;

  /// Simulated site failure: every dirty value is lost, except those of
  /// `survivors` (prepared 2PC participants, whose staged state a real
  /// system has force-logged before voting).  Committed versions survive.
  void crash(const std::unordered_set<TxnId>* survivors = nullptr);

  /// Drop everything -- the total-loss crash model used when a write-ahead
  /// log is the source of truth (wal/recovery rebuilds the contents).  The
  /// commit sequence keeps climbing so stale snapshots can never alias
  /// post-recovery versions.
  void clear();

  [[nodiscard]] std::size_t size() const;

  /// Current commit frontier (sequence of the newest published version).
  [[nodiscard]] std::uint64_t commit_seq() const {
    return stats_commit_seq_.load(std::memory_order_acquire);
  }

  [[nodiscard]] MvccStats mvcc_stats() const;

  /// Versions currently retained for `key` (tests: depth cap, GC reclaim).
  [[nodiscard]] std::size_t versions_retained(Key key) const;

 private:
  /// Seq sentinels: a slot is empty until first published; kWriting marks a
  /// slot mid-publication so the seqlock scan skips/retries it.
  static constexpr std::uint64_t kSeqEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kSeqWriting = ~std::uint64_t{0} - 1;

  /// One version.  Published under commit_mu_ (single writer at a time), read
  /// lock-free: seq is stored kWriting -> value/writer -> final seq, all
  /// release; a reader's acquire loads of (seq, value, seq) detect torn
  /// slots and retry.
  struct VersionSlot {
    std::atomic<std::uint64_t> seq{kSeqEmpty};
    std::atomic<Value> value{0};
  };

  struct Cell {
    VersionSlot versions[kVersionDepth];
    std::atomic<std::uint32_t> head{0};  ///< index of the newest version
    std::atomic<std::uint64_t> pushes{0};  ///< publications ever (scan guard)
    std::uint64_t born_seq = 0;  ///< commit frontier when the cell appeared
    std::optional<TxnId> dirty_owner;    ///< under the stripe mutex
    Value dirty = 0;                     ///< under the stripe mutex
  };

  // map_mu_ (shared_mutex) guards map *structure*; per-stripe mutexes guard
  // dirty-slot contents.  Version slots are atomics published under
  // commit_mu_ and read with seqlock validation (no lock on the read path
  // beyond the shared map lookup).
  static constexpr std::size_t kStripes = 64;
  [[nodiscard]] OrderedMutex<LockRank::kStoreStripe>& stripe_for(Key key) const {
    return stripes_[key % kStripes];
  }

  /// Append one version to `cell` (commit_mu_ held).
  void push_version_locked(Cell& cell, std::uint64_t seq, Value value);
  /// Move txn's staged dirty value on `key` into a version (commit_mu_ held).
  void publish_key_locked(TxnId txn, Key key, std::uint64_t seq);
  /// Epoch GC over one cell: drop versions whose successor is already
  /// visible to every registered snapshot (commit_mu_ held).
  void gc_cell_locked(Cell& cell);
  [[nodiscard]] std::uint64_t min_live_snapshot_locked() const;

  /// Newest committed version of `cell`, lock-free; kNotFound when the cell
  /// holds none.  Caller holds map_mu_ (shared).
  [[nodiscard]] static Result<VersionRead> latest_of(const Cell& cell, Key key);
  /// Newest version of `cell` at `snapshot` (see read_snapshot).  Caller
  /// holds map_mu_ (shared).
  [[nodiscard]] Result<VersionRead> snapshot_of(const Cell& cell, Key key,
                                                std::uint64_t snapshot) const;
  /// The owner's view of `cell` (see read_for_update).  Caller holds map_mu_
  /// (shared) and the cell's stripe.
  [[nodiscard]] static Result<OwnedRead> owned_view_locked(const Cell& cell,
                                                           TxnId txn, Key key);

  /// Seqlock-validated read of one slot; nullopt when torn/empty/writing.
  [[nodiscard]] static std::optional<VersionRead> try_read_slot(
      const VersionSlot& slot);

  // Commit publication + snapshot registry.  Ordered strictly before the map
  // and stripe locks: commit_publish holds it across the per-key lookups.
  mutable OrderedMutex<LockRank::kStoreCommit> commit_mu_;  ///< rank kStoreCommit: seq allocation, publication, snapshot registry
  std::uint64_t last_commit_seq_ = 0;     // under commit_mu_
  std::multiset<std::uint64_t> live_snapshots_;  // under commit_mu_

  mutable OrderedSharedMutex<LockRank::kStoreMap> map_mu_;  ///< rank kStoreMap: shared for lookups, exclusive for crash/snapshot
  mutable OrderedMutex<LockRank::kStoreStripe> stripes_[kStripes];  ///< rank kStoreStripe: under a held map lock
  std::unordered_map<Key, Cell> cells_;

  // mvcc.* counters (mutated under commit_mu_; read lock-free by obs).
  std::atomic<std::uint64_t> stats_commit_seq_{0};
  std::atomic<std::uint64_t> stats_versions_{0};
  std::atomic<std::uint64_t> stats_gc_reclaimed_{0};
  mutable std::atomic<std::uint64_t> stats_too_old_{0};
  std::atomic<std::uint64_t> stats_snapshots_{0};
};

}  // namespace atp
