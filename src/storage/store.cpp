#include "storage/store.h"

namespace atp {

// ---------------------------------------------------------------------------
// Lock-free slot reads
//
// Publication protocol (single publisher at a time, under commit_mu_):
//   seq.store(kSeqWriting, release)
//   value.store(v, release)
//   seq.store(final_seq, release)
// A reader loads seq / value / seq with acquire ordering; equal non-sentinel
// seqs on both sides prove the value load saw that version whole (the second
// seq load is ordered after the value load, and the publisher's first store
// to seq precedes any new value).

std::optional<VersionRead> Store::try_read_slot(const VersionSlot& slot) {
  const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == kSeqEmpty || s1 == kSeqWriting) return std::nullopt;
  const Value v = slot.value.load(std::memory_order_acquire);
  const std::uint64_t s2 = slot.seq.load(std::memory_order_acquire);
  if (s1 != s2) return std::nullopt;  // torn: publication in flight
  return VersionRead{v, s1};
}

void Store::push_version_locked(Cell& cell, std::uint64_t seq, Value value) {
  const std::uint32_t head =  // relaxed-ok: single publisher under the cell stripe owns head
      cell.head.load(std::memory_order_relaxed);
  const std::uint32_t next = (head + 1) % kVersionDepth;
  VersionSlot& slot = cell.versions[next];
  // relaxed-ok: stat decision only; the slot's own stores below order it
  if (slot.seq.load(std::memory_order_relaxed) != kSeqEmpty) {
    // Ring full: the oldest version is overwritten.  A snapshot that still
    // needed it will observe "too old" and retry -- epoch GC keeps this rare
    // by pruning only what no registered snapshot can reach.
    stats_gc_reclaimed_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
  }
  slot.seq.store(kSeqWriting, std::memory_order_release);
  slot.value.store(value, std::memory_order_release);
  slot.seq.store(seq, std::memory_order_release);
  cell.head.store(next, std::memory_order_release);
  cell.pushes.fetch_add(1, std::memory_order_release);
  stats_versions_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
}

std::uint64_t Store::min_live_snapshot_locked() const {
  return live_snapshots_.empty() ? last_commit_seq_ : *live_snapshots_.begin();
}

void Store::gc_cell_locked(Cell& cell) {
  // A version is unreachable once its *successor* is visible to the oldest
  // registered snapshot: every snapshot read then resolves at the successor
  // or newer.  Walk the ring oldest -> newest and empty such slots.
  const std::uint64_t floor = min_live_snapshot_locked();
  // relaxed-ok(begin): runs under the cell stripe, the only writer context;
  // reclamation is published by the kSeqEmpty release store at the end.
  const std::uint32_t head = cell.head.load(std::memory_order_relaxed);
  std::uint64_t successor_seq = kSeqEmpty;  // seq of the next-newer version
  for (std::size_t i = 1; i < kVersionDepth; ++i) {
    // Positions head+1 .. head+depth-1 are oldest -> second-newest; walk
    // newest -> oldest so each slot sees its successor's seq.
    const std::size_t idx = (head + kVersionDepth - i) % kVersionDepth;
    VersionSlot& slot = cell.versions[idx];
    const std::uint64_t s = slot.seq.load(std::memory_order_relaxed);
    if (s == kSeqEmpty || s == kSeqWriting) continue;
    const std::uint64_t succ =
        successor_seq == kSeqEmpty
            ? cell.versions[head].seq.load(std::memory_order_relaxed)
            : successor_seq;
    successor_seq = s;
    if (succ != kSeqEmpty && succ != kSeqWriting && succ <= floor) {
      slot.seq.store(kSeqEmpty, std::memory_order_release);
      stats_gc_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // relaxed-ok(end)
}

void Store::publish_key_locked(TxnId txn, Key key, std::uint64_t seq) {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return;
  Cell& cell = it->second;
  std::lock_guard cell_lock(stripe_for(key));
  if (cell.dirty_owner != txn) return;
  const Value value = cell.dirty;
  cell.dirty_owner.reset();
  push_version_locked(cell, seq, value);
  gc_cell_locked(cell);
  stats_commit_seq_.store(seq, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Public API

Status Store::load(Key key, Value value) {
  std::lock_guard commit_lock(commit_mu_);
  std::unique_lock map_lock(map_mu_);
  Cell& cell = cells_[key];
  if (cell.dirty_owner.has_value()) {
    // Silently resetting the owner would orphan the in-flight writer: its
    // commit_key would no-op and the update would vanish.
    return Status::FailedPrecondition(
        "bulk-load over key " + std::to_string(key) + " with dirty writer " +
        std::to_string(*cell.dirty_owner));
  }
  // Reset the chain to this single committed value at the current frontier.
  for (VersionSlot& s : cell.versions) {
    s.seq.store(kSeqEmpty, std::memory_order_release);
  }
  cell.head.store(0, std::memory_order_release);
  cell.born_seq = last_commit_seq_;
  push_version_locked(cell, last_commit_seq_, value);
  return Status::Ok();
}

Result<Value> Store::read_committed(Key key) const {
  Result<VersionRead> r = read_latest_versioned(key);
  if (!r.ok()) return r.status();
  return r.value().value;
}

Result<VersionRead> Store::latest_of(const Cell& cell, Key key) {
  for (;;) {
    const std::uint32_t head = cell.head.load(std::memory_order_acquire);
    if (auto r = try_read_slot(cell.versions[head])) return *r;
    // Torn head is only transient (head advances after the slot completes);
    // an empty head means the cell exists but holds no version yet.
    if (cell.versions[head].seq.load(std::memory_order_acquire) == kSeqEmpty &&
        cell.head.load(std::memory_order_acquire) == head) {
      return Status::NotFound("key " + std::to_string(key));
    }
  }
}

Result<VersionRead> Store::snapshot_of(const Cell& cell, Key key,
                                       std::uint64_t snapshot) const {
  // Bounded validated scan: if publications land while we walk the ring, a
  // slot we already passed may have held the true newest-at-snapshot version,
  // so the result is only accepted when the push counter held still.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t pushes = cell.pushes.load(std::memory_order_acquire);
    const std::uint32_t head = cell.head.load(std::memory_order_acquire);
    std::optional<VersionRead> found;
    bool saw_version = false;
    for (std::size_t i = 0; i < kVersionDepth; ++i) {
      const std::size_t idx = (head + kVersionDepth - i) % kVersionDepth;
      const auto r = try_read_slot(cell.versions[idx]);
      if (!r) continue;
      saw_version = true;
      if (r->seq <= snapshot) {
        found = *r;
        break;
      }
    }
    if (cell.pushes.load(std::memory_order_acquire) != pushes) continue;
    if (found) return *found;
    if (!saw_version || snapshot < cell.born_seq) {
      return Status::NotFound("key " + std::to_string(key) +
                              " absent at snapshot " +
                              std::to_string(snapshot));
    }
    stats_too_old_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
    return Status::Aborted("snapshot " + std::to_string(snapshot) +
                           " too old for key " + std::to_string(key));
  }
  stats_too_old_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
  return Status::Aborted("snapshot scan starved on key " +
                         std::to_string(key));
}

Result<OwnedRead> Store::owned_view_locked(const Cell& cell, TxnId txn,
                                           Key key) {
  if (cell.dirty_owner == txn) return OwnedRead{cell.dirty, kOwnWrite};
  const Result<VersionRead> v = latest_of(cell, key);
  if (!v.ok()) return v.status();
  return OwnedRead{v.value().value, v.value().seq + 1};
}

Result<VersionRead> Store::read_latest_versioned(Key key) const {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return Status::NotFound("key " + std::to_string(key));
  return latest_of(it->second, key);
}

Result<VersionRead> Store::read_snapshot(Key key,
                                         std::uint64_t snapshot) const {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return Status::NotFound("key " + std::to_string(key));
  return snapshot_of(it->second, key, snapshot);
}

Result<SnapshotAndLatest> Store::read_snapshot_and_latest(
    Key key, std::uint64_t snapshot) const {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return Status::NotFound("key " + std::to_string(key));
  const Result<VersionRead> snap = snapshot_of(it->second, key, snapshot);
  if (!snap.ok()) return snap.status();
  // The cell held a version at the snapshot, so it holds a newest one too;
  // versions only climb, so latest.seq >= snap.seq.
  return SnapshotAndLatest{snap.value(),
                           latest_of(it->second, key).value_or(snap.value())};
}

Result<OwnedRead> Store::read_for_update(TxnId txn, Key key) const {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return Status::NotFound("key " + std::to_string(key));
  std::lock_guard cell_lock(stripe_for(key));
  return owned_view_locked(it->second, txn, key);
}

Result<OwnedRead> Store::stage_add(TxnId txn, Key key, Value delta) {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return Status::NotFound("key " + std::to_string(key));
  std::lock_guard cell_lock(stripe_for(key));
  Cell& c = it->second;
  if (c.dirty_owner && *c.dirty_owner != txn) {
    return Status::FailedPrecondition("dirty slot owned by txn " +
                                      std::to_string(*c.dirty_owner));
  }
  const Result<OwnedRead> base = owned_view_locked(c, txn, key);
  if (!base.ok()) return base;
  c.dirty_owner = txn;
  c.dirty = base.value().value + delta;
  return base;
}

Status Store::write(TxnId txn, Key key, Value value) {
  {
    std::shared_lock map_lock(map_mu_);
    auto it = cells_.find(key);
    if (it != cells_.end()) {
      std::lock_guard cell_lock(stripe_for(key));
      Cell& c = it->second;
      if (c.dirty_owner && *c.dirty_owner != txn) {
        return Status::FailedPrecondition("dirty slot owned by txn " +
                                          std::to_string(*c.dirty_owner));
      }
      c.dirty_owner = txn;
      c.dirty = value;
      return Status::Ok();
    }
  }
  // Slow path: create the cell (born at the current frontier, no versions
  // until the writer commits).
  std::lock_guard commit_lock(commit_mu_);
  std::unique_lock map_lock(map_mu_);
  Cell& c = cells_[key];
  if (c.dirty_owner && *c.dirty_owner != txn) {
    return Status::FailedPrecondition("dirty slot owned by txn " +
                                      std::to_string(*c.dirty_owner));
  }
  // relaxed-ok: under commit_mu_ + exclusive map_mu_, no concurrent publisher
  if (c.pushes.load(std::memory_order_relaxed) == 0) {
    c.born_seq = last_commit_seq_;
  }
  c.dirty_owner = txn;
  c.dirty = value;
  return Status::Ok();
}

void Store::snapshot_release(std::uint64_t snapshot) {
  std::lock_guard commit_lock(commit_mu_);
  auto it = live_snapshots_.find(snapshot);
  if (it != live_snapshots_.end()) live_snapshots_.erase(it);
}

void Store::commit_key(TxnId txn, Key key) {
  const Key keys[] = {key};
  (void)commit_publish(txn, keys);
}

void Store::abort_key(TxnId txn, Key key) {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return;
  std::lock_guard cell_lock(stripe_for(key));
  Cell& c = it->second;
  if (c.dirty_owner == txn) c.dirty_owner.reset();
}

std::unordered_map<Key, Value> Store::snapshot_committed() const {
  std::unique_lock map_lock(map_mu_);  // exclusive: freeze structure + cells
  std::unordered_map<Key, Value> snap;
  snap.reserve(cells_.size());
  for (const auto& [k, c] : cells_) {
    const std::uint32_t head = c.head.load(std::memory_order_acquire);
    if (const auto r = try_read_slot(c.versions[head])) snap.emplace(k, r->value);
  }
  return snap;
}

void Store::crash(const std::unordered_set<TxnId>* survivors) {
  std::unique_lock map_lock(map_mu_);
  for (auto& [k, c] : cells_) {
    if (c.dirty_owner && survivors && survivors->count(*c.dirty_owner)) {
      continue;
    }
    c.dirty_owner.reset();
  }
}

void Store::clear() {
  std::lock_guard commit_lock(commit_mu_);
  std::unique_lock map_lock(map_mu_);
  cells_.clear();
  // last_commit_seq_ keeps climbing: snapshots acquired before the loss can
  // never alias post-recovery versions.
}

std::size_t Store::size() const {
  std::shared_lock map_lock(map_mu_);
  return cells_.size();
}

std::size_t Store::versions_retained(Key key) const {
  std::shared_lock map_lock(map_mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return 0;
  std::size_t n = 0;
  for (const VersionSlot& s : it->second.versions) {
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq != kSeqEmpty && seq != kSeqWriting) ++n;
  }
  return n;
}

MvccStats Store::mvcc_stats() const {
  MvccStats s;
  s.commit_seq = stats_commit_seq_.load(std::memory_order_acquire);
  // relaxed-ok(begin): monotone counters for metrics; no ordering needed
  s.versions_published = stats_versions_.load(std::memory_order_relaxed);
  s.gc_reclaimed = stats_gc_reclaimed_.load(std::memory_order_relaxed);
  s.snapshot_too_old = stats_too_old_.load(std::memory_order_relaxed);
  s.snapshots_acquired = stats_snapshots_.load(std::memory_order_relaxed);
  // relaxed-ok(end)
  {
    std::lock_guard commit_lock(commit_mu_);
    s.live_snapshots = live_snapshots_.size();
  }
  return s;
}

}  // namespace atp
