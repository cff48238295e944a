#include "txn/registry.h"

#include <cassert>
#include <cmath>

namespace atp {

// relaxed-ok(begin): every relaxed access in this file is one of three
// audited patterns.  (1) Slot budget fields (imported and the import
// limit) are mutated only under charge_mu_ inside a write_begin() /
// write_end() epoch window -- both acq_rel RMWs, so the odd-epoch store
// cannot sink below them nor the data stores hoist above; lock-free readers
// of a (counter, limit) pair go through epoch_consistent(), which pairs an
// acquire fence with an even-epoch recheck, so a torn read is detected and
// retried, never used.  A reader of the counter alone (fuzziness_of) needs
// no epoch: one atomic load cannot tear.
// (2) ChargeCounters and per-shard Retired telemetry cells are mutated under
// charge_mu_ or a shard's exclusive mu and read as statistics where torn
// totals are tolerated.  (3) next_id_ tickets need the RMW's atomicity only
// (uniqueness, not ordering).

namespace {
/// Relaxed add on an atomic<double> telemetry cell (mutations are already
/// serialized by the caller's lock; the atomic is for lock-free readers).
inline void stat_add(std::atomic<double>& cell, double v) {
  cell.fetch_add(v, std::memory_order_relaxed);
}
inline void stat_inc(std::atomic<std::uint64_t>& cell) {
  cell.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TxnId EtRegistry::begin(TxnKind kind, EpsilonSpec spec, TxnId parent) {
  const TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Shard& sh = shard_of(id);
  std::unique_lock lock(sh.mu);
  Slot& slot = sh.live.try_emplace(id).first->second;
  slot.id = id;
  slot.kind = kind;
  slot.parent = parent;
  slot.import_limit.store(spec.import_limit, std::memory_order_relaxed);
  return id;
}

bool EtRegistry::try_self_import(TxnId query_et, Value amount) {
  if (amount < 0) return false;
  Shard& sh = shard_of(query_et);
  std::shared_lock slock(sh.mu);
  Slot* q = find(sh, query_et);
  if (!q) return false;
  std::lock_guard clock(charge_mu_);
  const Value imp = q->imported.load(std::memory_order_relaxed);
  const Value lim = q->import_limit.load(std::memory_order_relaxed);
  if (imp + amount > lim) {
    stat_inc(charge_counters_.rejected_import);
    return false;
  }
  write_begin();
  q->imported.store(imp + amount, std::memory_order_relaxed);
  write_end();
  stat_inc(charge_counters_.charges_ok);
  stat_add(charge_counters_.import_charged, amount);
  Tracer::emit(tracer_, TraceKind::FuzzImport, site_, query_et, 0, amount,
               lim, 0, kInvalidTxn);
  return true;
}

EtRegistry::Entry EtRegistry::entry_of(const Slot& s) {
  Entry e;
  e.id = s.id;
  e.kind = s.kind;
  e.parent = s.parent;
  e.spec.import_limit = s.import_limit.load(std::memory_order_relaxed);
  e.imported = s.imported.load(std::memory_order_relaxed);
  return e;
}

std::optional<EtRegistry::Entry> EtRegistry::get(TxnId id) const {
  const Shard& sh = shard_of(id);
  std::shared_lock lock(sh.mu);
  const Slot* s = find(sh, id);
  if (!s) return std::nullopt;
  return epoch_consistent([&] { return entry_of(*s); });
}

Value EtRegistry::fuzziness_of(TxnId id) const {
  const Shard& sh = shard_of(id);
  std::shared_lock lock(sh.mu);
  const Slot* s = find(sh, id);
  if (!s) return 0;
  return s->imported.load(std::memory_order_relaxed);
}

void EtRegistry::set_spec(TxnId id, EpsilonSpec spec) {
  Shard& sh = shard_of(id);
  std::shared_lock slock(sh.mu);
  Slot* s = find(sh, id);
  if (!s) return;
  std::lock_guard clock(charge_mu_);
  write_begin();
  s->import_limit.store(spec.import_limit, std::memory_order_relaxed);
  write_end();
}

Value EtRegistry::end_commit(TxnId id) {
  Value z = 0;
  TxnId parent = kInvalidTxn;
  {
    Shard& sh = shard_of(id);
    std::unique_lock lock(sh.mu);
    auto it = sh.live.find(id);
    if (it == sh.live.end()) return 0;
    // Exclusive shard lock: no charge on this ET holds the shared side, so
    // the counters are quiescent and plain relaxed loads are final values.
    const Slot& s = it->second;
    z = s.imported.load(std::memory_order_relaxed);
    parent = s.parent;
    // Retirement roll-up for the obs layer: fold a query's budget
    // consumption into the shard's telemetry (its own slot is about to go).
    // Infinite limits are tallied apart so utilization ratios stay
    // meaningful.  An update has no budget and is only counted.
    Retired& r = sh.retired;
    if (s.kind == TxnKind::Query) {
      const Value lim = s.import_limit.load(std::memory_order_relaxed);
      stat_inc(r.query_count);
      if (std::isinf(lim)) {
        stat_inc(r.query_unlimited);
      } else {
        stat_add(r.query_used, z);
        stat_add(r.query_limit, lim);
      }
    } else {
      stat_inc(r.update_count);
    }
    sh.live.erase(it);
  }
  // The parent's accumulator lives in the parent id's shard; the piece's
  // shard is released first (one shard at a time).
  if (parent != kInvalidTxn) {
    Shard& ps = shard_of(parent);
    std::unique_lock lock(ps.mu);
    ps.parent_z[parent] += z;
  }
  return z;
}

void EtRegistry::end_abort(TxnId id) {
  Shard& sh = shard_of(id);
  std::unique_lock lock(sh.mu);
  sh.live.erase(id);
}

Value EtRegistry::parent_fuzziness(TxnId parent) const {
  const Shard& sh = shard_of(parent);
  std::shared_lock lock(sh.mu);
  auto it = sh.parent_z.find(parent);
  return it == sh.parent_z.end() ? 0 : it->second;
}

void EtRegistry::forget_parent(TxnId parent) {
  Shard& sh = shard_of(parent);
  std::unique_lock lock(sh.mu);
  sh.parent_z.erase(parent);
}

std::size_t EtRegistry::live_count() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::shared_lock lock(sh.mu);
    n += sh.live.size();
  }
  return n;
}

std::vector<EtRegistry::Entry> EtRegistry::snapshot_all() const {
  std::vector<Entry> out;
  for (const Shard& sh : shards_) {
    std::shared_lock lock(sh.mu);
    const std::size_t mark = out.size();
    epoch_consistent([&] {
      out.resize(mark);  // drop a torn attempt's entries
      for (const auto& kv : sh.live) out.push_back(entry_of(kv.second));
      return true;
    });
  }
  return out;
}

EtRegistry::ChargeStats EtRegistry::charge_stats() const {
  const ChargeCounters& c = charge_counters_;
  ChargeStats s;
  s.charges_ok = c.charges_ok.load(std::memory_order_relaxed);
  s.rejected_import = c.rejected_import.load(std::memory_order_relaxed);
  s.import_charged = c.import_charged.load(std::memory_order_relaxed);
  for (const Shard& sh : shards_) {
    const Retired& r = sh.retired;
    s.retired_query_count += r.query_count.load(std::memory_order_relaxed);
    s.retired_query_unlimited +=
        r.query_unlimited.load(std::memory_order_relaxed);
    s.retired_query_used += r.query_used.load(std::memory_order_relaxed);
    s.retired_query_limit += r.query_limit.load(std::memory_order_relaxed);
    s.retired_update_count += r.update_count.load(std::memory_order_relaxed);
  }
  return s;
}

// relaxed-ok(end)

}  // namespace atp
