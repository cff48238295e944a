#include "sched/dc_resolver.h"

namespace atp {

Result<VersionRead> DcResolver::read_fresh(
    TxnId query_et, Key key, std::uint64_t snapshot,
    std::unordered_map<Key, Value>& charged) {
  const Result<VersionRead> snap = store_.read_snapshot(key, snapshot);
  if (!snap.ok()) return snap.status();
  const Result<VersionRead> latest = store_.read_latest_versioned(key);
  if (!latest.ok() || latest.value().seq <= snap.value().seq) {
    return snap.value();  // nothing newer: consistent for free
  }
  // The key moved since the snapshot.  Import the divergence (only the
  // increase over what this ET already paid for the key) to read fresh.
  const Value delta = distance(latest.value().value, snap.value().value);
  Value& paid = charged[key];
  if (delta <= paid) return latest.value();
  if (registry_.try_self_import(query_et, delta - paid)) {
    paid = delta;
    return latest.value();
  }
  // Budget exhausted: stay on the snapshot version, consistent and free.
  return snap.value();
}

}  // namespace atp
