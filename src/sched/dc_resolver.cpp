#include "sched/dc_resolver.h"

namespace atp {

Result<VersionRead> DcResolver::read_fresh(
    TxnId query_et, Key key, std::uint64_t snapshot,
    std::unordered_map<Key, Value>& charged) {
  const Result<SnapshotAndLatest> read =
      store_.read_snapshot_and_latest(key, snapshot);
  if (!read.ok()) return read.status();
  const auto& [snap, latest] = read.value();
  if (latest.seq <= snap.seq) return snap;  // nothing newer: consistent for free
  // The key moved since the snapshot.  Import the divergence (only the
  // increase over what this ET already paid for the key) to read fresh.
  const Value delta = distance(latest.value, snap.value);
  Value& paid = charged[key];
  if (delta <= paid) return latest;
  if (registry_.try_self_import(query_et, delta - paid)) {
    paid = delta;
    return latest;
  }
  // Budget exhausted: stay on the snapshot version, consistent and free.
  return snap;
}

}  // namespace atp
