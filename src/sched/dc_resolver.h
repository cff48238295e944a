// Two-phase-locking divergence control (2PL-DC), after Wu, Yu & Pu (ICDE'92)
// as summarized in Section 1.1 of the paper -- reformulated over the
// multi-version store.
//
// Update ETs run plain strict 2PL among themselves (they stay serializable,
// Section 1.1).  Query ETs never enter the lock manager at all: each query
// pins a snapshot sequence at begin and resolves every read through
// `read_fresh`, which charges import fuzziness from *version timestamps*:
//
//   * the newest committed version equals the snapshot version -> the read
//     is consistent, nothing is charged;
//   * the key moved since the snapshot -> the divergence the query would
//     observe by reading fresh is |v_latest - v_snapshot|; if the query's
//     import budget absorbs it (atomic check-and-charge in the registry,
//     recorded as a FuzzImport ledger event), the query reads the freshest
//     version; otherwise it falls back to its snapshot version, staying
//     consistent for free.
//
// Per-key charges are monotone (a re-read charges only the *increase* in
// divergence), so the total imported fuzziness bounds the distance between
// the state the query observed and the serializable snapshot state -- the
// epsilon-serializability contract the ESR certifier replays.  A query can
// never observe uncommitted state, so nothing is decided in the lock table:
// updates never export and never block on query budgets.
#pragma once

#include <unordered_map>

#include "storage/store.h"
#include "txn/registry.h"

namespace atp {

class DcResolver {
 public:
  DcResolver(EtRegistry& registry, Store& store)
      : registry_(registry), store_(store) {}

  /// Freshest-within-budget read for a DC query ET pinned at `snapshot`.
  /// `charged` is the transaction's per-key divergence ledger (owned by the
  /// Txn, single-threaded); re-reads charge only increases.  Returns the
  /// version actually observed (the trace records its sequence).  Errors
  /// pass through from the store (kAborted = snapshot too old: retry the
  /// ET).
  [[nodiscard]] Result<VersionRead> read_fresh(
      TxnId query_et, Key key, std::uint64_t snapshot,
      std::unordered_map<Key, Value>& charged);

 private:
  EtRegistry& registry_;
  Store& store_;
};

}  // namespace atp
