// Log-driven recovery (redo-only, no-steal discipline).
//
// Analysis + redo in one pass over the stable log:
//   1. find the latest complete checkpoint; seed the rebuilt state from its
//      kv records;
//   2. collect the winner set: transactions with a kCommit record;
//   3. redo winners' kWrite after-images in LSN order;
//   4. surface PREPAREd-but-undecided transactions (in-doubt) with their
//      staged after-images so a 2PC participant can reinstate them;
//   5. rebuild recoverable-queue durable state: outbound = enqueued - acked,
//      inbound = delivered - consumed (per queue, in delivery order);
//   6. list the chopped transactions whose piece 1 committed but whose
//      last piece did not (open continuations, wal/continuation.h).
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wal/continuation.h"
#include "wal/log.h"

namespace atp {

class Store;

struct InDoubtTxn {
  TxnId txn = kInvalidTxn;
  std::vector<std::pair<Key, Value>> staged;  // after-images, in LSN order
};

struct RecoveredQueueMessage {
  std::uint64_t qmsg_id = 0;
  std::string queue;
  SiteId peer = 0;  // destination (outbound) / source (inbound)
  std::string payload;  // serialized bytes, exactly as logged
};

struct RecoveryResult {
  std::size_t committed_txns = 0;
  std::size_t redone_writes = 0;
  std::vector<InDoubtTxn> in_doubt;  // prepared, no decision logged
  std::vector<RecoveredQueueMessage> outbound;  // to retransmit
  std::vector<RecoveredQueueMessage> inbound;   // still deliverable locally
  std::unordered_set<std::uint64_t> seen_qmsgs;  // dedupe set to restore
  /// Highest queue-message id observed anywhere in the log; the endpoint's
  /// id counter resumes above it so dedupe stays sound across restarts.
  std::uint64_t max_qmsg_id = 0;
  /// Chopped transactions to finish (PieceRunner::resume), oldest first.
  std::vector<OpenContinuation> continuations;
  /// Continuation payloads that failed to decode (never resumed).
  std::size_t rejected_continuations = 0;
};

/// Rebuild `store` (cleared first) from the stable log.  Returns what else
/// the caller must reinstate (in-doubt 2PC state, queue state).
RecoveryResult recover_from_log(const LogDevice& log, Store& store);

/// Copy the whole log through the chunked cursor (LogDevice::read_from), so
/// no caller ever clones the log in one critical section.  The scan paths
/// (recovery, checkpoint truncation analysis) all go through this.
[[nodiscard]] std::vector<LogRecord> read_log_chunked(const LogDevice& log);

}  // namespace atp
