#include "wal/recovery.h"

#include <map>

#include "storage/store.h"

namespace atp {

std::vector<LogRecord> read_log_chunked(const LogDevice& log) {
  constexpr std::size_t kChunk = 256;  // records copied per lock hold
  std::vector<LogRecord> out;
  std::uint64_t cursor = 0;
  while (const auto next = log.read_from(cursor, kChunk, out)) {
    cursor = *next;
  }
  return out;
}

RecoveryResult recover_from_log(const LogDevice& log, Store& store) {
  const std::vector<LogRecord> records = read_log_chunked(log);  // LSN order
  RecoveryResult result;
  store.clear();

  // --- find the last complete checkpoint ---------------------------------
  const LogRecord* checkpoint = nullptr;
  for (const auto& r : records) {
    if (r.type == LogRecordType::kCheckpoint) checkpoint = &r;
  }
  std::uint64_t horizon = 0;
  if (checkpoint != nullptr) {
    horizon = checkpoint->lsn;
    const std::uint64_t first_kv = checkpoint->qmsg_id;  // lsn of first kv
    for (const auto& r : records) {
      if (r.type == LogRecordType::kCheckpointKv && r.lsn >= first_kv &&
          r.lsn < checkpoint->lsn) {
        store.load(r.key, r.value);
      }
    }
  }

  // --- analysis: winners, losers, in-doubt -------------------------------
  std::unordered_map<TxnId, std::uint64_t> winners;  // txn -> commit LSN
  std::unordered_set<TxnId> losers, prepared;
  for (const auto& r : records) {
    switch (r.type) {
      case LogRecordType::kCommit: winners.emplace(r.txn, r.lsn); break;
      case LogRecordType::kAbort: losers.insert(r.txn); break;
      case LogRecordType::kPrepare: prepared.insert(r.txn); break;
      default: break;
    }
  }
  result.committed_txns = winners.size();

  // --- redo winners; collect in-doubt staged images ----------------------
  // The checkpoint snapshot reflects exactly the transactions whose COMMIT
  // precedes the checkpoint record, so that is the horizon test: a winner
  // that committed after the checkpoint redoes ALL its writes, even ones
  // whose kWrite LSN predates it (no-steal keeps staged writes out of the
  // snapshot until commit).  In-doubt staged images are collected with no
  // LSN filter at all -- a prepared-but-undecided transaction is never in
  // the snapshot, wherever its writes fall relative to the checkpoint.
  std::map<TxnId, InDoubtTxn> in_doubt;
  for (const auto& r : records) {
    if (r.type != LogRecordType::kWrite) continue;
    auto win = winners.find(r.txn);
    if (win != winners.end()) {
      if (win->second <= horizon) continue;  // already in the snapshot
      store.load(r.key, r.value);  // after-image redo, LSN order
      ++result.redone_writes;
    } else if (prepared.count(r.txn) && !losers.count(r.txn)) {
      auto& idt = in_doubt[r.txn];
      idt.txn = r.txn;
      idt.staged.emplace_back(r.key, r.value);
    }
  }
  for (auto& [txn, idt] : in_doubt) result.in_doubt.push_back(std::move(idt));

  // --- recoverable-queue state --------------------------------------------
  // Enqueue/consume records are written at staging time, tagged with their
  // transaction: they take effect only if that transaction committed (this
  // is what makes queue operations atomic with the data writes without a
  // second log force).  Deliver/ack records are non-transactional.
  const auto effective = [&](const LogRecord& r) {
    return r.txn == kInvalidTxn || winners.count(r.txn) > 0;
  };
  std::unordered_set<std::uint64_t> acked, consumed;
  for (const auto& r : records) {
    if (r.qmsg_id > result.max_qmsg_id) result.max_qmsg_id = r.qmsg_id;
    if (r.type == LogRecordType::kQueueAck) acked.insert(r.qmsg_id);
    if (r.type == LogRecordType::kQueueConsume && effective(r)) {
      consumed.insert(r.qmsg_id);
    }
  }
  for (const auto& r : records) {
    if (r.type == LogRecordType::kQueueEnqueue && effective(r) &&
        !acked.count(r.qmsg_id)) {
      result.outbound.push_back(
          RecoveredQueueMessage{r.qmsg_id, r.queue, r.peer, r.payload});
    }
    if (r.type == LogRecordType::kQueueDeliver) {
      result.seen_qmsgs.insert(r.qmsg_id);
      if (!consumed.count(r.qmsg_id)) {
        result.inbound.push_back(
            RecoveredQueueMessage{r.qmsg_id, r.queue, r.peer, r.payload});
      }
    }
  }
  result.continuations =
      open_continuations(records, &result.rejected_continuations);
  return result;
}

}  // namespace atp
