// Write-ahead log: the durability substrate under the engine's crash story.
//
// The rest of the library models durability abstractly ("committed state
// survives, dirty state evaporates").  This module makes that concrete with
// redo-only value logging, the discipline a no-steal buffer pool affords:
//
//   * every transactional write appends an after-image BEFORE commit;
//   * commit appends a commit record; sync commits wait for the group
//     committer (wal/group_commit.h) to cover the record's LSN with an
//     fsync, async commits return at append and become durable at the next
//     group flush;
//   * the pieces of a chopped transaction stamp their commit records with
//     its continuation (wal/continuation.h), so only the last piece has to
//     wait for a flush: the log is durable in LSN order;
//   * 2PC participants append a PREPARE record when voting (the force-log
//     the paper's failure model relies on);
//   * recovery replays the log from the last checkpoint: writes of
//     committed transactions redo in LSN order; PREPAREd-but-undecided
//     transactions are reinstated as in-doubt (staged writes + lock
//     ownership are the caller's to restore);
//   * recoverable-queue state (committed enqueues, deliveries, consumes)
//     rides the same log, which is what makes exactly-once across crashes
//     more than an assertion.
//
// "Disk" is a LogDevice: an append-only record vector that survives
// Database/Site crashes (it lives outside them), with fsync counting so
// tests can assert the group-commit budget, and an optional simulated
// fsync latency so group-commit batching behaves like a real device.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

#include "common/ordered_lock.h"

namespace atp {

class FaultInjector;

enum class LogRecordType : std::uint8_t {
  kBegin,         // txn started (informational)
  kWrite,         // after-image: txn staged value for key
  kCommit,        // txn committed
  kAbort,         // txn aborted (informational; redo ignores its writes)
  kPrepare,       // 2PC participant force-logged its vote
  kCheckpoint,    // full committed snapshot begins at this record
  kCheckpointKv,  // one (key, value) pair of the running checkpoint
  kQueueEnqueue,  // durable outbound queue message (sender side)
  kQueueAck,      // outbound message acknowledged (sender side)
  kQueueDeliver,  // durable inbound queue message (receiver side)
  kQueueConsume,  // inbound message consumed by a committed transaction
};

struct LogRecord {
  std::uint64_t lsn = 0;
  LogRecordType type = LogRecordType::kBegin;
  /// kCommit of a chopped piece: its piece index (0 = piece 1).
  std::uint32_t piece = 0;
  TxnId txn = kInvalidTxn;
  /// kWrite/kCheckpointKv: the key written.  kCommit of a chopped piece:
  /// the continuation id (piece 1's TxnId; wal/continuation.h).
  Key key = 0;
  /// kWrite/kCheckpointKv: the after-image.  kCommit of a chopped piece:
  /// the piece's fuzziness Z_p at commit.
  Value value = 0;
  /// Queue records: message id and queue name.
  std::uint64_t qmsg_id = 0;
  std::string queue;
  SiteId peer = 0;
  /// Queue message payload, serialized to bytes.  What goes to "disk" is
  /// exactly what comes back at recovery -- no erased types on the log.
  /// kCommit of piece 1 of a chopped transaction: its continuation.
  std::string payload;
};

/// What the commit record of one piece of a chopped transaction carries
/// (LogRecord::key, piece, value and payload; wal/continuation.h).
struct PieceStamp {
  TxnId continuation = kInvalidTxn;  ///< kInvalidTxn: not a logged piece
  std::uint32_t piece = 0;
  Value z = 0;
  std::string payload;  ///< encoded Continuation (piece 1 only)
};

/// The append-only "disk".  Survives crashes of everything above it.
class LogDevice {
 public:
  /// Append a record; assigns and returns its LSN.
  std::uint64_t append(LogRecord record);

  /// Append a transaction's after-images -- one kWrite record per
  /// (key, value) in `writes`, in order -- and then its `terminal` record
  /// (kCommit or kPrepare), all under one device lock.  The records get
  /// contiguous LSNs with the terminal record last, so a commit costs one
  /// lock round trip however many keys it wrote.  `stamp` goes into the
  /// terminal record when its continuation is set.  Returns the terminal
  /// record's LSN.
  std::uint64_t append_txn(TxnId txn,
                           std::span<const std::pair<Key, Value>> writes,
                           LogRecordType terminal, PieceStamp stamp = {});

  /// Force to stable storage: every record appended before the call becomes
  /// durable.  A no-op for memory, but counted: tests assert the
  /// group-commit budget through this number.  Returns false if an
  /// attached fault injector failed this attempt (nothing became durable);
  /// callers on commit-critical paths must retry until true before
  /// reporting success.  With a nonzero simulated latency the call sleeps
  /// outside the device mutex, so concurrent appends proceed -- records
  /// appended DURING the sync are not covered by it.
  bool fsync();

  /// Simulated device latency per fsync (default 0).  Group commit exists
  /// because this is the expensive step; benches set it to realistic
  /// microseconds so batching has something to amortize.
  void set_fsync_latency(std::chrono::microseconds latency);

  /// fsync failures are injected through here (fault/fault.h).  `site`
  /// names this device's owner in the injector's per-site schedules.
  /// Caller-owned; must outlive the device or be detached with nullptr.
  void set_fault_injector(FaultInjector* injector, SiteId site);

  [[nodiscard]] std::uint64_t fsync_count() const;
  [[nodiscard]] std::uint64_t fsync_failures() const;
  [[nodiscard]] std::uint64_t next_lsn() const;

  /// Highest LSN made durable by a successful fsync (0 = none yet).
  /// Records above it exist only in the volatile tail.  One atomic load,
  /// no device lock: committers poll it on every sync commit.
  [[nodiscard]] std::uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Cursor read: append up to `max` records with lsn >= `from` to `out`,
  /// in LSN order.  Returns the cursor for the next chunk (one past the
  /// last LSN returned), or nullopt when the cursor is past the end.  This
  /// is the recovery/checkpoint scan path: each chunk holds the device
  /// mutex only for its own copy, so appenders are never stalled behind a
  /// whole-log clone.
  [[nodiscard]] std::optional<std::uint64_t> read_from(
      std::uint64_t from, std::size_t max, std::vector<LogRecord>& out) const;

  /// Whole-log snapshot (tests and small tools; prefer read_from on any
  /// path that can race live appenders).
  [[nodiscard]] std::vector<LogRecord> records() const;

  /// Drop records before `lsn` (checkpoint truncation).
  void truncate_before(std::uint64_t lsn);

  /// Simulate a torn tail at crash: records never covered by a successful
  /// fsync vanish.  LSNs are not reused -- next_lsn_ keeps counting.
  void tear_to_durable();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable OrderedMutex<LockRank::kWal> mu_;  ///< rank kWal: inner to queue endpoints; fsync verdicts and latency sleeps happen outside
  std::vector<LogRecord> records_;
  std::uint64_t next_lsn_ = 1;
  /// Written under mu_ (monotone, release); read lock-free (acquire).
  std::atomic<std::uint64_t> durable_lsn_{0};
  std::uint64_t fsyncs_ = 0;
  std::uint64_t fsync_failures_ = 0;
  std::chrono::microseconds fsync_latency_{0};
  FaultInjector* fault_ = nullptr;
  SiteId fault_site_ = 0;
};

}  // namespace atp
