// Group commit: amortize the per-commit fsync across concurrent committers.
//
// The classic discipline forces the log once per commit -- correct, but the
// fsync becomes the throughput ceiling the moment commits outnumber what the
// device can sync per second.  Group commit batches: committing workers
// queue their commit-record LSNs behind a single *flush leader*, which
// issues one fsync for the whole group; followers just wait until the
// durable frontier covers their LSN.  One device sync then retires many
// commits, and the fsyncs/commit ratio drops toward 1/group-size.
//
// Two commit flavors ride the same machinery (TxnOptions::wait):
//
//   * sync  -- wait_durable(lsn): the transaction does not report success
//     until durable_lsn >= lsn.  Full write-ahead guarantee.
//   * async -- note_async(lsn): the transaction reports success at append;
//     durability arrives at the next group flush (piggybacking on a sync
//     leader, or a self-flush once the async backlog crosses a threshold).
//     The backlog is an atomic count, so an async commit takes the
//     committer mutex only when it fills the backlog and leads that flush.
//     A crash in the window loses exactly the not-yet-durable async
//     commits -- the documented contract, exercised by the torn-tail tests.
//
// A sync committer whose commit record an earlier flush already covered
// (the device's durable frontier is one atomic load) returns without
// touching the committer mutex; only an uncovered one queues.
//
// Leadership never migrates mid-flush: one leader runs its fsync outside
// the committer mutex while followers accumulate, then wakes everyone and
// whoever still isn't covered elects the next leader.  Injected fsync
// failures are retried by the leader (a failed sync made nothing durable).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/ordered_lock.h"
#include "wal/log.h"

namespace atp {

struct GroupCommitStats {
  std::uint64_t sync_commits = 0;   ///< wait_durable calls
  std::uint64_t async_commits = 0;  ///< note_async calls
  std::uint64_t flushes = 0;        ///< group fsyncs issued (leader elections)
  std::uint64_t batched = 0;        ///< commits that piggybacked on a flush
                                    ///< they did not lead
  std::uint64_t async_self_flushes = 0;  ///< flushes forced by async backlog
};

class GroupCommitter {
 public:
  /// Async commits accumulate until a sync committer leads a flush or the
  /// backlog reaches this many records, whichever comes first.
  static constexpr std::uint64_t kAsyncFlushBacklog = 16;

  explicit GroupCommitter(LogDevice& wal) : wal_(wal) {}
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Block until durable_lsn >= lsn (sync commit).  Returns at once, with
  /// no lock taken, if the frontier already covers `lsn`; otherwise the
  /// first uncovered waiter becomes the flush leader and the rest follow.
  /// `seed` salts the leader's fsync-failure retry backoff.
  void wait_durable(std::uint64_t lsn, std::uint64_t seed);

  /// Record an async commit at `lsn`.  Returns immediately, without the
  /// committer mutex, unless this commit brings the backlog to
  /// kAsyncFlushBacklog; then, with no flush in flight, it flushes the
  /// backlog itself (blocking this caller).
  void note_async(std::uint64_t lsn, std::uint64_t seed);

  /// Force everything appended so far durable (shutdown / test barrier).
  void flush(std::uint64_t seed);

  [[nodiscard]] GroupCommitStats stats() const;

 private:
  /// Run one group flush as leader.  Called with `lock` held on mu_;
  /// releases it around the device fsync and reacquires before returning.
  void lead_flush_locked(std::unique_lock<OrderedMutex<LockRank::kWalGroup>>& lock,
                         std::uint64_t seed);

  LogDevice& wal_;
  mutable OrderedMutex<LockRank::kWalGroup> mu_;  ///< rank kWalGroup: leader election + waiters; reads the wal frontier (kWal) under it
  OrderedCondVar cv_;
  bool leader_active_ = false;     // under mu_
  /// Async commits since the last flush began.  Atomic so note_async counts
  /// without mu_; only the commit that brings it to kAsyncFlushBacklog takes
  /// mu_ to lead the self-flush.
  std::atomic<std::uint64_t> async_backlog_{0};

  /// GroupCommitStats cells.  Each event bumps exactly one cell once, some
  /// on the lock-free fast path, so they are atomics; stats() reads them
  /// without the mutex.
  struct Counters {
    std::atomic<std::uint64_t> sync_commits{0};
    std::atomic<std::uint64_t> async_commits{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> batched{0};
    std::atomic<std::uint64_t> async_self_flushes{0};
  };
  Counters stats_;
};

}  // namespace atp
