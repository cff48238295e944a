// Multi-worker executor: runs a stream of transaction instances through a
// Database under one of the paper's method configurations, and reports the
// rows the evaluation benches print (throughput, aborts, latency, realized
// inconsistency).
//
// Scheduling: each worker owns a run queue seeded with a round-robin slice
// of the instance stream.  Workers dequeue in batches from the front of
// their own queue (one mutex acquisition amortized over kDequeueBatch
// transactions) and, when empty, steal a batch from the *back* of a victim's
// queue -- the classic deque discipline: owner and thieves touch opposite
// ends, so a steal almost never contends with the owner's hot path.  Queues
// only drain (no transaction spawns another), so "every queue empty" is a
// complete termination condition and no handshake is needed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "chop/program.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/method.h"
#include "engine/plan.h"
#include "sched/database.h"

namespace atp {

struct ExecutorOptions {
  std::size_t workers = 4;
  std::uint64_t seed = 1;
  /// Per-transaction think time bounds (microseconds of simulated work
  /// between ops; stretches resource holding time, which is exactly what
  /// chopping attacks).  0/0 disables.
  std::uint64_t op_delay_min_us = 0;
  std::uint64_t op_delay_max_us = 0;
  /// Run independent sibling pieces on parallel threads (Figure 2's
  /// Schedule(S, ...) "for all p in S in parallel").
  bool parallel_pieces = false;
  /// Commit durability mode of the piece that finishes each original
  /// transaction (WAL-backed databases only; ignored without a WAL).  The
  /// pieces before it always commit kAsync: the finishing piece's flush
  /// covers them, and the continuation piece 1 logs finishes them after a
  /// crash -- one log force per original.  kAsync here measures the
  /// group-commit fast path: success at append, durability at the next
  /// group flush.
  CommitWait commit_wait = CommitWait::kSync;
};

struct ExecutorReport {
  std::string method_name;
  std::uint64_t committed = 0;
  /// Originals recovery left open, finished before the run's own work
  /// (not counted in `committed`).
  std::uint64_t resumed = 0;
  std::uint64_t rolled_back = 0;       ///< programmed rollbacks taken
  std::uint64_t committed_pieces = 0;
  std::uint64_t resubmissions = 0;     ///< piece re-runs by the handler
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t budget_violations = 0;  ///< committed txns with Z_t > Limit_t
  std::uint64_t steals = 0;             ///< batches taken from another worker
  LockStats lock_stats;
  double wall_seconds = 0;
  double throughput_tps = 0;
  StatSummary latency_us;
  StatSummary piece_latency_us;
  StatSummary txn_fuzziness;  ///< restricted-piece Z_t of committed txns
  StatSummary query_error;    ///< |observed - ground truth| for audit queries

  /// One aligned table row (pair with header()).
  [[nodiscard]] std::string row() const;
  [[nodiscard]] static std::string header();
};

class Executor {
 public:
  /// Batch size for dequeue and steal.  Small enough that stealing
  /// rebalances a skewed tail, large enough to amortize queue mutexes.
  static constexpr std::size_t kDequeueBatch = 8;

  /// Run all `instances` (per-worker run queues with batched dequeue and
  /// work stealing) with `workers` threads.  `db`'s scheduler must match
  /// `plan.method.sched`; data for the instances' keys must be loaded.
  /// First, before any instance starts, finish the open continuations the
  /// database's last recovery found (Database::take_continuations): the
  /// chopped transactions a crash interrupted after piece 1.
  [[nodiscard]] static ExecutorReport run(Database& db,
                                          const ExecutionPlan& plan,
                                          const std::vector<TxnInstance>& instances,
                                          const ExecutorOptions& opts = {});

  /// Convenience: DatabaseOptions matching a method.
  [[nodiscard]] static DatabaseOptions database_options(
      const MethodConfig& method,
      std::chrono::milliseconds lock_timeout = std::chrono::milliseconds(2000));
};

}  // namespace atp
