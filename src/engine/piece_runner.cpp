#include "engine/piece_runner.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

#include "common/ordered_lock.h"

namespace atp {
namespace {

[[nodiscard]] bool rollback_point_after(const TxnProgram& type,
                                        std::size_t op_index) noexcept {
  return std::find(type.rollback_after.begin(), type.rollback_after.end(),
                   op_index) != type.rollback_after.end();
}

}  // namespace

std::unique_ptr<LimitDistributor> make_distributor(DistPolicy policy,
                                                   const ChopPlanInfo& info) {
  if (policy == DistPolicy::Dynamic) {
    return std::make_unique<DynamicDistribution>(info);
  }
  return std::make_unique<StaticDistribution>(info);
}

std::string PieceRunner::continuation_payload(const TxnTypePlan& plan,
                                              const TxnInstance& instance) {
  Continuation& c = cont_scratch_;
  c.type_index = std::uint32_t(instance.type_index);
  c.piece_count = std::uint32_t(plan.piece_ranges.size());
  c.first_op = std::uint32_t(plan.piece_ranges[0].second);
  c.ops.clear();
  for (std::size_t i = c.first_op; i < instance.ops.size(); ++i) {
    const Access& a = instance.ops[i];
    c.ops.push_back({std::uint8_t(a.type), a.item, a.delta});
  }
  return encode_continuation(c);
}

struct PieceRunner::PieceOutcome {
  bool rolled_back = false;
  bool gave_up = false;  ///< resubmission cap reached; nothing committed
  TxnId txn = kInvalidTxn;  ///< the ET that committed the piece
  Value z_p = 0;
  Value reads = 0;
  std::uint64_t resubmissions = 0;
};

/// One original's shared accumulation.  The parallel scheduler touches it
/// from sibling threads, and the distributor is not internally thread-safe,
/// hence the mutex.
struct PieceRunner::Tally {
  Tally(DistPolicy policy, const ChopPlanInfo& info)
      : distributor(make_distributor(policy, info)) {}

  Value limit_for(std::size_t p) {
    std::lock_guard lock(mu);
    return distributor->limit_for(p);
  }

  void account(const TxnTypePlan& plan, std::size_t p,
               const PieceOutcome& out) {
    std::lock_guard lock(mu);
    result.resubmissions += out.resubmissions;
    if (out.gave_up) {
      gave_up = true;
      return;
    }
    distributor->report_committed(p, out.z_p);
    result.z_total += out.z_p;
    if (plan.restricted[p]) result.z_restricted += out.z_p;
    result.observed_result += out.reads;
  }

  OrderedMutex<LockRank::kPieceAccount> mu;  // rank kPieceAccount
  std::unique_ptr<LimitDistributor> distributor;
  TxnRunResult result;
  bool gave_up = false;
};

// Run piece `p` as an independent transaction, resubmitting until it commits
// (or takes the programmed rollback, piece 1 only, or reaches the cap).
PieceRunner::PieceOutcome PieceRunner::run_one_piece(
    const TxnTypePlan& plan, const TxnInstance& instance, std::size_t p,
    Value limit, Rng& rng, TxnId original, TxnId continuation,
    CommitWait wait) {
  PieceOutcome out;
  const auto [begin, end] = plan.piece_ranges[p];
  const TxnKind kind = plan.type.kind;
  Tracer* const tracer = db_.tracer();
  const SiteId site = db_.site_id();

  for (std::uint64_t attempt = 0;; ++attempt) {
    if (attempt > 0) {
      ++out.resubmissions;
      if (metrics_) metrics_->resubmissions.add();
      Tracer::emit(tracer, TraceKind::PieceResubmit, site, kInvalidTxn, p, 0,
                   0, attempt, original);
      if (attempt >= max_resubmit_) {
        // Pathological livelock guard: the original does not commit.
        out.gave_up = true;
        return out;
      }
      // Jittered backoff so colliding retries de-synchronize.
      const auto backoff = std::chrono::microseconds(
          50 + rng.uniform(200) * std::min<std::uint64_t>(attempt, 8));
      std::this_thread::sleep_for(backoff);
    }

    Stopwatch piece_clock;
    Txn txn = db_.begin(kind, spec_for(kind, limit), kInvalidTxn,
                        TxnOptions{wait});
    Tracer::emit(tracer, TraceKind::PieceStart, site, txn.id(), p, limit, 0,
                 attempt, original);
    Status failure = Status::Ok();
    Value piece_reads = 0;
    bool programmed_rollback = false;

    for (std::size_t i = begin; i < end; ++i) {
      if (op_delay_max_us_ > 0 && i > begin) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            op_delay_min_us_ +
            rng.uniform(op_delay_max_us_ - op_delay_min_us_ + 1)));
      }
      Result<Value> v = run_op(txn, instance.ops[i]);
      if (!v.ok()) {
        failure = v.status();
        break;
      }
      piece_reads += v.value();
      // Programmed rollback statements live in piece 1 (rollback-safety);
      // taking one abandons the whole original transaction, no retries.
      if (p == 0 && instance.take_rollback &&
          rollback_point_after(plan.type, i)) {
        programmed_rollback = true;
        break;
      }
    }

    if (programmed_rollback) {
      txn.abort();
      if (metrics_) metrics_->aborts_rollback.add();
      out.rolled_back = true;
      return out;
    }

    if (failure.ok()) {
      if (continuation == kOpenContinuation) {
        txn.log_piece(txn.id(), 0, continuation_payload(plan, instance));
      } else if (continuation != kInvalidTxn) {
        txn.log_piece(continuation, std::uint32_t(p));
      }
      Status c = txn.commit();
      if (!c.ok()) {
        // The crash-epoch guard is the only refusal left at commit (the
        // site crashed under this piece); resubmit like any other abort.
        assert(c.is_abort());
        txn.abort();  // no-op if commit() already aborted
        continue;
      }
      out.txn = txn.id();
      out.z_p = txn.fuzziness();
      out.reads = piece_reads;
      Tracer::emit(tracer, TraceKind::PieceFinish, site, txn.id(), p, out.z_p,
                   0, attempt, original);
      if (metrics_) {
        metrics_->committed_pieces.add();
        metrics_->piece_latency_us.record(double(piece_clock.elapsed_us()));
      }
      return out;
    }

    txn.abort();
    // Timeouts are counted via lock stats.
    if (metrics_ && failure.code() == ErrorCode::kDeadlock) {
      metrics_->aborts_deadlock.add();
    }
    // Lock-conflict/deadlock aborts: resubmit until commit (the paper's
    // process-handler behaviour).
  }
}

bool PieceRunner::run_and_account(const TxnTypePlan& plan,
                                  const TxnInstance& instance, std::size_t p,
                                  Rng& rng, TxnId original,
                                  TxnId continuation, CommitWait wait,
                                  Tally& tally) {
  const PieceOutcome out =
      run_one_piece(plan, instance, p, tally.limit_for(p), rng, original,
                    continuation, wait);
  tally.account(plan, p, out);
  return !out.gave_up;
}

void PieceRunner::finish(TxnRunResult& result, const TxnInstance& instance,
                         TxnId original, double latency_us) {
  result.committed = true;
  result.latency_us = latency_us;
  Tracer::emit(db_.tracer(), TraceKind::RunCommit, db_.site_id(), original, 0,
               result.z_restricted, result.z_total);
  if (metrics_) {
    metrics_->committed_txns.add();
    metrics_->txn_latency_us.record(result.latency_us);
    metrics_->txn_fuzziness.record(result.z_restricted);
    if (instance.has_expected_result) {
      metrics_->query_error.record(
          distance(result.observed_result, instance.expected_result));
    }
  }
}

TxnRunResult PieceRunner::run(const TxnTypePlan& plan,
                              const TxnInstance& instance, DistPolicy policy,
                              Rng& rng) {
  assert(instance.ops.size() == plan.type.ops.size());
  Stopwatch txn_clock;

  // The original transaction never runs itself, but the trace needs a stable
  // id to hang its pieces off (and the SR certifier to merge them under).
  // Allocate one only when tracing so id sequences are unchanged otherwise.
  Tracer* const tracer = db_.tracer();
  const SiteId site = db_.site_id();
  const TxnId original = tracer ? db_.registry().allocate_id() : kInvalidTxn;
  const std::size_t n = plan.piece_ranges.size();
  Tracer::emit(tracer, TraceKind::RunBegin, site, original, 0, double(n));

  Tally tally(policy, plan.plan_info);
  TxnRunResult& result = tally.result;

  // With a WAL, a multi-piece update logs its continuation so a crash after
  // piece 1 cannot strand it; without one nothing is built.  The piece that
  // finishes the original waits as the caller asked (the last piece, or
  // each leaf of a parallel fan-out, which its ancestors precede in the
  // log); the pieces before it commit kAsync, covered by its flush.
  const bool logged =
      n > 1 && plan.type.is_update() && db_.options().wal != nullptr;
  const auto& children = plan.plan_info.children;
  auto wait_of = [&](std::size_t p) {
    const bool closes = parallel_pieces_ ? children[p].empty() : p + 1 == n;
    return closes ? commit_wait_ : CommitWait::kAsync;
  };

  // Piece 1 first: it alone may take the programmed rollback, and nothing
  // else starts until it commits (rollback-safety).
  const PieceOutcome first =
      run_one_piece(plan, instance, 0, tally.limit_for(0), rng, original,
                    logged ? kOpenContinuation : kInvalidTxn, wait_of(0));
  if (first.rolled_back) {
    result.rolled_back = true;
    result.resubmissions += first.resubmissions;
    result.latency_us = double(txn_clock.elapsed_us());
    Tracer::emit(tracer, TraceKind::RunRollback, site, original);
    return result;
  }
  tally.account(plan, 0, first);
  const TxnId continuation = logged ? first.txn : kInvalidTxn;

  if (first.gave_up) {
    // Piece 1 never committed: there is nothing to finish.
  } else if (!parallel_pieces_) {
    // Sequential topological order: parents always precede children in
    // piece index order (the dependency derivation guarantees parent < p).
    for (std::size_t p = 1; p < n; ++p) {
      if (!run_and_account(plan, instance, p, rng, original, continuation,
                           wait_of(p), tally)) {
        break;
      }
    }
  } else {
    // Figure 2's Schedule(): when a piece commits, its dependents run in
    // parallel.  A chain continues on the current thread; fan-out spawns.
    const std::uint64_t base_seed = rng.next();
    std::function<void(std::size_t)> exec;
    auto spawn = [&](const std::vector<std::size_t>& kids) {
      if (kids.size() == 1) {
        exec(kids[0]);
      } else if (!kids.empty()) {
        std::vector<std::thread> threads;
        threads.reserve(kids.size());
        for (std::size_t k : kids) threads.emplace_back(exec, k);
        for (auto& t : threads) t.join();
      }
    };
    exec = [&](std::size_t p) {
      Rng piece_rng(base_seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
      if (run_and_account(plan, instance, p, piece_rng, original,
                          continuation, wait_of(p), tally)) {
        spawn(children[p]);
      }
    };
    spawn(children[0]);
  }

  if (tally.gave_up) {
    // A piece hit the resubmission cap: the original did not commit.  If
    // piece 1 had, its continuation stays open on the log for resume().
    result.latency_us = double(txn_clock.elapsed_us());
    return result;
  }
  finish(result, instance, original, double(txn_clock.elapsed_us()));
  return result;
}

TxnRunResult PieceRunner::resume(const TxnTypePlan& plan,
                                 const OpenContinuation& open,
                                 DistPolicy policy, Rng& rng) {
  const std::size_t n = plan.piece_ranges.size();
  const Continuation& c = open.cont;
  const bool fits =
      n > 1 && c.piece_count == n &&
      c.first_op == plan.piece_ranges[0].second &&
      c.first_op + c.ops.size() == plan.type.ops.size() &&
      std::all_of(open.done.begin(), open.done.end(),
                  [n](const auto& d) { return d.first < n; });
  if (!fits) return {};  // logged under a different plan: not ours to finish
  const std::size_t first_op = c.first_op;
  Stopwatch txn_clock;
  Tracer* const tracer = db_.tracer();
  const TxnId original = tracer ? db_.registry().allocate_id() : kInvalidTxn;
  Tracer::emit(tracer, TraceKind::RunBegin, db_.site_id(), original, 0,
               double(n));

  // Piece 1's ops are already committed; only the logged ones run again.
  TxnInstance instance;
  instance.type_index = c.type_index;
  instance.ops = plan.type.ops;
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    Access& a = instance.ops[first_op + i];
    a.type = AccessType(c.ops[i].type);
    a.item = c.ops[i].item;
    a.delta = c.ops[i].delta;
  }

  // Replay the committed pieces' Z_p (LSN order, so parents before
  // children) to restore the distributor's leftovers.
  Tally tally(policy, plan.plan_info);
  std::vector<bool> done(n, false);
  for (const auto& [p, z] : open.done) {
    done[p] = true;
    PieceOutcome out;
    out.z_p = z;
    tally.account(plan, p, out);
  }
  std::size_t last = n - 1;
  while (last > 0 && done[last]) --last;
  for (std::size_t p = 1; p < n; ++p) {
    if (done[p]) continue;
    if (!run_and_account(plan, instance, p, rng, original, open.id,
                         p == last ? commit_wait_ : CommitWait::kAsync,
                         tally)) {
      tally.result.latency_us = double(txn_clock.elapsed_us());
      return tally.result;
    }
  }
  finish(tally.result, instance, original, double(txn_clock.elapsed_us()));
  return tally.result;
}

}  // namespace atp
