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

struct PieceRunner::PieceOutcome {
  bool rolled_back = false;
  Value z_p = 0;
  Value reads = 0;
  std::uint64_t resubmissions = 0;
};

// Run piece `p` as an independent transaction, resubmitting until it commits
// (or takes the programmed rollback, piece 1 only).
PieceRunner::PieceOutcome PieceRunner::run_one_piece(
    const TxnTypePlan& plan, const TxnInstance& instance, std::size_t p,
    Value limit, Rng& rng, TxnId original) {
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
      if (attempt >= kMaxResubmit) {
        // Pathological livelock guard; callers treat this as a test bug.
        assert(false && "piece resubmission cap reached");
        return out;
      }
      // Jittered backoff so colliding retries de-synchronize.
      const auto backoff = std::chrono::microseconds(
          50 + rng.uniform(200) * std::min<std::uint64_t>(attempt, 8));
      std::this_thread::sleep_for(backoff);
    }

    Stopwatch piece_clock;
    Txn txn = db_.begin(kind, spec_for(kind, limit), kInvalidTxn,
                        TxnOptions{commit_wait_});
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
      const Access& op = instance.ops[i];
      if (op.type == AccessType::Read) {
        Result<Value> v = txn.read(op.item);
        if (!v.ok()) {
          failure = v.status();
          break;
        }
        piece_reads += v.value();
      } else if (op.type == AccessType::Add) {
        Status s = txn.add(op.item, op.delta);
        if (!s.ok()) {
          failure = s;
          break;
        }
      } else {
        Status s = txn.write(op.item, op.delta);
        if (!s.ok()) {
          failure = s;
          break;
        }
      }
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
      Status c = txn.commit();
      if (!c.ok()) {
        // The crash-epoch guard is the only refusal left at commit (the
        // site crashed under this piece); resubmit like any other abort.
        assert(c.is_abort());
        txn.abort();  // no-op if commit() already aborted
        continue;
      }
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

TxnRunResult PieceRunner::run(const TxnTypePlan& plan,
                              const TxnInstance& instance, DistPolicy policy,
                              Rng& rng) {
  assert(instance.ops.size() == plan.type.ops.size());
  TxnRunResult result;
  Stopwatch txn_clock;

  // The original transaction never runs itself, but the trace needs a stable
  // id to hang its pieces off (and the SR certifier to merge them under).
  // Allocate one only when tracing so id sequences are unchanged otherwise.
  Tracer* const tracer = db_.tracer();
  const SiteId site = db_.site_id();
  const TxnId original = tracer ? db_.registry().allocate_id() : kInvalidTxn;
  Tracer::emit(tracer, TraceKind::RunBegin, site, original, 0,
               double(plan.piece_ranges.size()));

  std::unique_ptr<LimitDistributor> distributor;
  if (policy == DistPolicy::Dynamic) {
    distributor = std::make_unique<DynamicDistribution>(plan.plan_info);
  } else {
    distributor = std::make_unique<StaticDistribution>(plan.plan_info);
  }

  // Shared accumulation (the parallel scheduler touches these from sibling
  // threads; the distributor is not internally thread-safe either).
  OrderedMutex<LockRank::kPieceAccount> mu;  // rank kPieceAccount
  auto account = [&](std::size_t p, const PieceOutcome& out) {
    std::lock_guard lock(mu);
    distributor->report_committed(p, out.z_p);
    result.z_total += out.z_p;
    if (plan.restricted[p]) result.z_restricted += out.z_p;
    result.observed_result += out.reads;
    result.resubmissions += out.resubmissions;
  };
  auto limit_of = [&](std::size_t p) {
    std::lock_guard lock(mu);
    return distributor->limit_for(p);
  };

  // Piece 1 first: it alone may take the programmed rollback, and nothing
  // else starts until it commits (rollback-safety).
  {
    const PieceOutcome first =
        run_one_piece(plan, instance, 0, limit_of(0), rng, original);
    if (first.rolled_back) {
      result.rolled_back = true;
      result.resubmissions += first.resubmissions;
      result.latency_us = double(txn_clock.elapsed_us());
      Tracer::emit(tracer, TraceKind::RunRollback, site, original);
      return result;
    }
    account(0, first);
  }

  const auto& children = plan.plan_info.children;
  if (!parallel_pieces_) {
    // Sequential topological order: parents always precede children in
    // piece index order (the dependency derivation guarantees parent < p).
    for (std::size_t p = 1; p < plan.piece_ranges.size(); ++p) {
      const PieceOutcome out =
          run_one_piece(plan, instance, p, limit_of(p), rng, original);
      account(p, out);
    }
  } else {
    // Figure 2's Schedule(): when a piece commits, its dependents run in
    // parallel.  A chain continues on the current thread; fan-out spawns.
    const std::uint64_t base_seed = rng.next();
    std::function<void(std::size_t)> exec = [&](std::size_t p) {
      Rng piece_rng(base_seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
      const PieceOutcome out =
          run_one_piece(plan, instance, p, limit_of(p), piece_rng, original);
      account(p, out);
      const auto& kids = children[p];
      if (kids.size() == 1) {
        exec(kids[0]);
      } else if (!kids.empty()) {
        std::vector<std::thread> threads;
        threads.reserve(kids.size());
        for (std::size_t k : kids) threads.emplace_back(exec, k);
        for (auto& t : threads) t.join();
      }
    };
    const auto& roots = children[0];
    if (roots.size() == 1) {
      exec(roots[0]);
    } else if (!roots.empty()) {
      std::vector<std::thread> threads;
      threads.reserve(roots.size());
      for (std::size_t k : roots) threads.emplace_back(exec, k);
      for (auto& t : threads) t.join();
    }
  }

  result.committed = true;
  result.latency_us = double(txn_clock.elapsed_us());
  Tracer::emit(tracer, TraceKind::RunCommit, site, original, 0,
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
  return result;
}

}  // namespace atp
