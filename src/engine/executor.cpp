#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/piece_runner.h"
#include "obs/metrics_registry.h"

#include "common/ordered_lock.h"

namespace atp {

std::string ExecutorReport::header() {
  std::ostringstream out;
  out << std::left << std::setw(22) << "method" << std::right  //
      << std::setw(10) << "commit"                             //
      << std::setw(9) << "rollbk"                              //
      << std::setw(9) << "resub"                               //
      << std::setw(9) << "dlock"                               //
      << std::setw(11) << "tps"                                //
      << std::setw(12) << "p50(us)"                            //
      << std::setw(12) << "p95(us)"                            //
      << std::setw(12) << "p99(us)"                            //
      << std::setw(12) << "meanZ"                              //
      << std::setw(12) << "maxErr";
  return out.str();
}

std::string ExecutorReport::row() const {
  std::ostringstream out;
  out << std::left << std::setw(22) << method_name << std::right  //
      << std::setw(10) << committed                               //
      << std::setw(9) << rolled_back                              //
      << std::setw(9) << resubmissions                            //
      << std::setw(9) << deadlock_aborts                          //
      << std::setw(11) << std::fixed << std::setprecision(1)
      << throughput_tps                                           //
      << std::setw(12) << std::setprecision(0) << latency_us.p50  //
      << std::setw(12) << latency_us.p95                          //
      << std::setw(12) << latency_us.p99                          //
      << std::setw(12) << std::setprecision(2) << txn_fuzziness.mean  //
      << std::setw(12) << query_error.max;
  return out.str();
}

DatabaseOptions Executor::database_options(const MethodConfig& method,
                                           std::chrono::milliseconds timeout) {
  DatabaseOptions opts;
  opts.scheduler = method.sched;
  opts.lock_timeout = timeout;
  return opts;
}

namespace {

/// One worker's run queue.  The owner pops batches from the front; thieves
/// pop from the back, so contention on the mutex is the only interaction
/// and it is short.  Padded so neighbouring queues never share a line.
struct alignas(64) WorkerQueue {
  mutable OrderedMutex<LockRank::kExecutorQueue> mu;  // rank kExecutorQueue: only ever one queue locked at a time
  std::deque<std::size_t> q;  // indices into the instance stream

  // Collector-facing accessor: the metrics collector must not acquire locks
  // in its own body (TH003 -- it runs under the registry lock), so the queue
  // exposes its depth the same way other components expose stats().
  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock(mu);
    return q.size();
  }
};

}  // namespace

ExecutorReport Executor::run(Database& db, const ExecutionPlan& plan,
                             const std::vector<TxnInstance>& instances,
                             const ExecutorOptions& opts) {
  assert(db.scheduler() == plan.method.sched &&
         "database scheduler must match the method");

  RunMetrics metrics;
  std::atomic<std::uint64_t> budget_violations{0};
  std::atomic<std::uint64_t> steals{0};
  Rng seeder(opts.seed);

  // Recovery's leftovers come first: once piece 1 committed, the original
  // must commit (Theorem 1), and new work must not overtake it.  They get
  // their own Rng, so the workers' streams do not depend on whether there
  // was anything to resume.  One logged under another plan (a type index
  // this plan lacks, or a mismatched chopping) stays open on the log.
  std::uint64_t resumed = 0;
  if (std::vector<OpenContinuation> opened = db.take_continuations();
      !opened.empty()) {
    PieceRunner runner(db, nullptr, 0, 0, false, opts.commit_wait);
    Rng rng(~opts.seed);
    for (const OpenContinuation& open : opened) {
      if (open.cont.type_index >= plan.types.size()) continue;
      const TxnTypePlan& tp = plan.types[open.cont.type_index];
      if (runner.resume(tp, open, plan.method.dist, rng).committed) ++resumed;
    }
  }

  const std::size_t workers = std::max<std::size_t>(1, opts.workers);

  // Round-robin partition keeps each worker's slice spread across the whole
  // stream (a contiguous split would serialize the workload's phases).
  std::vector<std::unique_ptr<WorkerQueue>> queues;
  queues.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    queues.push_back(std::make_unique<WorkerQueue>());
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    queues[i % workers]->q.push_back(i);
  }

  std::vector<Rng> worker_rngs;
  worker_rngs.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) worker_rngs.push_back(seeder.split());

  // Observability: one pull collector over the run's own metrics + queues.
  // The hot loops pay nothing extra -- the collector reads the counters the
  // run maintains anyway, at snapshot time, from the snapshotting thread.
  obs::MetricsRegistry* reg = db.metrics();
  obs::MetricsRegistry::CollectorId cid = 0;
  if (reg != nullptr) {
    cid = reg->add_collector([&](obs::SnapshotBuilder& b) {
      std::size_t depth = 0;
      for (const auto& wq : queues) depth += wq->depth();
      b.gauge("exec.queue_depth", double(depth));
      b.gauge("exec.workers", double(workers));
      b.counter("exec.committed", double(metrics.committed_txns.get()));
      b.counter("exec.committed_pieces",
                double(metrics.committed_pieces.get()));
      b.counter("exec.resubmissions", double(metrics.resubmissions.get()));
      b.counter("exec.deadlock_aborts", double(metrics.aborts_deadlock.get()));
      b.counter("exec.rollbacks", double(metrics.aborts_rollback.get()));
      b.counter("exec.steals",  // relaxed-ok: monotone stat snapshot
                double(steals.load(std::memory_order_relaxed)));
      b.histogram("exec.piece_us", metrics.piece_latency_us.summarize());
      b.histogram("exec.txn_us", metrics.txn_latency_us.summarize());
    });
  }

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      PieceRunner runner(db, &metrics, opts.op_delay_min_us,
                         opts.op_delay_max_us, opts.parallel_pieces,
                         opts.commit_wait);
      Rng& rng = worker_rngs[w];
      std::vector<std::size_t> batch;
      batch.reserve(kDequeueBatch);

      auto dequeue_own = [&] {
        WorkerQueue& wq = *queues[w];
        std::lock_guard lock(wq.mu);
        while (batch.size() < kDequeueBatch && !wq.q.empty()) {
          batch.push_back(wq.q.front());
          wq.q.pop_front();
        }
        return !batch.empty();
      };
      auto steal_from = [&](std::size_t victim) {
        WorkerQueue& wq = *queues[victim];
        std::lock_guard lock(wq.mu);
        // Take at most half the victim's remainder (leave it work) and at
        // most one batch, from the back -- opposite end from the owner.
        std::size_t take =
            std::min(kDequeueBatch, (wq.q.size() + 1) / 2);
        while (take-- > 0 && !wq.q.empty()) {
          batch.push_back(wq.q.back());
          wq.q.pop_back();
        }
        if (batch.empty()) return false;
        // Back-popping reversed the stolen run; restore stream order.
        std::reverse(batch.begin(), batch.end());
        steals.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat tally
        return true;
      };

      for (;;) {
        batch.clear();
        if (!dequeue_own()) {
          // Own queue dry: sweep victims from a random offset.  Queues only
          // drain, so one full empty sweep means the run is over.
          const std::size_t start = workers > 1 ? rng.uniform(workers) : 0;
          for (std::size_t k = 0; k < workers && batch.empty(); ++k) {
            const std::size_t victim = (start + k) % workers;
            if (victim == w) continue;
            steal_from(victim);
          }
          if (batch.empty()) break;  // everything everywhere is done
        }
        for (const std::size_t i : batch) {
          const TxnInstance& inst = instances[i];
          assert(inst.type_index < plan.types.size());
          const TxnTypePlan& tp = plan.types[inst.type_index];
          const TxnRunResult r = runner.run(tp, inst, plan.method.dist, rng);
          // Runtime check of Condition 2: a committed transaction's
          // restricted fuzziness must fit within its Limit_t (tiny float
          // tolerance).
          if (r.committed &&
              r.z_restricted > tp.type.epsilon_limit * (1 + 1e-9) + 1e-9) {
            budget_violations.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = double(wall.elapsed_us()) / 1e6;
  // The collector captures this frame's locals; detach it before they die.
  // (remove_collector returns only after any in-flight snapshot finishes.)
  if (reg != nullptr) reg->remove_collector(cid);

  ExecutorReport report;
  report.method_name = plan.method.name();
  report.committed = metrics.committed_txns.get();
  report.resumed = resumed;
  report.rolled_back = metrics.aborts_rollback.get();
  report.committed_pieces = metrics.committed_pieces.get();
  report.resubmissions = metrics.resubmissions.get();
  report.deadlock_aborts = metrics.aborts_deadlock.get();
  report.budget_violations = budget_violations.load();
  report.steals = steals.load();
  report.lock_stats = db.locks().stats();
  report.wall_seconds = seconds;
  report.throughput_tps = seconds > 0 ? double(report.committed) / seconds : 0;
  report.latency_us = metrics.txn_latency_us.summarize();
  report.piece_latency_us = metrics.piece_latency_us.summarize();
  report.txn_fuzziness = metrics.txn_fuzziness.summarize();
  report.query_error = metrics.query_error.summarize();
  return report;
}

}  // namespace atp
