// Shared plumbing for the paper-reproduction benches: run a workload under a
// method configuration and collect the report row.
//
// Local (single-database) benches add per-op think time so transactions hold
// locks for realistic durations -- without it, in-memory ops finish in
// nanoseconds and no method differentiates.  The distributed bench instead
// charges simulated network latency.
//
// Timing discipline: every wall-clock measurement in the bench suite goes
// through bench_now_us() (std::chrono::steady_clock) -- never the system
// clock, which NTP can step mid-run.  Percentiles go through
// atp::percentile_of (common/metrics.h), the single interpolated-rank
// definition shared with Histogram and the JSON emitters; the report rows
// carry p50, p95 AND p99 so tail behaviour is visible in every table.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "workload/workload.h"

namespace atp::bench {

/// Monotonic microsecond timestamp (steady_clock).  Use for every elapsed-
/// time measurement in benches; differences are immune to wall-clock steps.
[[nodiscard]] inline std::int64_t bench_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolated percentile of an *unsorted* sample set (sorts a copy).
/// q in [0, 1]; the math is percentile_of from common/metrics.h.
[[nodiscard]] inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_of(samples, q);
}

struct LocalRunConfig {
  std::size_t workers = 8;
  std::uint64_t seed = 20260705;
  std::uint64_t op_delay_min_us = 100;
  std::uint64_t op_delay_max_us = 300;
  Tracer* tracer = nullptr;  ///< optional: certifier-grade event capture
  /// Optional metrics registry the run's Database + Executor publish into
  /// (live scrapes via an ObsServer pointed at it, final snapshot below).
  obs::MetricsRegistry* metrics = nullptr;
  /// When set (with `metrics`), receives a final snapshot taken after the
  /// run completes but BEFORE the Database dies -- the run's eps budgets,
  /// stripe heatmap and executor counters, ready for the bench JSON.
  obs::MetricsSnapshot* final_snapshot_out = nullptr;
  /// Optional write-ahead log: attaching one turns on force-at-commit via
  /// the database's group committer (wal.group.* lands in the metrics
  /// snapshot).  The caller owns the device; `fsync_latency` simulates the
  /// per-force device cost the group commit amortizes.
  LogDevice* wal = nullptr;
  std::chrono::microseconds fsync_latency{0};
  /// Durability mode for every transaction in the run (WAL runs only).
  CommitWait commit_wait = CommitWait::kSync;
};

inline ExecutorReport run_local(const Workload& w, MethodConfig method,
                                const LocalRunConfig& cfg = {}) {
  auto plan = ExecutionPlan::build(w.types, method);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan build failed for %s: %s\n",
                 method.name().c_str(), plan.status().to_string().c_str());
    ExecutorReport r;
    r.method_name = method.name() + " (PLAN FAILED)";
    return r;
  }
  DatabaseOptions dbo = Executor::database_options(method);
  dbo.tracer = cfg.tracer;
  dbo.metrics = cfg.metrics;
  if (cfg.wal != nullptr) {
    cfg.wal->set_fsync_latency(cfg.fsync_latency);
    dbo.wal = cfg.wal;
  }
  Database db(dbo);
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = cfg.workers;
  opts.seed = cfg.seed;
  opts.op_delay_min_us = cfg.op_delay_min_us;
  opts.op_delay_max_us = cfg.op_delay_max_us;
  opts.commit_wait = cfg.commit_wait;
  ExecutorReport report = Executor::run(db, plan.value(), w.instances, opts);
  if (cfg.metrics != nullptr && cfg.final_snapshot_out != nullptr) {
    // Taken while the Database's collector is still registered, so the
    // retired-ET budget roll-ups and the stripe heatmap land in the output.
    *cfg.final_snapshot_out = cfg.metrics->snapshot();
  }
  return report;
}

/// All six Table-1 configurations (baselines + the paper's three methods).
inline std::vector<MethodConfig> table1_methods() {
  return {MethodConfig::baseline_sr(), MethodConfig::baseline_dc(),
          MethodConfig::sr_chop_cc(),  MethodConfig::method1(),
          MethodConfig::method2(),     MethodConfig::method3()};
}

}  // namespace atp::bench
