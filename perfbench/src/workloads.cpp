#include "workloads.h"

#include <map>

#include "audit/esr_certifier.h"

namespace perfbench {

using namespace atp;

void begin_phase(System& sys, std::size_t callers, double seconds,
                 PhaseResult& res) {
  res.update.resize(callers);
  res.query.resize(callers);
  const auto capacity = std::size_t(seconds * kMaxCallerRate);
  for (std::size_t c = 0; c < callers; ++c) {
    res.update[c].ns.reserve(capacity);
    res.query[c].ns.reserve(capacity);
  }
  res.before = read_counters(*sys.db, sys.wal.get(), sys.metrics, sys.online.get());
  release_free_memory();
  res.rss.reset();
}

bool end_epoch(
    System& sys, PhaseResult& res, Report& rep,
    const std::function<void()>& probe,
    const std::function<void(const std::vector<TraceEvent>&)>& on_trace) {
  res.rss.fold();
  for (LatencyCell& c : res.update) c.mark();
  for (LatencyCell& c : res.query) c.mark();
  if (probe) probe();
  if (sys.wal) checkpoint(*sys.db, *sys.wal, res.ckpt);
  if (sys.tracer) {
    if (sys.online) {
      // Drained before the rings clear.  What this drain processes is the
      // backlog the certifier's own thread left at the end of the epoch.
      const std::uint64_t e0 = sys.online->stats().events_processed;
      const std::int64_t t0 = now_ns();
      sys.online->pump();
      res.park_pump_s += double(now_ns() - t0) / 1e9;
      res.park_drained += sys.online->stats().events_processed - e0;
    }
    const std::vector<TraceEvent> events = sys.tracer->collect();
    const std::uint64_t dropped = sys.tracer->dropped();
    res.dropped += dropped;
    rep.gate(dropped == 0, "trace ring overflowed within an epoch (" +
                               std::to_string(dropped) + " events dropped)");
    if (sys.online) {
      // Offline oracle over the epoch's complete trace: every ET of the
      // epoch began and ended inside it (the callers are parked).
      const EsrReport esr = certify_esr(events, dropped);
      rep.gate(esr.ok && esr.complete,
               "offline ESR certification failed: " + esr.describe());
      const std::uint64_t seen = sys.online->stats().esr_violations;
      rep.gate((seen == res.online_esr_seen) == esr.ok,
               "online and offline ESR verdicts disagree on an epoch");
      res.online_esr_seen = seen;
    }
    if (on_trace) on_trace(events);
    res.events += events.size();
    sys.tracer->clear();
  }
  res.rss.reset();
  return rep.gate_failures.empty();
}

void end_phase(System& sys, PhaseResult& res, Value total_money, Report& rep) {
  res.after = read_counters(*sys.db, sys.wal.get(), sys.metrics, sys.online.get());
  const auto state = sys.db->store().snapshot_committed();
  gate_money(rep, state, total_money);
  if (sys.online) {
    sys.online->stop();
    const OnlineCertifierStats st = sys.online->stats();
    rep.gate(st.violations() == 0, "online certifier reported violations");
    rep.gate(!st.degraded, "online certifier degraded (dropped events)");
    res.after.online = st;
  }
  if (sys.wal) gate_recovery(rep, *sys.wal, state);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, in order.
const LayerMetric kLayerMetrics[] = {
    {"server.rtt_us.begin", "us"},     {"server.rtt_us.read", "us"},
    {"server.rtt_us.add", "us"},       {"server.rtt_us.commit", "us"},
    {"server.exec_us", "us"},          {"server.transport_us", "us"},
    {"server.requests_per_txn", "count"}, {"server.refused", "count"},
    {"server.self_us", "us"},          {"transport.self_us", "us"},
    {"engine.run_us", "us"},           {"engine.piece_us", "us"},
    {"engine.pieces_per_txn", "count"}, {"engine.resubmits_per_txn", "count"},
    {"engine.self_us", "us"},          {"engine.scale_4v1", "ratio"},
    {"sched.et_us", "us"},             {"sched.commit_us", "us"},
    {"sched.self_us", "us"},           {"commit.self_us", "us"},
    {"db.aborts_per_txn", "count"},    {"lock.acquires_per_txn", "count"},
    {"lock.waits_per_txn", "count"},   {"lock.wait_us", "us"},
    {"lock.self_us", "us"},            {"lock.deadlocks", "count"},
    {"lock.timeouts", "count"},        {"eps.charges_per_txn", "count"},
    {"eps.rejected", "count"},         {"eps.used_frac.query", "ratio"},
    {"eps.used_frac.update", "ratio"}, {"mvcc.snapshots_per_txn", "count"},
    {"mvcc.versions_per_commit", "count"}, {"mvcc.gc_per_commit", "count"},
    {"mvcc.snapshot_too_old", "count"}, {"wal.records_per_commit", "count"},
    {"wal.fsyncs_per_commit", "count"}, {"wal.batched_frac", "ratio"},
    {"trace.events_per_txn", "count"}, {"trace.dropped", "count"},
    {"trace.overhead_frac", "ratio"},  {"audit.events_per_s", "1/s"},
    {"audit.window_nodes_peak", "count"}, {"audit.max_lag_us", "us"},
    {"audit.degraded", "bool"},        {"setup.plan_s", "s"},
    {"unattributed_us", "us"},         {"failed_frac", "ratio"},
    {"retry_frac", "ratio"},
};

/// Orders the metrics as kLayerMetrics lists them.  A metric the workload
/// has no layer for reads 0, and detail.na.<name> = 1 marks it as not
/// measured, so it cannot pass for a measured 0.
void complete_layer_metrics(Report& rep) {
  std::map<std::string, Metric> have;
  for (Metric& m : rep.metrics) have[m.name] = m;
  std::vector<Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    auto it = have.find(lm.name);
    if (it == have.end()) {
      out.push_back({lm.name, 0, lm.unit});
      rep.note(std::string("na.") + lm.name, 1, "bool");
    } else {
      out.push_back(it->second);
      have.erase(it);
    }
  }
  for (auto& [name, m] : have) {
    rep.gate(false, "metric " + name + " is not in the per-layer list");
  }
  rep.metrics = std::move(out);
}

/// Failures and retries, each against attempted transactions.  Snapshot-too-
/// old reads are also counted among the resubmissions they cause.
void note_failures(Report& rep, const PhaseResult& p, Bench& bench) {
  const double n = double(p.attempted);
  rep.note("failed_frac", per(double(p.failed), n), "ratio");
  rep.note("retry_frac", per(double(p.retries), n), "ratio");
  rep.note("retry_snapshot_too_old_frac",
           per(double(p.after.mvcc.snapshot_too_old - p.before.mvcc.snapshot_too_old), n),
           "ratio");
  bench.note_failures(rep, p);
}

/// The certifier work the untimed parks hid: time in the parked drains, and
/// the share of the phase's events they processed.
void note_parks(Report& rep, const PhaseResult& p) {
  rep.note("audit.park_pump_s", p.park_pump_s, "s");
  rep.note("audit.park_drain_frac",
           per(double(p.park_drained),
               double(p.after.online.events_processed - p.before.online.events_processed)),
           "ratio");
}

/// Runs a phase that only contributes its throughput; its gates still count.
double side_phase_tps(Bench& bench, System& sys, std::size_t callers,
                      double seconds, Report& rep) {
  Report side;
  const double tps = bench.run(sys, callers, seconds, false, side, {}).tps();
  for (const std::string& g : side.gate_failures) rep.gate(false, g);
  return tps;
}

}  // namespace

Report run_workload(const RunArgs& args, Bench& bench) {
  Report rep;
  auto setup_failed = [&] {
    rep.gate(false, "set-up failed");
    return rep;
  };

  if (!args.trace) {
    auto sys = bench.build(bench.always_traced);
    if (!sys) return setup_failed();
    std::vector<double> setup_s{sys->setup_s};
    // Further set-ups, spread over the run, so setup_s samples the machine
    // as the whole run sees it.  Each is torn down, and its memory handed
    // back, within its epoch boundary.
    auto probe = throttled(
        [&] {
          if (setup_s.size() >= std::size_t(kSetupReps)) return;
          if (auto extra = bench.build(bench.always_traced)) {
            setup_s.push_back(extra->setup_s);
          }
          release_free_memory();
        },
        args.seconds / kSetupReps);
    const CpuTimes cpu0 = cpu_times();
    PhaseResult p = bench.run(*sys, bench.callers, args.seconds, false, rep, probe);
    const CpuTimes cpu1 = cpu_times();
    if (!rep.gate_failures.empty()) return rep;
    rep.attempted = p.attempted;
    rep.failed = p.failed;
    report_e2e(rep, p.epoch_s, cells(p.update), cells(p.query));
    rep.add("setup_s", median_of(setup_s), "s");
    rep.add("peak_rss_mb", p.rss.mb(), "MB");
    rep.note("measured_s", p.measured_s, "s");
    rep.note("setups", double(setup_s.size()), "count");
    rep.note("peak_rss_whole_process", p.rss.whole_process() ? 1 : 0, "bool");
    rep.note("host_steal_frac", per(cpu1.steal - cpu0.steal, cpu1.total - cpu0.total),
             "ratio");
    note_failures(rep, p, bench);
    if (sys->online) note_parks(rep, p);
    return rep;
  }

  // Traced run: an untraced phase for the overhead baseline, then the traced
  // phase the layer metrics come from, then (engine_wide) a traced
  // one-caller phase for the scaling ratio.
  const double slice = args.seconds / (bench.one_caller_phase ? 3.0 : 2.0);
  double untraced_tps = 0;
  {
    auto base = bench.build(false);
    if (!base) return setup_failed();
    untraced_tps = side_phase_tps(bench, *base, bench.callers, slice, rep);
  }
  auto sys = bench.build(true);
  if (!sys) return setup_failed();
  PhaseResult p = bench.run(*sys, bench.callers, slice, true, rep, {});
  if (!rep.gate_failures.empty()) return rep;
  rep.attempted = p.attempted;
  rep.failed = p.failed;
  const double txns = double(p.attempted);
  bench.add_layer_metrics(rep, p);
  add_counter_metrics(rep, p.before, p.after, txns, p.ckpt, sys->wal != nullptr);
  rep.add("trace.events_per_txn", per(double(p.events), txns), "count");
  rep.add("trace.dropped", double(p.dropped), "count");
  rep.add("trace.overhead_frac", 1.0 - per(p.tps(), untraced_tps), "ratio");
  if (sys->online) {
    const OnlineCertifierStats& a = p.before.online;
    const OnlineCertifierStats& b = p.after.online;
    rep.add("audit.events_per_s",
            per(double(b.events_processed - a.events_processed), p.measured_s), "1/s");
    rep.add("audit.window_nodes_peak", double(b.window_nodes_peak), "count");
    rep.add("audit.max_lag_us", double(b.max_lag_us), "us");
    rep.add("audit.degraded", b.degraded ? 1 : 0, "bool");
    note_parks(rep, p);
  }
  rep.add("failed_frac", per(double(p.failed), txns), "ratio");
  rep.add("retry_frac", per(double(p.retries), txns), "ratio");
  note_failures(rep, p, bench);
  rep.note("traced_txn_per_s", p.tps(), "1/s");
  rep.note("untraced_txn_per_s", untraced_tps, "1/s");
  if (!args.spans_out.empty()) {
    rep.gate(p.spans.write(args.spans_out), "cannot write " + args.spans_out);
    rep.note("spans_logged_txns", double(p.spans.txns), "count");
  }
  if (bench.one_caller_phase) {
    sys.reset();
    auto one = bench.build(true);
    if (!one) return setup_failed();
    const double tps1 = side_phase_tps(bench, *one, 1, slice, rep);
    rep.add("engine.scale_4v1", per(p.tps(), tps1), "ratio");
    rep.note("traced_1worker_txn_per_s", tps1, "1/s");
  }
  complete_layer_metrics(rep);
  return rep;
}

}  // namespace perfbench
