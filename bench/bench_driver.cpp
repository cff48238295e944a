// Unified bench driver: every local bench scenario x applicable methods x
// thread counts {1, 2, 4, 8}, with machine-readable output.
//
// Where the individual bench_* binaries each print one human-oriented table,
// this driver runs its scenario configurations under one roof and emits two
// JSON artifacts in the schema documented in docs/BENCH_SCHEMA.md:
//
//   * BENCH_scaling.json -- every (scenario, method, threads) run;
//   * BENCH_table1.json  -- the Table-1 method matrix (banking scenario at
//     the reference thread count), the paper's headline comparison.
//
// Every run records a full trace and is certifier-verified before its row is
// emitted: the ESR certifier replays the fuzziness ledger (all methods), and
// the SR certifier checks the direct-serialization graph (CC schedulers,
// where serializability is the promise).  A certification failure makes the
// driver exit nonzero -- the JSON is a *verified* artifact, not raw numbers.
//
// Timing: all wall-clock measurement inside runs uses steady_clock (see
// bench_util.h); percentiles are the shared interpolated-rank definition
// from common/metrics.h.
//
// Flags:
//   --json             emit JSON files (default: also prints a summary table)
//   --quick            CI smoke mode: fewer instances per run
//   --out-dir=DIR      directory for BENCH_*.json (default ".")
//   --metrics-port=N   serve live metrics on 127.0.0.1:N while running
//                      (atp-top --url 127.0.0.1:N; SIGUSR1 dumps a snapshot
//                      JSON into --out-dir)
//   --certify          run the online certifier live alongside each run; its
//                      verdict is cross-checked against the offline replay
//                      and its lag/window stats land in the JSON
//
// Observability: every run publishes into its own MetricsRegistry; the final
// snapshot (taken before the run's Database dies, so the retired epsilon-
// budget roll-ups and the stripe heatmap are populated) is embedded in each
// run's JSON record as the "metrics" block, and with --certify the online
// certifier's stats as the "online_cert" block -- schema v5,
// docs/BENCH_SCHEMA.md.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "audit/esr_certifier.h"
#include "audit/online_certifier.h"
#include "audit/sr_certifier.h"
#include "bench_util.h"
#include "obs/http_exporter.h"
#include "obs/metrics_registry.h"
#include "trace/tracer.h"
#include "wal/log.h"
#include "workload/banking.h"

using namespace atp;
using namespace atp::bench;

namespace {

struct Scenario {
  std::string name;
  BankingConfig cfg;
  std::size_t instances = 0;
  std::uint64_t seed = 0;
  std::vector<MethodConfig> methods;
  /// Thread counts to sweep (empty = the driver-wide default ladder).
  std::vector<std::size_t> threads;
  /// Simulated per-op think time (run_local defaults when zero).
  std::uint64_t op_delay_min_us = 0;
  std::uint64_t op_delay_max_us = 0;
  /// Attach a write-ahead log to every run of this scenario: commits force
  /// through the group committer and wal.group.* lands in the JSON metrics.
  bool wal = false;
  std::chrono::microseconds fsync_latency{0};
  CommitWait commit_wait = CommitWait::kSync;
};

/// The scenario set: the paper's banking mix, the multi-hop distribution
/// ablation, a query-heavy CC-vs-DC cell, a crossover cell (configs kept in
/// sync by hand with bench_method_crossover) and a group-commit cell.
std::vector<Scenario> make_scenarios(bool quick) {
  std::vector<Scenario> out;

  {  // Table 1: the paper's banking mix, all six methods.
    Scenario s;
    s.name = "banking";
    s.cfg.branches = 2;
    s.cfg.accounts_per_branch = 24;
    s.cfg.max_transfer = 50;
    s.cfg.branch_audit_fraction = 0.15;
    s.cfg.global_audit_fraction = 0.08;
    s.cfg.audit_scan = 12;
    s.cfg.zipf_theta = 0.6;
    s.cfg.update_epsilon = 1200;
    s.cfg.query_epsilon = 2500;
    s.instances = quick ? 120 : 400;
    s.seed = 424242;
    s.methods = table1_methods();
    out.push_back(s);
  }

  {  // Multi-hop transfers at hops=2: Method 3, static vs dynamic policy.
    Scenario s;
    s.name = "multihop";
    s.cfg.branches = 2;
    s.cfg.accounts_per_branch = 12;
    s.cfg.max_transfer = 10;
    s.cfg.hops = 2;
    s.cfg.branch_audit_fraction = 0.0;
    s.cfg.global_audit_fraction = 0.20;
    s.cfg.zipf_theta = 0.6;
    s.cfg.update_epsilon = 200;     // 100 * hops, as in the ablation
    s.cfg.query_epsilon = 100000;   // audits never block
    s.instances = quick ? 80 : 200;
    s.seed = 7;
    s.methods = {MethodConfig::method3(DistPolicy::Static),
                 MethodConfig::method3(DistPolicy::Dynamic)};
    out.push_back(s);
  }

  {  // Query-heavy mix at eps=800: unchopped CC vs DC.
     // Think time is lighter than the other scenarios on purpose: this cell
     // measures the store's snapshot-read path, and at the default
     // 100-300us/op the 8-thread run saturates on simulated think time
     // (~2ms/txn caps it near 4k tps) with the query path idle.  At
     // 40-120us the scheduler is the bottleneck again, which is what the
     // lock-free-reads acceptance number tracks.
    Scenario s;
    s.name = "query_heavy";
    s.op_delay_min_us = 40;
    s.op_delay_max_us = 120;
    s.cfg.branches = 2;
    s.cfg.accounts_per_branch = 16;
    s.cfg.max_transfer = 40;
    s.cfg.branch_audit_fraction = 0.25;
    s.cfg.global_audit_fraction = 0.15;
    s.cfg.audit_scan = 12;
    s.cfg.zipf_theta = 0.7;
    s.cfg.update_epsilon = 800;
    s.cfg.query_epsilon = 800;
    s.instances = quick ? 100 : 300;
    s.seed = 5150;
    s.methods = {MethodConfig::baseline_sr(), MethodConfig::baseline_dc()};
    out.push_back(s);
  }

  {  // bench_method_crossover "heavy audits, tight eps" cell, all methods.
    Scenario s;
    s.name = "crossover_tight";
    s.cfg.branches = 2;
    s.cfg.accounts_per_branch = 16;
    s.cfg.max_transfer = 40;
    s.cfg.branch_audit_fraction = 0.35;
    s.cfg.global_audit_fraction = 0.15;
    s.cfg.audit_scan = 10;
    s.cfg.zipf_theta = 0.8;
    s.cfg.update_epsilon = 200;   // 800 * 0.25
    s.cfg.query_epsilon = 400;    // 1600 * 0.25
    s.instances = quick ? 100 : 300;
    s.seed = 999;
    s.methods = table1_methods();
    out.push_back(s);
  }

  {  // Group commit: the banking mix against a WAL with realistic fsync
     // cost, on the commit{wait=async} fast path -- success at append,
     // durability at the next group flush (the async backlog forces one
     // fsync per kAsyncFlushBacklog commits).  The cell's
     // wal.group.fsyncs_per_commit is the batching factor the subsystem
     // exists to buy (acceptance: <= 0.25 under 8 concurrent committers;
     // sync mode is bounded near ~1/3 by the durability wait itself --
     // each committer stalls ~2.5 flush periods -- and wal_test covers its
     // never-report-before-durable contract).
    Scenario s;
    s.name = "group_commit";
    s.cfg.branches = 2;
    s.cfg.accounts_per_branch = 24;
    s.cfg.max_transfer = 50;
    s.cfg.branch_audit_fraction = 0.15;
    s.cfg.global_audit_fraction = 0.08;
    s.cfg.audit_scan = 12;
    s.cfg.zipf_theta = 0.6;
    s.cfg.update_epsilon = 1200;
    s.cfg.query_epsilon = 2500;
    s.instances = quick ? 120 : 400;
    s.seed = 424242;
    s.methods = {MethodConfig::baseline_sr(), MethodConfig::baseline_dc()};
    s.threads = {8};
    s.wal = true;
    s.fsync_latency = std::chrono::microseconds(1000);
    s.commit_wait = CommitWait::kAsync;
    out.push_back(s);
  }

  return out;
}

struct RunRecord {
  std::string scenario;
  std::string method;
  std::string sched;
  std::size_t threads = 0;
  std::size_t instances = 0;
  Value eps_q = 0;
  ExecutorReport report;
  obs::MetricsSnapshot metrics;  ///< final per-run snapshot (schema "metrics")
  bool esr_ok = false;
  bool sr_checked = false;
  bool sr_ok = false;
  bool online_enabled = false;  ///< --certify: online certifier ran live
  bool online_check_sr = false;
  OnlineCertifierStats online;  ///< stats after the final drain
};

/// `git rev-parse --short HEAD`, or "unknown" outside a work tree.
std::string git_sha() {
  std::string sha = "unknown";
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (!s.empty()) sha = s;
    }
    pclose(p);
  }
  return sha;
}

/// Minimal JSON string escaping (method names contain only safe chars, but
/// the emitter shouldn't rely on that).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Counter/gauge value of `name` in the snapshot (0 when absent).
double mval(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::Sample* p = s.find(name);
  return p == nullptr ? 0 : p->value;
}

/// The run's "metrics" block: epsilon-budget roll-ups (retired + live -- at
/// snapshot time every ET has retired, but the split keeps the numbers
/// honest if that ever changes), commit/abort tallies, and the per-stripe
/// lock heatmap.  Shapes documented in docs/BENCH_SCHEMA.md (schema v2).
void append_metrics_json(std::string& out, const obs::MetricsSnapshot& m,
                         const char* indent) {
  char buf[512];
  // Only queries carry an eps budget (divergence control is import-only).
  // The export and update-budget keys stay in schema v5 as literal 0.
  const auto both = [&](const char* cls, const char* field) {
    return mval(m, std::string("eps.live.") + cls + "." + field) +
           mval(m, std::string("eps.retired.") + cls + "." + field);
  };
  out += std::string(indent) + " \"metrics\": {\n";
  std::snprintf(buf, sizeof buf,
                "%s  \"eps\": {\"charges_ok\": %.0f, \"rejected_import\": "
                "%.0f, \"rejected_export\": 0, \"rejected_admission\": 0, "
                "\"import_charged\": %.6g, \"export_charged\": 0,\n",
                indent, mval(m, "eps.charges_ok"),
                mval(m, "eps.rejected_import"), mval(m, "eps.import_charged"));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "%s   \"query_ets\": %.0f, \"query_used\": %.6g, "
                "\"query_limit\": %.6g, \"query_unlimited\": %.0f,\n"
                "%s   \"update_ets\": %.0f, \"update_used\": 0, "
                "\"update_limit\": 0, \"update_unlimited\": 0},\n",
                indent, both("query", "count"), both("query", "used"),
                both("query", "limit"), both("query", "unlimited"), indent,
                both("update", "count"));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "%s  \"db\": {\"commits\": %.0f, \"aborts\": %.0f},\n", indent,
                mval(m, "db.commits"), mval(m, "db.aborts"));
  out += buf;
  out += std::string(indent) + "  \"lock_stripes\": [";
  const auto stripes = std::size_t(mval(m, "lock.stripes"));
  for (std::size_t i = 0; i < stripes; ++i) {
    const std::string p = "lock.stripe." + std::to_string(i) + ".";
    const obs::Sample* lat = m.find(p + "acquire_us");
    std::snprintf(
        buf, sizeof buf,
        "%s{\"acquires\": %.0f, \"waits\": %.0f, \"deadlocks\": %.0f, "
        "\"timeouts\": %.0f, \"max_waiters\": %.0f, "
        "\"acquire_us_p50\": %.3g, \"acquire_us_p95\": %.3g}",
        i == 0 ? "" : ", ", mval(m, p + "acquires"), mval(m, p + "waits"),
        mval(m, p + "deadlocks"), mval(m, p + "timeouts"),
        mval(m, p + "max_waiters"),
        lat != nullptr ? lat->summary.p50 : 0,
        lat != nullptr ? lat->summary.p95 : 0);
    out += buf;
  }
  out += "],\n";
  // v4: the multi-version store's counters -- how many snapshots the run's
  // queries took, what the version GC reclaimed, and how often the ring
  // aged a snapshot out (each one is a query retry).
  std::snprintf(
      buf, sizeof buf,
      "%s  \"mvcc\": {\"commit_seq\": %.0f, \"versions_published\": %.0f, "
      "\"gc_reclaimed\": %.0f, \"snapshot_too_old\": %.0f, "
      "\"snapshots_acquired\": %.0f, \"live_snapshots\": %.0f}",
      indent, mval(m, "mvcc.commit_seq"), mval(m, "mvcc.versions_published"),
      mval(m, "mvcc.gc_reclaimed"), mval(m, "mvcc.snapshot_too_old"),
      mval(m, "mvcc.snapshots_acquired"), mval(m, "mvcc.live_snapshots"));
  out += buf;
  // v4: group-commit batching, WAL-attached runs only.
  if (m.find("wal.group.flushes") != nullptr) {
    std::snprintf(
        buf, sizeof buf,
        ",\n%s  \"wal_group\": {\"commits_sync\": %.0f, \"commits_async\": "
        "%.0f, \"flushes\": %.0f, \"batched\": %.0f, \"async_self_flushes\": "
        "%.0f, \"fsyncs_per_commit\": %.4f, \"durable_lsn\": %.0f}",
        indent, mval(m, "wal.group.commits_sync"),
        mval(m, "wal.group.commits_async"), mval(m, "wal.group.flushes"),
        mval(m, "wal.group.batched"), mval(m, "wal.group.async_self_flushes"),
        mval(m, "wal.group.fsyncs_per_commit"),
        mval(m, "wal.group.durable_lsn"));
    out += buf;
  }
  out += "}";
}

void append_run_json(std::string& out, const RunRecord& r,
                     const char* indent) {
  char buf[512];
  const ExecutorReport& rep = r.report;
  std::snprintf(
      buf, sizeof buf,
      "%s{\"scenario\": \"%s\", \"method\": \"%s\", \"sched\": \"%s\", "
      "\"threads\": %zu, \"instances\": %zu,\n"
      "%s \"committed\": %llu, \"tps\": %.2f, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f,\n"
      "%s \"mean_z\": %.4f, \"max_audit_error\": %.4f, \"eps_q\": %.1f, "
      "\"budget_violations\": %llu,\n",
      indent, json_escape(r.scenario).c_str(), json_escape(r.method).c_str(),
      r.sched.c_str(), r.threads, r.instances, indent,
      (unsigned long long)rep.committed, rep.throughput_tps, rep.latency_us.p50,
      rep.latency_us.p95, rep.latency_us.p99, indent, rep.txn_fuzziness.mean,
      rep.query_error.max, double(r.eps_q),
      (unsigned long long)rep.budget_violations);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "%s \"deadlock_aborts\": %llu, "
      "\"resubmissions\": %llu, \"steals\": %llu, \"wall_seconds\": %.4f,\n"
      "%s \"certified\": {\"esr_ok\": %s, \"sr_checked\": %s, \"sr_ok\": "
      "%s},\n",
      indent, (unsigned long long)rep.deadlock_aborts,
      (unsigned long long)rep.resubmissions, (unsigned long long)rep.steals,
      rep.wall_seconds, indent, r.esr_ok ? "true" : "false",
      r.sr_checked ? "true" : "false",
      r.sr_checked ? (r.sr_ok ? "true" : "false") : "null");
  out += buf;
  if (r.online_enabled) {
    const OnlineCertifierStats& os = r.online;
    std::snprintf(
        buf, sizeof buf,
        "%s \"online_cert\": {\"enabled\": true, \"check_sr\": %s, "
        "\"violations\": %llu, \"sr_violations\": %llu, \"esr_violations\": "
        "%llu,\n"
        "%s  \"events\": %llu, \"edges\": %llu, \"window_nodes_peak\": %llu, "
        "\"retired_nodes\": %llu, \"max_lag_us\": %llu, \"dropped_events\": "
        "%llu, \"degraded\": %s},\n",
        indent, r.online_check_sr ? "true" : "false",
        (unsigned long long)os.violations(),
        (unsigned long long)os.sr_violations,
        (unsigned long long)os.esr_violations, indent,
        (unsigned long long)os.events_processed,
        (unsigned long long)os.edges_added,
        (unsigned long long)os.window_nodes_peak,
        (unsigned long long)os.retired_nodes,
        (unsigned long long)os.max_lag_us,
        (unsigned long long)os.dropped_events, os.degraded ? "true" : "false");
    out += buf;
  } else {
    out += std::string(indent) + " \"online_cert\": {\"enabled\": false},\n";
  }
  append_metrics_json(out, r.metrics, indent);
  out += "}";
}

void write_json(const std::string& path, const std::string& sha, bool quick,
                const std::vector<const RunRecord*>& runs) {
  std::string out = "{\n";
  out += "  \"schema_version\": 5,\n";
  out += "  \"generated_by\": \"bench_driver\",\n";
  out += "  \"git_sha\": \"" + json_escape(sha) + "\",\n";
  out += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  out += "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_run_json(out, *runs[i], "    ");
    if (i + 1 < runs.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_driver: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  f << out;
  std::printf("wrote %s (%zu runs)\n", path.c_str(), runs.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  bool quick = false;
  bool certify = false;
  std::string out_dir = ".";
  std::uint16_t metrics_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      metrics_port = std::uint16_t(
          std::strtoul(arg.c_str() + std::strlen("--metrics-port="), nullptr,
                       10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_driver [--json] [--quick] [--out-dir=DIR] "
                   "[--metrics-port=N] [--certify]\n");
      return 2;
    }
  }

  // One exporter for the whole driver; each run points it at its own
  // registry, so atp-top always watches the run in progress.
  std::unique_ptr<obs::ObsServer> metrics_server;
  if (metrics_port != 0) {
    metrics_server =
        std::make_unique<obs::ObsServer>(nullptr, metrics_port);
    if (metrics_server->ok()) {
      metrics_server->enable_signal_dump(out_dir + "/metrics_dump", SIGUSR1);
      std::printf("serving metrics on 127.0.0.1:%u "
                  "(atp-top --url 127.0.0.1:%u; SIGUSR1 dumps JSON)\n",
                  unsigned(metrics_server->port()),
                  unsigned(metrics_server->port()));
    }
  }

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  constexpr std::size_t kReferenceThreads = 8;  // Table-1 rows come from here

  const std::vector<Scenario> scenarios = make_scenarios(quick);
  std::vector<std::unique_ptr<RunRecord>> records;
  bool cert_failed = false;

  std::printf("%-16s %-22s %8s %10s %12s %10s %10s %10s %12s %8s\n",
              "scenario", "method", "threads", "commit", "tps", "p50(us)",
              "p99(us)", "maxErr", "eps(Q)", "cert");
  for (const Scenario& sc : scenarios) {
    const Workload w = make_banking(sc.cfg, sc.instances, sc.seed);
    const std::vector<std::size_t>& sweep =
        sc.threads.empty() ? thread_counts : sc.threads;
    for (const MethodConfig& method : sc.methods) {
      for (const std::size_t threads : sweep) {
        // Declaration order is lifetime order: the tracer's dtor detaches its
        // collector from run_metrics, and the certifier's dtor both detaches
        // from run_metrics and drops its subscription on the tracer.
        obs::MetricsRegistry run_metrics;
        obs::MetricsSnapshot final_snapshot;
        Tracer tracer(1 << 18);
        std::unique_ptr<OnlineCertifier> online;
        if (certify) {
          tracer.attach_metrics(&run_metrics);
          OnlineCertifierOptions co;
          // ET-level SR is only the CC schedulers' promise (see the offline
          // block below); DC schedules pay for divergence by design.
          co.check_sr = method.sched == SchedulerKind::CC;
          co.metrics = &run_metrics;
          online = std::make_unique<OnlineCertifier>(tracer, co);
          online->start();
        }
        if (metrics_server) metrics_server->set_registry(&run_metrics);
        LogDevice wal_device;  // per-run log; only attached when sc.wal
        LocalRunConfig rc;
        rc.workers = threads;
        rc.tracer = &tracer;
        rc.metrics = &run_metrics;
        rc.final_snapshot_out = &final_snapshot;
        if (sc.wal) {
          rc.wal = &wal_device;
          rc.fsync_latency = sc.fsync_latency;
          rc.commit_wait = sc.commit_wait;
        }
        if (sc.op_delay_max_us > 0) {
          rc.op_delay_min_us = sc.op_delay_min_us;
          rc.op_delay_max_us = sc.op_delay_max_us;
        }
        const ExecutorReport rep = run_local(w, method, rc);
        if (online) online->stop();  // final drain: verdict covers every event
        // Detach before run_metrics dies; a scrape between runs sees empty.
        if (metrics_server) metrics_server->set_registry(nullptr);

        const std::vector<TraceEvent> events = tracer.collect();
        const std::uint64_t dropped = tracer.dropped();
        const EsrReport esr = certify_esr(events, dropped);

        auto rec = std::make_unique<RunRecord>();
        rec->scenario = sc.name;
        rec->method = method.name();
        rec->sched = to_string(method.sched);
        rec->threads = threads;
        rec->instances = sc.instances;
        rec->eps_q = sc.cfg.query_epsilon;
        rec->report = rep;
        rec->metrics = std::move(final_snapshot);
        rec->esr_ok = esr.ok && esr.complete;
        if (method.sched == SchedulerKind::CC) {
          // Serializability is only the CC schedulers' promise; DC schedules
          // are epsilon-serializable by design and would (correctly) show
          // cycles involving fuzzy reads.  SR-choppings (Theorem 1) are
          // serializable at original-transaction granularity, so pieces are
          // merged; an ESR-chopping only promises ET-level SR.
          const auto merge = piece_merge_map(events);
          const bool merge_pieces = method.chop != ChopMode::ESR;
          const SrReport sr =
              certify_sr(events, merge_pieces ? &merge : nullptr, dropped);
          rec->sr_checked = true;
          rec->sr_ok = sr.serializable && sr.complete;
          if (!rec->sr_ok) {
            std::fprintf(stderr, "SR certification FAILED (%s/%s, %zu thr): %s\n",
                         sc.name.c_str(), rec->method.c_str(), threads,
                         sr.describe().c_str());
            cert_failed = true;
          }
        }
        if (!rec->esr_ok) {
          std::fprintf(stderr, "ESR certification FAILED (%s/%s, %zu thr): %s\n",
                       sc.name.c_str(), rec->method.c_str(), threads,
                       esr.describe().c_str());
          cert_failed = true;
        }
        if (online) {
          rec->online_enabled = true;
          rec->online_check_sr = method.sched == SchedulerKind::CC;
          rec->online = online->stats();
          // Cross-check the live verdict against the offline replay.  A full-
          // confidence online pass must agree with offline on ESR, and under
          // a CC scheduler must see zero ET-level cycles; disagreement means
          // one of the two certifiers is wrong, which is worth failing loud.
          if (!rec->online.degraded) {
            const bool online_esr_ok = rec->online.esr_violations == 0;
            bool mismatch = online_esr_ok != esr.ok;
            if (rec->online_check_sr && rec->online.sr_violations > 0) {
              mismatch = true;
            }
            if (mismatch) {
              std::fprintf(stderr,
                           "online/offline certifier MISMATCH (%s/%s, %zu "
                           "thr): online sr=%llu esr=%llu, offline esr_ok=%s\n",
                           sc.name.c_str(), rec->method.c_str(), threads,
                           (unsigned long long)rec->online.sr_violations,
                           (unsigned long long)rec->online.esr_violations,
                           esr.ok ? "true" : "false");
              for (const OnlineViolation& v : online->violations()) {
                std::fprintf(stderr, "  %s\n", v.witness.c_str());
              }
              cert_failed = true;
            }
          }
        }

        const bool cert_ok = rec->esr_ok && (!rec->sr_checked || rec->sr_ok);
        std::printf(
            "%-16s %-22s %8zu %10llu %12.1f %10.0f %10.0f %10.1f %12.0f %8s\n",
            sc.name.c_str(), rec->method.c_str(), threads,
            (unsigned long long)rep.committed, rep.throughput_tps,
            rep.latency_us.p50, rep.latency_us.p99, rep.query_error.max,
            double(sc.cfg.query_epsilon), cert_ok ? "ok" : "FAIL");
        records.push_back(std::move(rec));
      }
    }
  }

  // Shape checks (see EXPERIMENTS.md "Scaling"): chopped methods must turn
  // extra workers into throughput on the think-time-bound banking mix.
  int shape_failures = 0;
  for (const auto& rec : records) {
    if (rec->scenario != "banking" || rec->threads != 4) continue;
    if (rec->method != MethodConfig::method3().name()) continue;
    for (const auto& base : records) {
      if (base->scenario == "banking" && base->method == rec->method &&
          base->threads == 1) {
        const double ratio =
            base->report.throughput_tps > 0
                ? rec->report.throughput_tps / base->report.throughput_tps
                : 0;
        std::printf("\nscaling check: %s banking 4-thread / 1-thread tps = "
                    "%.2fx (require >= 2.0x)\n",
                    rec->method.c_str(), ratio);
        if (ratio < 2.0) {
          std::fprintf(stderr, "scaling check FAILED\n");
          ++shape_failures;
        }
      }
    }
  }

  if (emit_json) {
    const std::string sha = git_sha();
    std::vector<const RunRecord*> all;
    std::vector<const RunRecord*> table1;
    for (const auto& r : records) {
      all.push_back(r.get());
      // Table-1 artifact: the paper's banking matrix at the reference thread
      // count, plus the two headline cells of the multi-version store --
      // query_heavy (lock-free snapshot reads) and group_commit (batched
      // fsyncs) -- so the committed JSON carries the acceptance numbers.
      if ((r->scenario == "banking" || r->scenario == "query_heavy") &&
          r->threads == kReferenceThreads) {
        table1.push_back(r.get());
      } else if (r->scenario == "group_commit") {
        table1.push_back(r.get());
      }
    }
    write_json(out_dir + "/BENCH_scaling.json", sha, quick, all);
    write_json(out_dir + "/BENCH_table1.json", sha, quick, table1);
  }

  if (cert_failed) {
    std::fprintf(stderr, "bench_driver: certification failures\n");
    return 1;
  }
  if (shape_failures > 0) return 1;
  std::printf("\nall runs certifier-verified (ESR everywhere, SR on CC)\n");
  return 0;
}
