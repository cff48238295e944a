// engine_wide and engine_hot_certify: closed-loop worker threads driving
// ExecutionPlan + PieceRunner directly, one PieceRunner::run call per
// original transaction, so every latency sample carries its type.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "audit/online_certifier.h"
#include "engine/piece_runner.h"
#include "engine/plan.h"
#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "trace/tracer.h"
#include "wal/log.h"
#include "workload/banking.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace atp;

struct EngineWorkload {
  BankingConfig cfg;
  std::size_t workers = 1;
  bool wal = false;
  bool certify = false;  ///< Tracer + OnlineCertifier in every run
  /// Transactions per worker per epoch; one epoch's events must fit a
  /// worker's trace ring.
  std::uint64_t epoch_txns_per_worker = 0;
};

EngineWorkload engine_workload(const std::string& name) {
  EngineWorkload wl;
  BankingConfig& c = wl.cfg;
  c.branches = 2;
  c.max_transfer = 50;
  c.update_epsilon = 1200;
  c.query_epsilon = 2500;
  if (name == "engine_wide") {
    // No contention (40 000 uniform accounts, no global audits), so the
    // commit path -- store publish, EtRegistry begin/retire, WAL append,
    // group-commit handoff -- is the bottleneck; the version store (12
    // slots x 40 000 cells) does not fit in L2.
    c.accounts_per_branch = 20000;
    c.branch_audit_fraction = 0.10;
    c.global_audit_fraction = 0;
    c.audit_scan = 16;
    c.zipf_theta = 0;
    wl.workers = 4;
    wl.wal = true;
    wl.epoch_txns_per_worker = 6000;
  } else {
    // The paper's Table-1 banking mix: lock waits, DC fuzzy grants, eps
    // charges and snapshot reads, traced and certified live as
    // `atpd --certify` runs it; no WAL.  Three workers leave the
    // certifier's pump thread a core.
    c.accounts_per_branch = 24;
    c.branch_audit_fraction = 0.15;
    c.global_audit_fraction = 0.08;
    c.audit_scan = 12;
    c.zipf_theta = 0.6;
    wl.workers = 3;
    wl.certify = true;
    wl.epoch_txns_per_worker = 5000;
  }
  return wl;
}

/// Generated instances; callers cycle through them.
constexpr std::size_t kPoolSize = 200000;
/// Per-thread trace ring: holds one epoch's events so the epoch's trace is
/// complete when it is certified and accounted.
constexpr std::size_t kTraceRing = std::size_t(1) << 18;

struct EngineSystem : System {
  ExecutionPlan plan;
};

struct TxnSpan {
  std::int64_t iter0, run0, run1, iter1;
};

struct alignas(64) Worker {
  Worker(Database& db, std::uint64_t seed) : runner(db, nullptr), rng(seed) {}
  PieceRunner runner;
  Rng rng;
  std::uint64_t committed = 0;
  std::uint64_t giveups = 0;  ///< PieceRunner::kMaxResubmit reached
  std::uint64_t resubmits = 0;
  std::uint64_t budget_violations = 0;
  std::uint64_t audit_overruns = 0;  ///< global audits off by more than eps
  std::uint64_t global_audits = 0;
  double max_audit_error = 0;
  std::vector<TxnSpan> spans;  ///< this epoch's, traced phases only
};

/// Per-transaction means of the traced phase, from the benchmark's spans and
/// the tracer's events (whole microseconds).
struct Accounting {
  LayerTotals self{};
  std::uint64_t txns = 0;  ///< transactions with a span tree
  double iter_ns = 0, run_ns = 0;
  std::uint64_t ets = 0;
  double et_ns = 0;
  std::uint64_t commits = 0;
  double commit_ns = 0;
  std::uint64_t waits = 0;
  double wait_ns = 0;
  std::uint64_t pieces = 0;
  double piece_ns = 0;
};

/// Build each transaction's span tree -- closed-loop iteration > run call >
/// piece ETs > lock waits and commit phase -- and attribute its time.  Trace
/// ring i belongs to worker i (run_epochs' baton), and a ring's RunBegin
/// events follow its worker's calls in order, which pairs each run span with
/// its original transaction id.
bool account_epoch(const std::vector<TraceEvent>& events,
                   std::int64_t offset_ns,
                   std::vector<std::unique_ptr<Worker>>& workers,
                   Accounting& acc, SpanLog& log) {
  auto ns = [&](std::int64_t ts_us) { return offset_ns + ts_us * 1000; };
  struct Et {
    std::int64_t begin = -1, end = -1, finish = -1, last_op = -1;
    std::int64_t wait_open = -1;
    std::int64_t piece_start_us = -1;
    bool committed = false;
    TxnId original = kInvalidTxn;
    std::vector<Interval> waits;
  };
  std::unordered_map<TxnId, Et> ets;
  ets.reserve(events.size() / 4);
  std::vector<std::vector<TxnId>> runs(workers.size());
  bool mapped = true;
  auto close_wait = [&](Et& t, std::int64_t at) {
    if (t.wait_open >= 0) {
      t.waits.push_back({t.wait_open, at});
      t.wait_open = -1;
    }
  };
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceKind::RunBegin:
        if (e.tid < runs.size()) {
          runs[e.tid].push_back(e.txn);
        } else {
          mapped = false;
        }
        break;
      case TraceKind::PieceStart: {
        Et& t = ets[e.txn];
        t.original = e.aux2;
        t.piece_start_us = e.ts_us;
        break;
      }
      case TraceKind::PieceFinish: {
        Et& t = ets[e.txn];
        t.finish = ns(e.ts_us);
        if (t.piece_start_us >= 0) {
          ++acc.pieces;
          acc.piece_ns += double(e.ts_us - t.piece_start_us) * 1000.0;
        }
        break;
      }
      case TraceKind::TxnBegin: ets[e.txn].begin = ns(e.ts_us); break;
      case TraceKind::TxnCommit: {
        Et& t = ets[e.txn];
        t.end = ns(e.ts_us);
        t.committed = true;
        break;
      }
      case TraceKind::TxnAbort: ets[e.txn].end = ns(e.ts_us); break;
      case TraceKind::LockWait: ets[e.txn].wait_open = ns(e.ts_us); break;
      case TraceKind::LockAcquire: {
        Et& t = ets[e.txn];
        close_wait(t, ns(e.ts_us));
        t.last_op = std::max(t.last_op, ns(e.ts_us));
        break;
      }
      case TraceKind::LockDeadlock:
      case TraceKind::LockTimeout: close_wait(ets[e.txn], ns(e.ts_us)); break;
      // Events the ET's own thread records while executing ops.  FuzzExport
      // is left out: a reader's thread records it, possibly after the
      // update ET has committed.
      case TraceKind::Read:
      case TraceKind::Write:
      case TraceKind::FuzzImport: {
        Et& t = ets[e.txn];
        t.last_op = std::max(t.last_op, ns(e.ts_us));
        break;
      }
      default: break;
    }
  }

  std::unordered_map<TxnId, std::vector<SpanNode>> by_original;
  by_original.reserve(ets.size());
  for (auto& [id, t] : ets) {
    if (t.begin < 0 || t.end < 0 || t.original == kInvalidTxn) continue;
    // A committed piece's ET runs on past TxnCommit until PieceFinish: lock
    // release and the registry's retire are the scheduler's work too.
    SpanNode et{kSched, {t.begin, std::max(t.end, t.finish)}, {}};
    for (const Interval& w : t.waits) {
      ++acc.waits;
      acc.wait_ns += double(w.length());
      et.kids.push_back({kLock, w, {}});
    }
    if (t.committed) {
      ++acc.ets;
      acc.et_ns += double(t.end - t.begin);
      if (t.last_op >= 0) {
        ++acc.commits;
        acc.commit_ns += double(Interval{t.last_op, t.end}.length());
        et.kids.push_back({kCommit, {t.last_op, t.end}, {}});
      }
    }
    by_original[t.original].push_back(std::move(et));
  }

  for (std::size_t w = 0; w < workers.size(); ++w) {
    const std::vector<TxnSpan>& spans = workers[w]->spans;
    if (runs[w].size() != spans.size()) {
      mapped = false;
      continue;
    }
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const TxnSpan& s = spans[k];
      SpanNode root{kClient, {s.iter0, s.iter1}, {}};
      SpanNode run{kEngine, {s.run0, s.run1}, {}};
      auto it = by_original.find(runs[w][k]);
      if (it != by_original.end()) run.kids = std::move(it->second);
      root.kids.push_back(std::move(run));
      log.add(runs[w][k], root);
      attribute(root, root.iv, acc.self);
      ++acc.txns;
      acc.iter_ns += double(s.iter1 - s.iter0);
      acc.run_ns += double(s.run1 - s.run0);
    }
  }
  return mapped;
}

/// Offset that turns a tracer timestamp (whole us since the tracer's epoch)
/// into steady_clock ns: event_ns = offset + ts_us * 1000, accurate to about
/// a microsecond (the truncation of both readings cancels on average).
std::int64_t tracer_offset_ns(const Tracer& tracer) {
  const std::int64_t a = now_ns();
  const std::int64_t u = tracer.now_us();
  const std::int64_t b = now_ns();
  return a + (b - a) / 2 - u * 1000;
}

class EngineBench : public Bench {
 public:
  explicit EngineBench(const RunArgs& args)
      : wl_(engine_workload(args.workload)),
        // Inputs first: nothing is timed until they exist.
        w_(make_banking(wl_.cfg, kPoolSize, args.seed)),
        seed_(args.seed) {
    callers = wl_.workers;
    always_traced = wl_.certify;
    one_caller_phase = args.workload == "engine_wide";
  }

  std::unique_ptr<System> build(bool traced) override {
    auto sys = std::make_unique<EngineSystem>();
    const std::int64_t t0 = now_ns();
    DatabaseOptions dbo;
    dbo.scheduler = SchedulerKind::DC;
    dbo.metrics = &sys->metrics;
    if (wl_.wal) {
      sys->wal = std::make_unique<LogDevice>();
      dbo.wal = sys->wal.get();
    }
    if (traced) {
      sys->tracer = std::make_unique<Tracer>(kTraceRing);
      dbo.tracer = sys->tracer.get();
      if (wl_.certify) {
        OnlineCertifierOptions co;
        co.check_sr = false;  // DC: ESR is the contract, as atpd --certify
        co.metrics = &sys->metrics;
        sys->online = std::make_unique<OnlineCertifier>(*sys->tracer, co);
        sys->online->start();
      }
    }
    sys->db = std::make_unique<Database>(dbo);
    w_.load_into(*sys->db);
    const std::int64_t p0 = now_ns();
    Result<ExecutionPlan> plan =
        ExecutionPlan::build(w_.types, MethodConfig::method3());
    plan_s_.push_back(double(now_ns() - p0) / 1e9);
    if (!plan.ok()) return nullptr;
    sys->plan = std::move(plan).value();
    sys->setup_s = double(now_ns() - t0) / 1e9;
    return sys;
  }

  PhaseResult run(System& base, std::size_t callers, double seconds,
                  bool account, Report& rep,
                  const std::function<void()>& probe) override {
    auto& sys = static_cast<EngineSystem&>(base);
    PhaseResult res;
    std::vector<std::unique_ptr<Worker>> ws;
    for (std::size_t i = 0; i < callers; ++i) {
      ws.push_back(std::make_unique<Worker>(*sys.db, seed_ * 1000003 + i));
    }
    const std::int64_t offset_ns = sys.tracer ? tracer_offset_ns(*sys.tracer) : 0;
    begin_phase(sys, callers, seconds, res);

    auto body = [&](std::size_t wi, std::uint64_t idx) {
      Worker& me = *ws[wi];
      const std::int64_t iter0 = now_ns();
      const TxnInstance& inst = w_.instances[idx % w_.instances.size()];
      const TxnTypePlan& tp = sys.plan.types[inst.type_index];
      const std::int64_t run0 = now_ns();
      const TxnRunResult r = me.runner.run(tp, inst, sys.plan.method.dist, me.rng);
      const std::int64_t run1 = now_ns();
      me.resubmits += r.resubmissions;
      if (r.resubmissions >= PieceRunner::kMaxResubmit ||
          (!r.committed && !r.rolled_back)) {
        ++me.giveups;
      } else if (r.committed) {
        ++me.committed;
        (tp.type.is_update() ? res.update : res.query)[wi].ns.push_back(
            double(run1 - run0));
        const Value limit = tp.type.epsilon_limit;
        if (r.z_restricted > limit * (1 + 1e-9) + 1e-9) ++me.budget_violations;
        if (inst.has_expected_result) {
          const double err =
              std::fabs(double(r.observed_result - inst.expected_result));
          ++me.global_audits;
          me.max_audit_error = std::max(me.max_audit_error, err);
          if (err > limit * (1 + 1e-9) + 1e-9) ++me.audit_overruns;
        }
      }
      if (account) me.spans.push_back({iter0, run0, run1, now_ns()});
    };
    auto on_trace = [&](const std::vector<TraceEvent>& events) {
      if (!account) return;
      rep.gate(account_epoch(events, offset_ns, ws, acc_, res.spans),
               "trace rings do not pair with the workers' spans");
      for (auto& wk : ws) wk->spans.clear();
    };
    const EpochStats es = run_epochs(
        callers, seconds, wl_.epoch_txns_per_worker * callers, account, body,
        [&] { return end_epoch(sys, res, rep, probe, on_trace); });
    res.measured_s = es.measured_s;
    res.epoch_s = es.epoch_s;
    res.attempted = es.claimed;

    std::uint64_t budget_violations = 0, audit_overruns = 0, global_audits = 0;
    double max_err = 0;
    for (auto& wk : ws) {
      res.committed += wk->committed;
      res.failed += wk->giveups;
      res.retries += wk->resubmits;
      budget_violations += wk->budget_violations;
      audit_overruns += wk->audit_overruns;
      global_audits += wk->global_audits;
      max_err = std::max(max_err, wk->max_audit_error);
    }
    end_phase(sys, res, w_.total_money, rep);
    rep.gate(budget_violations == 0, std::to_string(budget_violations) +
                                         " committed transactions over Limit_t");
    rep.gate(audit_overruns == 0, std::to_string(audit_overruns) +
                                      " global audits off by more than eps");
    rep.note("global_audits", double(global_audits), "count");
    rep.note("max_audit_error", max_err);
    return res;
  }

  void add_layer_metrics(Report& rep, const PhaseResult& p) override {
    const double n = double(acc_.txns);
    auto self_us = [&](Layer l) { return per(double(acc_.self[l]), n) / 1e3; };
    rep.add("engine.run_us", per(acc_.run_ns, n) / 1e3, "us");
    rep.add("engine.piece_us", per(acc_.piece_ns, double(acc_.pieces)) / 1e3, "us");
    rep.add("engine.pieces_per_txn",
            per(double(acc_.pieces), double(p.committed)), "count");
    rep.add("engine.resubmits_per_txn",
            per(double(p.retries), double(p.attempted)), "count");
    rep.add("engine.self_us", self_us(kEngine), "us");
    rep.add("sched.et_us", per(acc_.et_ns, double(acc_.ets)) / 1e3, "us");
    rep.add("sched.commit_us", per(acc_.commit_ns, double(acc_.commits)) / 1e3, "us");
    rep.add("sched.self_us", self_us(kSched), "us");
    rep.add("commit.self_us", self_us(kCommit), "us");
    rep.add("lock.wait_us", per(acc_.wait_ns, double(acc_.waits)) / 1e3, "us");
    rep.add("lock.self_us", self_us(kLock), "us");
    rep.add("unattributed_us",
            unattributed(per(acc_.iter_ns, n) / 1e3,
                         {self_us(kEngine), self_us(kSched), self_us(kLock),
                          self_us(kCommit)}),
            "us");
    rep.add("setup.plan_s", median_of(plan_s_), "s");
    rep.note("accounted_txns", n, "count");
    rep.note("e2e_iteration_us", per(acc_.iter_ns, n) / 1e3, "us");
  }

 private:
  const EngineWorkload wl_;
  const Workload w_;
  const std::uint64_t seed_;
  std::vector<double> plan_s_;  ///< ExecutionPlan::build of every set-up
  Accounting acc_;              ///< the accounted phase's
};

}  // namespace

std::unique_ptr<Bench> make_engine_bench(const RunArgs& args) {
  return std::make_unique<EngineBench>(args);
}

}  // namespace perfbench
