#include "layers.h"

#include <cmath>

namespace perfbench {

using namespace atp;

Counters read_counters(Database& db, LogDevice* wal,
                       obs::MetricsRegistry& metrics,
                       const OnlineCertifier* online) {
  Counters c;
  for (const LockStripeSnapshot& s : db.locks().stripe_stats()) {
    c.acquires += s.acquires;
  }
  c.lock = db.locks().stats();
  c.eps = db.registry().charge_stats();
  c.mvcc = db.store().mvcc_stats();
  if (wal != nullptr) {
    c.group = db.group_committer()->stats();
    c.lsn = wal->next_lsn();
    c.fsyncs = wal->fsync_count();
  }
  c.snap = metrics.snapshot();
  if (online != nullptr) c.online = online->stats();
  return c;
}

double sample_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::Sample* p = snap.find(name);
  return p == nullptr ? 0 : p->value;
}

void checkpoint(Database& db, LogDevice& wal, CheckpointCost& cost) {
  const std::uint64_t lsn0 = wal.next_lsn();
  const std::uint64_t f0 = wal.fsync_count();
  db.checkpoint();
  cost.lsns += wal.next_lsn() - lsn0;
  cost.fsyncs += wal.fsync_count() - f0;
}

void add_counter_metrics(Report& rep, const Counters& a, const Counters& b,
                         double txns, const CheckpointCost& ckpt, bool wal) {
  auto delta = [&](const char* name) {
    return sample_value(b.snap, name) - sample_value(a.snap, name);
  };
  const double commits = delta("db.commits");
  rep.add("db.aborts_per_txn", per(delta("db.aborts"), txns), "count");
  rep.add("lock.acquires_per_txn", per(double(b.acquires - a.acquires), txns), "count");
  rep.add("lock.waits_per_txn", per(double(b.lock.waits - a.lock.waits), txns), "count");
  rep.add("lock.deadlocks", double(b.lock.deadlocks - a.lock.deadlocks), "count");
  rep.add("lock.timeouts", double(b.lock.timeouts - a.lock.timeouts), "count");
  rep.add("eps.charges_per_txn",
          per(double(b.eps.charges_ok - a.eps.charges_ok), txns), "count");
  const auto rejected = [](const EtRegistry::ChargeStats& s) {
    return s.rejected_import + s.rejected_export + s.rejected_admission;
  };
  rep.add("eps.rejected", double(rejected(b.eps) - rejected(a.eps)), "count");
  rep.add("eps.used_frac.query",
          per(b.eps.retired_query_used - a.eps.retired_query_used,
              b.eps.retired_query_limit - a.eps.retired_query_limit),
          "ratio");
  rep.add("eps.used_frac.update",
          per(b.eps.retired_update_used - a.eps.retired_update_used,
              b.eps.retired_update_limit - a.eps.retired_update_limit),
          "ratio");
  rep.add("mvcc.snapshots_per_txn",
          per(double(b.mvcc.snapshots_acquired - a.mvcc.snapshots_acquired), txns),
          "count");
  rep.add("mvcc.versions_per_commit",
          per(double(b.mvcc.versions_published - a.mvcc.versions_published), commits),
          "count");
  rep.add("mvcc.gc_per_commit",
          per(double(b.mvcc.gc_reclaimed - a.mvcc.gc_reclaimed), commits), "count");
  rep.add("mvcc.snapshot_too_old",
          double(b.mvcc.snapshot_too_old - a.mvcc.snapshot_too_old), "count");
  if (wal) {
    const double sync = double(b.group.sync_commits - a.group.sync_commits);
    rep.add("wal.records_per_commit",
            per(double(b.lsn - a.lsn - ckpt.lsns), sync), "count");
    rep.add("wal.fsyncs_per_commit",
            per(double(b.fsyncs - a.fsyncs - ckpt.fsyncs), sync), "count");
    rep.add("wal.batched_frac",
            per(double(b.group.batched - a.group.batched), sync), "ratio");
  }
}

void gate_money(Report& rep, const std::unordered_map<Key, Value>& state,
                Value total) {
  Value money = 0;
  for (const auto& kv : state) money += kv.second;
  rep.gate(std::fabs(double(money - total)) < 1e-6,
           "money not conserved: " + std::to_string(double(money)) + " vs " +
               std::to_string(double(total)));
}

void gate_recovery(Report& rep, LogDevice& wal,
                   const std::unordered_map<Key, Value>& state) {
  wal.tear_to_durable();
  DatabaseOptions ro;
  ro.scheduler = SchedulerKind::DC;
  ro.wal = &wal;
  Database recovered(ro);
  (void)recovered.recover_from_wal();
  rep.gate(recovered.store().snapshot_committed() == state,
           "WAL recovery does not reproduce the committed state");
}

}  // namespace perfbench
