// Layer counters shared by every workload: read through the layers' public
// stats() calls and the obs registry before and after a phase, and turned
// into per-layer metrics from the difference.  Also the output gates every
// workload applies to the database it drove.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "audit/online_certifier.h"
#include "common.h"
#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "wal/log.h"

namespace perfbench {

struct Counters {
  std::uint64_t acquires = 0;
  atp::LockStats lock;
  atp::EtRegistry::ChargeStats eps;
  atp::MvccStats mvcc;
  atp::GroupCommitStats group;
  std::uint64_t lsn = 0;
  std::uint64_t fsyncs = 0;
  atp::obs::MetricsSnapshot snap;
  atp::OnlineCertifierStats online;
};

/// `wal` and `online` may be null.
Counters read_counters(atp::Database& db, atp::LogDevice* wal,
                       atp::obs::MetricsRegistry& metrics,
                       const atp::OnlineCertifier* online);

/// Counter or gauge `name` in `snap` (0 when absent).
double sample_value(const atp::obs::MetricsSnapshot& snap,
                    const std::string& name);

/// `num / den`, or 0 when there is nothing to divide by.
inline double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Checkpoints issued between epochs keep the in-memory log bounded; their
/// records and fsyncs are not the workload's and are subtracted.
struct CheckpointCost {
  std::uint64_t lsns = 0;
  std::uint64_t fsyncs = 0;
};
void checkpoint(atp::Database& db, atp::LogDevice& wal, CheckpointCost& cost);

/// Lock, eps, mvcc, WAL and db metrics over `txns` attempted transactions.
void add_counter_metrics(Report& rep, const Counters& a, const Counters& b,
                         double txns, const CheckpointCost& ckpt, bool wal);

/// Gate: the committed balances sum to `total`.
void gate_money(Report& rep,
                const std::unordered_map<atp::Key, atp::Value>& state,
                atp::Value total);

/// Gate: after a crash that tears the unsynced log tail, a fresh Database
/// recovered from `wal` holds exactly `state`, the acknowledged committed
/// state.
void gate_recovery(Report& rep, atp::LogDevice& wal,
                   const std::unordered_map<atp::Key, atp::Value>& state);

}  // namespace perfbench
