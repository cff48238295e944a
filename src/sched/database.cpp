#include "sched/database.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ranges>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/retry.h"
#include "obs/http_exporter.h"

namespace atp {

namespace {

/// Force the log, retrying failed fsyncs until the records are durable.
/// A failed fsync (injected; real disks return EIO) made NOTHING durable,
/// so the only correct move on a commit-critical path is to try again --
/// returning success early would break the write-ahead contract.  Commits
/// go through the GroupCommitter instead; this is the checkpoint path.
void force_log(LogDevice* wal, std::uint64_t seed) {
  const RetryPolicy policy = RetryPolicy::wal_fsync();
  for (std::uint64_t attempt = 1; !wal->fsync(); ++attempt) {
    std::this_thread::sleep_for(policy.delay(attempt, seed));
  }
}

/// Database pull collector: epsilon-budget telemetry from the ET registry,
/// the per-stripe lock contention heatmap, the version store's mvcc.*
/// counters and the group committer's wal.group.* family.  Runs at snapshot
/// time only; the hot paths pay nothing for it.
void collect_db_samples(const EtRegistry& registry, const LockManager& locks,
                        const Store& store, const LogDevice* wal,
                        const GroupCommitter* group,
                        obs::SnapshotBuilder& out) {
  const EtRegistry::ChargeStats cs = registry.charge_stats();
  out.counter("eps.charges_ok", double(cs.charges_ok));
  out.counter("eps.rejected_import", double(cs.rejected_import));
  out.counter("eps.import_charged", cs.import_charged);
  out.counter("eps.retired.query.count", double(cs.retired_query_count));
  out.counter("eps.retired.query.unlimited",
              double(cs.retired_query_unlimited));
  out.counter("eps.retired.query.used", cs.retired_query_used);
  out.counter("eps.retired.query.limit", cs.retired_query_limit);
  out.counter("eps.retired.update.count", double(cs.retired_update_count));

  // Live ETs: the queries' budget consumption (finite limits only --
  // infinite budgets would make the utilization ratio meaningless).
  // Updates have no budget and are only counted.
  double live_q_used = 0, live_q_limit = 0;
  std::uint64_t live_q = 0, live_u = 0, live_q_inf = 0;
  for (const EtRegistry::Entry& e : registry.snapshot_all()) {
    if (e.kind == TxnKind::Query) {
      ++live_q;
      if (std::isinf(double(e.spec.import_limit))) {
        ++live_q_inf;
      } else {
        live_q_used += double(e.imported);
        live_q_limit += double(e.spec.import_limit);
      }
    } else {
      ++live_u;
    }
  }
  out.gauge("eps.live.query.count", double(live_q));
  out.gauge("eps.live.query.unlimited", double(live_q_inf));
  out.gauge("eps.live.query.used", live_q_used);
  out.gauge("eps.live.query.limit", live_q_limit);
  out.gauge("eps.live.update.count", double(live_u));
  out.gauge("db.live_ets", double(live_q + live_u));

  // Per-stripe contention heatmap.
  const auto stripes = locks.stripe_stats();
  out.gauge("lock.stripes", double(stripes.size()));
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const LockStripeSnapshot& s = stripes[i];
    const std::string p = "lock.stripe." + std::to_string(i) + ".";
    out.counter(p + "acquires", double(s.acquires));
    out.counter(p + "waits", double(s.stats.waits));
    out.counter(p + "deadlocks", double(s.stats.deadlocks));
    out.counter(p + "timeouts", double(s.stats.timeouts));
    out.gauge(p + "waiters", double(s.waiters_now));
    out.counter(p + "max_waiters", double(s.max_waiters));
    out.histogram(p + "acquire_us", s.acquire_us);
  }

  // Version store.
  const MvccStats ms = store.mvcc_stats();
  out.counter("mvcc.commit_seq", double(ms.commit_seq));
  out.counter("mvcc.versions_published", double(ms.versions_published));
  out.counter("mvcc.gc_reclaimed", double(ms.gc_reclaimed));
  out.counter("mvcc.snapshot_too_old", double(ms.snapshot_too_old));
  out.counter("mvcc.snapshots_acquired", double(ms.snapshots_acquired));
  out.gauge("mvcc.live_snapshots", double(ms.live_snapshots));

  // Group commit (WAL-attached databases only).
  if (group != nullptr) {
    const GroupCommitStats gs = group->stats();
    const double commits = double(gs.sync_commits + gs.async_commits);
    out.counter("wal.group.commits_sync", double(gs.sync_commits));
    out.counter("wal.group.commits_async", double(gs.async_commits));
    out.counter("wal.group.flushes", double(gs.flushes));
    out.counter("wal.group.batched", double(gs.batched));
    out.counter("wal.group.async_self_flushes",
                double(gs.async_self_flushes));
    out.gauge("wal.group.fsyncs_per_commit",
              commits > 0 ? double(gs.flushes) / commits : 0.0);
    out.gauge("wal.group.durable_lsn", double(wal->durable_lsn()));
  }
}

}  // namespace

Database::Database(DatabaseOptions opts)
    : opts_(opts),
      locks_(opts.lock_timeout),
      dc_resolver_(registry_, store_) {
  locks_.set_trace(opts.tracer, opts.site_id);
  registry_.set_trace(opts.tracer, opts.site_id);
  if (opts_.wal != nullptr) {
    group_ = std::make_unique<GroupCommitter>(*opts_.wal);
  }

  metrics_ = opts_.metrics;
  if (metrics_ == nullptr && opts_.metrics_port != 0) {
    // Endpoint requested without a registry: own a private one.
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (metrics_ != nullptr) {
    commit_counter_ = &metrics_->counter("db.commits");
    abort_counter_ = &metrics_->counter("db.aborts");
    collector_id_ = metrics_->add_collector([this](obs::SnapshotBuilder& b) {
      collect_db_samples(registry_, locks_, store_, opts_.wal, group_.get(),
                         b);
    });
    if (opts_.metrics_port != 0) {
      server_ = std::make_unique<obs::ObsServer>(metrics_, opts_.metrics_port);
    }
  }
}

Database::~Database() {
  server_.reset();  // join the serve thread before the registry can go
  if (metrics_ != nullptr && collector_id_ != 0) {
    metrics_->remove_collector(collector_id_);
  }
}

void Database::load(Key key, Value value) {
  const Status s = store_.load(key, value);
  // Bulk load is a setup-time operation; loading over a key some live
  // transaction is writing is a harness bug, not a runtime condition.
  assert(s.ok() && "Database::load over a key with an in-flight writer");
  (void)s;
}

Txn Database::begin(TxnKind kind, EpsilonSpec spec, TxnId parent,
                    TxnOptions topts) {
  const TxnId id = registry_.begin(kind, spec, parent);
  Txn t(this, id, kind);
  t.topts_ = topts;
  t.state_ = Txn::State::Active;
  t.crash_epoch_ = crash_epoch();
  // Query ETs read versions at a snapshot pinned here; update ETs read
  // through their locks and register none.
  if (kind == TxnKind::Query) {
    t.snapshot_ = store_.snapshot_acquire([&](std::uint64_t snap) {
      // Emitted inside the store's commit mutex: the trace interleaves
      // begins with commit publications in true commit-sequence order,
      // which is what lets the version-aware certifiers reason about
      // snapshot visibility.  TxnBegin.key carries snapshot+1 (0 = no
      // snapshot).
      Tracer::emit(opts_.tracer, TraceKind::TxnBegin, opts_.site_id, id,
                   snap + 1, spec.import_limit, 0, 0, parent);
    });
    t.has_snapshot_ = true;
  } else {
    Tracer::emit(opts_.tracer, TraceKind::TxnBegin, opts_.site_id, id, 0,
                 spec.import_limit, 0, kind == TxnKind::Update ? 1 : 0,
                 parent);
  }
  return t;
}

void Database::crash(const std::unordered_set<TxnId>* survivors) {
  {
    std::lock_guard lock(crash_mu_);
    crash_survivors_.clear();
    if (survivors != nullptr) crash_survivors_ = *survivors;
  }
  crash_epoch_.fetch_add(1, std::memory_order_acq_rel);
  store_.crash(survivors);
}

void Database::checkpoint() {
  LogDevice* wal = opts_.wal;
  if (wal == nullptr) return;
  const auto snapshot = store_.snapshot_committed();
  std::uint64_t first_kv = wal->next_lsn();
  for (const auto& [key, value] : snapshot) {
    LogRecord r;
    r.type = LogRecordType::kCheckpointKv;
    r.key = key;
    r.value = value;
    wal->append(std::move(r));
  }
  LogRecord marker;
  marker.type = LogRecordType::kCheckpoint;
  marker.qmsg_id = first_kv;  // start of this checkpoint's kv run
  wal->append(std::move(marker));
  force_log(wal, first_kv);

  // Truncation point: the checkpoint covers committed state ONLY.  Records
  // the snapshot cannot stand in for must survive, however old they are:
  //   * every record of an undecided transaction (no kCommit/kAbort yet) --
  //     in-doubt 2PC participants' kWrite/kPrepare, or a concurrent ET's
  //     staged writes;
  //   * a committed kQueueEnqueue not yet acknowledged (retransmit source);
  //   * a kQueueDeliver not yet consumed by a committed transaction
  //     (redelivery source + dedupe evidence);
  //   * the piece-1 commit record of an open continuation (a chopped
  //     transaction with a piece still to run) -- and with it every later
  //     piece's stamp, all of which follow it in LSN order.
  // Dropping any of these (the old behavior truncated at first_kv flat) made
  // a post-checkpoint crash forget in-doubt staged writes and pending queue
  // traffic -- exactly the state recovery exists to reinstate.
  const std::vector<LogRecord> records = read_log_chunked(*wal);
  std::unordered_set<TxnId> decided;
  std::unordered_set<std::uint64_t> acked;
  std::unordered_set<std::uint64_t> consumed;  // by a committed txn
  std::unordered_set<TxnId> winners;
  for (const LogRecord& r : records) {
    if (r.type == LogRecordType::kCommit) {
      decided.insert(r.txn);
      winners.insert(r.txn);
    } else if (r.type == LogRecordType::kAbort) {
      decided.insert(r.txn);
    } else if (r.type == LogRecordType::kQueueAck) {
      acked.insert(r.qmsg_id);
    }
  }
  for (const LogRecord& r : records) {
    if (r.type == LogRecordType::kQueueConsume &&
        (r.txn == kInvalidTxn || winners.count(r.txn))) {
      consumed.insert(r.qmsg_id);
    }
  }
  std::uint64_t keep_from = first_kv;
  for (const OpenContinuation& oc : open_continuations(records)) {
    keep_from = std::min(keep_from, oc.lsn);
  }
  for (const LogRecord& r : records) {
    bool needed = false;
    switch (r.type) {
      case LogRecordType::kBegin:
      case LogRecordType::kWrite:
      case LogRecordType::kPrepare:
        needed = !decided.count(r.txn);
        break;
      case LogRecordType::kQueueEnqueue:
        // Pending (txn undecided) or committed-but-unacked: both needed.
        needed = !acked.count(r.qmsg_id) &&
                 (r.txn == kInvalidTxn || !decided.count(r.txn) ||
                  winners.count(r.txn));
        break;
      case LogRecordType::kQueueDeliver:
        needed = !consumed.count(r.qmsg_id);
        break;
      case LogRecordType::kQueueConsume:
        // A pending consume (its txn undecided) must keep its record so a
        // post-crash redo neither replays nor forgets the claim wrongly.
        needed = r.txn != kInvalidTxn && !decided.count(r.txn);
        break;
      default:
        break;
    }
    if (needed) {
      keep_from = std::min(keep_from, r.lsn);
      break;  // records are LSN-ordered: the first hit is the oldest
    }
  }
  wal->truncate_before(keep_from);
}

RecoveryResult Database::recover_from_wal() {
  assert(opts_.wal != nullptr && "recover_from_wal requires options().wal");
  RecoveryResult result = recover_from_log(*opts_.wal, store_);
  std::lock_guard lock(crash_mu_);
  recovered_continuations_ = result.continuations;
  return result;
}

std::vector<OpenContinuation> Database::take_continuations() {
  std::lock_guard lock(crash_mu_);
  return std::exchange(recovered_continuations_, {});
}

// ---------------------------------------------------------------------------
// Txn

Txn& Txn::operator=(Txn&& other) noexcept {
  assert(state_ != State::Active && "moving over an active transaction");
  db_ = other.db_;
  id_ = other.id_;
  kind_ = other.kind_;
  topts_ = other.topts_;
  crash_epoch_ = other.crash_epoch_;
  state_ = other.state_;
  final_fuzziness_ = other.final_fuzziness_;
  commit_lsn_ = other.commit_lsn_;
  snapshot_ = other.snapshot_;
  has_snapshot_ = other.has_snapshot_;
  dc_charged_ = std::move(other.dc_charged_);
  write_set_ = std::move(other.write_set_);
  stamp_ = std::move(other.stamp_);
  lock_stripes_ = other.lock_stripes_;
  commit_hooks_ = std::move(other.commit_hooks_);
  abort_hooks_ = std::move(other.abort_hooks_);
  other.state_ = State::Invalid;
  other.db_ = nullptr;
  other.has_snapshot_ = false;  // the snapshot registration moved with us
  return *this;
}

Txn::~Txn() {
  if (state_ == State::Active) abort();
}

void Txn::release_snapshot() noexcept {
  if (has_snapshot_ && db_ != nullptr) {
    db_->store_.snapshot_release(snapshot_);
  }
  has_snapshot_ = false;
}

Result<Value> Txn::read(Key key) {
  if (state_ != State::Active)
    return Status::FailedPrecondition("read on inactive txn");
  if (kind_ == TxnKind::Query) {
    // Lock-free versioned read.  CC queries see exactly their snapshot (a
    // read-only snapshot transaction is serializable -- it serializes at
    // the snapshot point); DC queries read the freshest version their
    // import budget absorbs (DcResolver).  kAborted = snapshot too old:
    // the caller retries the whole ET on a fresh snapshot.
    Result<VersionRead> v =
        db_->opts_.scheduler == SchedulerKind::DC
            ? db_->dc_resolver_.read_fresh(id_, key, snapshot_, dc_charged_)
            : db_->store_.read_snapshot(key, snapshot_);
    if (!v.ok()) return v.status();
    Tracer::emit(db_->opts_.tracer, TraceKind::Read, db_->opts_.site_id, id_,
                 key, v.value().value, 0, v.value().seq + 1);
    return v.value().value;
  }
  // Update ET: S lock, strict 2PL among updates.
  lock_stripes_ |= LockManager::stripe_bit(key);
  Status s = db_->locks_.acquire(id_, key, LockMode::Shared);
  if (!s.ok()) return s;
  // Holding S excludes every foreign writer, so a dirty value here can only
  // be our own staged write (we hold X too); it is traced with the own-write
  // sentinel instead of a version sequence.
  Result<OwnedRead> v = db_->store_.read_for_update(id_, key);
  if (!v.ok()) return v.status();
  Tracer::emit(db_->opts_.tracer, TraceKind::Read, db_->opts_.site_id, id_,
               key, v.value().value, 0, v.value().trace_version);
  return v.value().value;
}

Status Txn::write(Key key, Value value) {
  if (state_ != State::Active)
    return Status::FailedPrecondition("write on inactive txn");
  if (kind_ != TxnKind::Update)
    return Status::InvalidArgument("query ETs are read-only");
  // Plain strict 2PL: X conflicts only with other updates now that queries
  // read versions.  Nothing is charged at write time -- a query that
  // wants to see past our commit pays from its own import budget when it
  // reads (DcResolver::read_fresh), priced off version timestamps.
  lock_stripes_ |= LockManager::stripe_bit(key);
  Status s = db_->locks_.acquire(id_, key, LockMode::Exclusive);
  if (!s.ok()) return s;
  Status w = db_->store_.write(id_, key, value);
  if (!w.ok()) return w;
  note_staged(key, value);
  return Status::Ok();
}

void Txn::note_staged(Key key, Value value) {
  auto staged = std::find_if(write_set_.begin(), write_set_.end(),
                             [key](const auto& kv) { return kv.first == key; });
  if (staged == write_set_.end()) {
    write_set_.emplace_back(key, value);
  } else {
    staged->second = value;
  }
  Tracer::emit(db_->opts_.tracer, TraceKind::Write, db_->opts_.site_id, id_,
               key, value);
}

Status Txn::add(Key key, Value delta) {
  if (state_ != State::Active)
    return Status::FailedPrecondition("add on inactive txn");
  if (kind_ != TxnKind::Update)
    return Status::InvalidArgument("query ETs are read-only");

  lock_stripes_ |= LockManager::stripe_bit(key);
  Status s = db_->locks_.acquire(id_, key, LockMode::Exclusive);
  if (!s.ok()) return s;

  // One store visit reads the base -- our own staged value (a re-add on a
  // key we already wrote, traced with the own-write sentinel) or the
  // committed version the increment builds on -- and stages base + delta.
  Result<OwnedRead> base = db_->store_.stage_add(id_, key, delta);
  if (!base.ok()) return base.status();
  Tracer::emit(db_->opts_.tracer, TraceKind::Read, db_->opts_.site_id, id_,
               key, base.value().value, 0, base.value().trace_version);
  note_staged(key, base.value().value + delta);
  return Status::Ok();
}

Status Txn::commit() {
  if (state_ != State::Active)
    return Status::FailedPrecondition("commit on inactive txn");
  // Crash-epoch guard: if the site crashed since begin, our staged writes
  // are gone -- committing now would apply nothing while still firing the
  // commit hooks (forwarding queue continuations for work that never
  // happened).  Prepared 2PC survivors are the one legitimate exception.
  if (crash_epoch_ != db_->crash_epoch()) {
    bool survivor;
    {
      std::lock_guard lock(db_->crash_mu_);
      survivor = db_->crash_survivors_.count(id_) > 0;
    }
    if (!survivor) {
      abort();
      return Status::Aborted("site crashed after this transaction began");
    }
  }
  // Write-ahead discipline: after-images + the commit record are appended
  // (one device append, contiguous LSNs, commit record last) before any
  // effect applies, and durability is a GROUP affair.  A sync commit waits
  // until the flush leader's fsync covers its commit record; an async
  // commit reports success now and is covered by the next flush (a crash
  // in the window loses it -- the contract the caller chose).  Queue
  // enqueue/consume records were staged earlier, tagged with this txn id;
  // the commit record is what activates them at recovery.  A chopped
  // piece's stamp (log_piece) rides in the same commit record.
  const Value z = db_->registry_.fuzziness_of(id_);
  if (LogDevice* wal = db_->opts_.wal; wal != nullptr) {
    stamp_.z = z;
    commit_lsn_ = wal->append_txn(id_, write_set_, LogRecordType::kCommit,
                                  std::move(stamp_));
    if (topts_.wait == CommitWait::kSync) {
      db_->group_->wait_durable(commit_lsn_, id_);
    } else {
      db_->group_->note_async(commit_lsn_, id_);
    }
  }
  // Publish the staged writes as one version-chain generation.  TxnCommit
  // is emitted inside the store's commit mutex (aux = commit sequence), so
  // trace order equals commit-sequence order -- what the version-aware
  // certifiers replay against.
  if (!write_set_.empty()) {
    db_->store_.commit_publish(
        id_, std::views::keys(write_set_), [&](std::uint64_t seq) {
          Tracer::emit(db_->opts_.tracer, TraceKind::TxnCommit,
                       db_->opts_.site_id, id_, 0, z, 0, seq);
        });
  } else {
    Tracer::emit(db_->opts_.tracer, TraceKind::TxnCommit, db_->opts_.site_id,
                 id_, 0, z);
  }
  // Commit hooks make external effects (recoverable-queue sends/claims)
  // atomic with the data writes, before any lock is released.
  for (auto& hook : commit_hooks_) hook();
  commit_hooks_.clear();
  abort_hooks_.clear();
  final_fuzziness_ = db_->registry_.end_commit(id_);
  if (db_->commit_counter_ != nullptr) db_->commit_counter_->add();
  release_snapshot();
  db_->locks_.release_all(id_, lock_stripes_);
  state_ = State::Committed;
  return Status::Ok();
}

void Txn::log_prepare() {
  if (state_ != State::Active) return;
  LogDevice* wal = db_->opts_.wal;
  if (wal == nullptr) return;
  const std::uint64_t last =
      wal->append_txn(id_, write_set_, LogRecordType::kPrepare);
  // The vote must be stable before it is cast; prepares batch through the
  // group committer like any other force point.
  db_->group_->wait_durable(last, id_);
}

void Txn::abort() {
  if (state_ != State::Active) return;
  if (LogDevice* wal = db_->opts_.wal; wal != nullptr) {
    LogRecord a;
    a.type = LogRecordType::kAbort;
    a.txn = id_;
    wal->append(std::move(a));
  }
  for (Key k : std::views::keys(write_set_)) db_->store_.abort_key(id_, k);
  for (auto& hook : abort_hooks_) hook();
  commit_hooks_.clear();
  abort_hooks_.clear();
  db_->registry_.end_abort(id_);
  if (db_->abort_counter_ != nullptr) db_->abort_counter_->add();
  Tracer::emit(db_->opts_.tracer, TraceKind::TxnAbort, db_->opts_.site_id,
               id_);
  release_snapshot();
  db_->locks_.release_all(id_, lock_stripes_);
  state_ = State::Aborted;
}

Value Txn::fuzziness() const {
  if (state_ == State::Active) return db_->registry_.fuzziness_of(id_);
  return final_fuzziness_;
}

}  // namespace atp
