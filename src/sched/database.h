// Database facade: storage + lock manager + ET registry + scheduler policy.
//
// One Database instance is a "site" in the distributed layer or the whole
// system in the centralized benches.  The scheduler policy (CC or DC) is
// fixed at construction; it decides nothing except how a query ET reads:
// exactly its snapshot under CC, the freshest version its import budget
// absorbs under DC (see DcResolver).  Update ETs run strict 2PL under both.
//
// Transactions are driven through the Txn handle:
//
//   Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
//   t.add(kAccountX, -50);   // X-lock, read-modify-write
//   t.add(kAccountY, +50);
//   Status s = t.commit();   // or t.abort()
//
// Any op may fail with an abort-class status (deadlock victim, lock timeout,
// snapshot too old); the caller must then call abort().  Commit applies the
// staged writes, rolls the piece's fuzziness Z_p up into its parent's Z_t
// (Lemma 1), and releases all locks (strict 2PL).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "obs/metrics_registry.h"
#include "sched/dc_resolver.h"
#include "storage/store.h"
#include "trace/tracer.h"
#include "txn/epsilon.h"
#include "txn/registry.h"
#include "wal/group_commit.h"
#include "wal/recovery.h"

#include "common/ordered_lock.h"

namespace atp {

namespace obs {
class ObsServer;
}

enum class SchedulerKind : std::uint8_t {
  CC,  ///< strict two-phase locking concurrency control (serializable)
  DC,  ///< two-phase locking divergence control (epsilon serializable)
};

inline const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::CC: return "CC";
    case SchedulerKind::DC: return "DC";
  }
  return "?";
}

struct DatabaseOptions {
  SchedulerKind scheduler = SchedulerKind::CC;
  std::chrono::milliseconds lock_timeout{2000};
  /// Optional write-ahead log.  When set, commits append after-images + a
  /// commit record before applying (redo-only, no-steal discipline) and a
  /// GroupCommitter batches the commit fsyncs: sync commits wait for the
  /// group flush covering their LSN, async commits (TxnOptions) return at
  /// append.  Database::recover_from_wal() rebuilds the store after a
  /// total-loss crash.  Owned by the caller and must outlive the Database
  /// (it is the "disk").
  class LogDevice* wal = nullptr;
  /// Optional structured-event tracer (trace/tracer.h).  When set, the full
  /// transaction lifecycle -- begin/commit/abort, reads/writes, lock
  /// traffic, fuzziness charges -- is recorded for the audit certifiers.
  /// Owned by the caller; must outlive the Database.
  Tracer* tracer = nullptr;
  /// Site id stamped on every traced event (multi-site simulations give each
  /// Database its own id so transaction ids never collide in a shared trace).
  SiteId site_id = 0;
  /// Optional metrics registry (obs/metrics_registry.h).  When set, the
  /// Database registers a pull collector that publishes epsilon-budget
  /// telemetry (eps.*), the per-stripe lock contention heatmap
  /// (lock.stripe.<i>.*) and commit/abort counters (db.*) into every
  /// snapshot.  Owned by the caller; must outlive the Database.
  obs::MetricsRegistry* metrics = nullptr;
  /// When nonzero, serve metrics over HTTP on 127.0.0.1:<metrics_port>
  /// (GET /metrics = Prometheus text, /snapshot.json = JSON; port 0 with a
  /// registry set means no server).  If `metrics` is null the Database owns
  /// a private registry so the endpoint still works.  Off by default.
  std::uint16_t metrics_port = 0;
};

class Database;

/// Commit durability flavor (meaningful only with a WAL attached).
enum class CommitWait : std::uint8_t {
  kSync,   ///< commit() returns only after durable_lsn covers the commit
           ///< record (a group flush, not a private fsync)
  kAsync,  ///< commit() returns at append; durability arrives at the next
           ///< group flush.  A crash in the window loses the commit -- the
           ///< caller opted into that by choosing async.
};

/// Per-transaction knobs, fixed at begin().
struct TxnOptions {
  CommitWait wait = CommitWait::kSync;
};

/// Handle for one in-flight epsilon transaction (or chopped piece).
/// Move-only; outstanding handles must be committed or aborted before the
/// Database is destroyed.
class Txn {
 public:
  Txn() = default;
  Txn(Txn&& other) noexcept { *this = std::move(other); }
  Txn& operator=(Txn&& other) noexcept;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  /// Read a key.  Query ETs read versions at their snapshot
  /// (DC upgrades to the freshest version when the import budget absorbs
  /// the divergence) and never touch the lock manager; update ETs take an
  /// S lock (2PL).  kAborted = snapshot too old: abort and retry the ET.
  Result<Value> read(Key key);

  /// Overwrite a key (X lock; update ETs only).
  Status write(Key key, Value value);

  /// Read-modify-write: value += delta.  Takes X directly (no upgrade).
  Status add(Key key, Value delta);

  /// Commit: install writes, roll Z_p up to the parent, release locks.
  /// Returns the piece's accumulated fuzziness via fuzziness() afterwards.
  Status commit();

  /// Abort: discard staged writes, drop fuzziness, release locks.
  void abort();

  /// Register a hook to run inside commit(), after writes are installed but
  /// before locks release.  Recoverable queues use this to make message
  /// sends/claims part of the transaction's effects (Section 4: "messages
  /// sent through a recoverable queue are parts of transaction effects").
  void on_commit(std::function<void()> hook) {
    commit_hooks_.push_back(std::move(hook));
  }
  /// Register a hook to run inside abort() (e.g. unclaim dequeued messages).
  void on_abort(std::function<void()> hook) {
    abort_hooks_.push_back(std::move(hook));
  }

  /// 2PC participant vote: force-log the staged after-images plus a PREPARE
  /// record, so this transaction survives a total-loss crash as in-doubt.
  /// No-op without a WAL.
  void log_prepare();

  /// Mark this ET as piece `piece` of the chopped transaction whose
  /// continuation id is `continuation` (piece 1's TxnId; piece 1 passes its
  /// own id and its encoded Continuation as `payload`).  commit() writes the
  /// stamp into its commit record, so the piece's commit and the
  /// continuation's progress reach the log in one append
  /// (wal/continuation.h).  Call before commit(); meaningless without a WAL.
  void log_piece(TxnId continuation, std::uint32_t piece,
                 std::string payload = {}) {
    stamp_.continuation = continuation;
    stamp_.piece = piece;
    stamp_.payload = std::move(payload);
  }

  [[nodiscard]] TxnId id() const noexcept { return id_; }
  [[nodiscard]] TxnKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool active() const noexcept { return state_ == State::Active; }

  /// Z_p accumulated so far (live) or at commit (after commit()).
  [[nodiscard]] Value fuzziness() const;

  /// LSN of this transaction's commit record (0 until commit() with a WAL).
  /// An async commit is durable once LogDevice::durable_lsn() covers it.
  [[nodiscard]] std::uint64_t commit_lsn() const noexcept {
    return commit_lsn_;
  }

  /// Version-store snapshot this ET reads at (query ETs only; nullopt
  /// otherwise).
  [[nodiscard]] std::optional<std::uint64_t> snapshot() const noexcept {
    if (!has_snapshot_) return std::nullopt;
    return snapshot_;
  }

 private:
  friend class Database;
  enum class State : std::uint8_t { Invalid, Active, Committed, Aborted };

  Txn(Database* db, TxnId id, TxnKind kind) : db_(db), id_(id), kind_(kind) {}

  /// Record a value just staged in the store on `key`: the write set entry
  /// commit logs and publishes, and the trace Write.
  void note_staged(Key key, Value value);

  /// Drop the registered store snapshot, if any (commit/abort/move-out).
  void release_snapshot() noexcept;

  Database* db_ = nullptr;
  TxnId id_ = kInvalidTxn;
  TxnKind kind_ = TxnKind::Update;
  TxnOptions topts_;
  /// Database crash epoch captured at begin.  commit() refuses (returns
  /// Aborted) if the site crashed in between -- the staged writes were
  /// already wiped, so "committing" would silently apply nothing while the
  /// caller's commit hooks (queue forwards!) fired as if it had.  Prepared
  /// 2PC survivors are exempt: their staged writes were force-logged and
  /// reinstated, and they legitimately commit on the coordinator's decision.
  std::uint64_t crash_epoch_ = 0;
  State state_ = State::Invalid;
  Value final_fuzziness_ = 0;
  std::uint64_t commit_lsn_ = 0;
  /// Registered version-store snapshot (query ETs).
  std::uint64_t snapshot_ = 0;
  bool has_snapshot_ = false;
  /// DC only: divergence already imported per key (see DcResolver).
  std::unordered_map<Key, Value> dc_charged_;
  /// Staged writes as (key, after-image), one entry per key in first-write
  /// order.  An ET writes a handful of keys, so a linear scan on rewrite
  /// beats a hash set, and commit logs the after-images straight from here.
  std::vector<std::pair<Key, Value>> write_set_;
  /// Chopped-piece stamp for the commit record (log_piece).
  PieceStamp stamp_;
  /// Lock-table stripes this ET ever requested a lock in (bit set before
  /// each acquire): commit/abort release only those stripes.
  LockManager::StripeMask lock_stripes_ = 0;
  std::vector<std::function<void()>> commit_hooks_;
  std::vector<std::function<void()>> abort_hooks_;
};

class Database {
 public:
  explicit Database(DatabaseOptions opts = {});
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();

  /// Bulk-load a committed value (setup, not transactional).
  void load(Key key, Value value);

  /// Start an ET.  `parent` links a chopped piece to its original
  /// transaction for fuzziness roll-up.  Query ETs register a
  /// version-store snapshot here (released at commit/abort).
  [[nodiscard]] Txn begin(TxnKind kind, EpsilonSpec spec,
                          TxnId parent = kInvalidTxn, TxnOptions topts = {});

  [[nodiscard]] SchedulerKind scheduler() const noexcept {
    return opts_.scheduler;
  }

  Store& store() noexcept { return store_; }
  const Store& store() const noexcept { return store_; }
  /// The WAL's group committer (null without a WAL).
  [[nodiscard]] GroupCommitter* group_committer() noexcept {
    return group_.get();
  }
  EtRegistry& registry() noexcept { return registry_; }
  LockManager& locks() noexcept { return locks_; }
  Tracer* tracer() const noexcept { return opts_.tracer; }
  [[nodiscard]] SiteId site_id() const noexcept { return opts_.site_id; }

  /// The metrics registry this Database publishes into: the caller's
  /// (options().metrics), a private one (metrics_port set with no registry),
  /// or null when observability is not configured.
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  /// The embedded HTTP exporter, if metrics_port was set (null otherwise).
  [[nodiscard]] obs::ObsServer* metrics_server() const noexcept {
    return server_.get();
  }

  /// Simulated site failure: dirty data lost; live ETs must be abandoned by
  /// their drivers (their handles abort as no-ops afterwards).  `survivors`
  /// lists transactions whose staged writes persist -- 2PC participants in
  /// the *prepared* state, which a real system has force-logged.  Bumps the
  /// crash epoch: a Txn begun before the crash can no longer commit (it
  /// gets Status::Aborted) unless listed as a survivor.
  void crash(const std::unordered_set<TxnId>* survivors = nullptr);

  /// Current crash epoch (starts at 0, +1 per crash()).
  [[nodiscard]] std::uint64_t crash_epoch() const noexcept {
    return crash_epoch_.load(std::memory_order_acquire);
  }

  /// Quiescent checkpoint: snapshot every committed value into the WAL and
  /// truncate the log before it.  Caller guarantees no transactions or
  /// unacknowledged queue traffic are in flight.  No-op without a WAL.
  void checkpoint();

  /// Total-loss recovery: clear the store and rebuild it from the WAL.
  /// Returns the recovery report (in-doubt 2PC transactions, queue state to
  /// reinstate, open continuations).  The open continuations also stay
  /// with the Database until take_continuations() claims them.  Requires
  /// options().wal.
  [[nodiscard]] RecoveryResult recover_from_wal();

  /// Claim the open continuations the last recover_from_wal() found: the
  /// chopped transactions whose piece 1 committed before the crash and
  /// whose last piece did not.  The Executor finishes them
  /// (PieceRunner::resume) before it admits new work; a second call
  /// returns nothing.
  [[nodiscard]] std::vector<OpenContinuation> take_continuations();

  [[nodiscard]] const DatabaseOptions& options() const noexcept {
    return opts_;
  }

 private:
  friend class Txn;

  DatabaseOptions opts_;
  Store store_;
  LockManager locks_;
  EtRegistry registry_;
  DcResolver dc_resolver_;
  std::unique_ptr<GroupCommitter> group_;  // iff opts_.wal != nullptr

  // Crash-epoch guard state (see Txn::crash_epoch_).  The survivor set
  // holds the prepared transactions of the LATEST crash only; earlier
  // epochs' survivors have long since resolved by the next crash.
  std::atomic<std::uint64_t> crash_epoch_{0};
  mutable OrderedMutex<LockRank::kDbCrash> crash_mu_;  ///< rank kDbCrash
  std::unordered_set<TxnId> crash_survivors_;
  /// Open continuations from the last recovery, until claimed.
  std::vector<OpenContinuation> recovered_continuations_;  // under crash_mu_

  // --- Observability (all null/zero when unconfigured) ---
  // Declaration order matters: owned_metrics_ must outlive server_ (the
  // server reads the registry from its serve thread until joined).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::ObsServer> server_;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
  // Commit/abort tallies, push-incremented by Txn::commit/abort.  Pointers
  // into the registry's stable counter storage; null without a registry.
  obs::ShardedCounter* commit_counter_ = nullptr;
  obs::ShardedCounter* abort_counter_ = nullptr;
};

}  // namespace atp
