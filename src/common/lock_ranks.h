// Central lock-rank manifest: every mutex in src/ is declared as an
// OrderedMutex<Rank> (see common/ordered_lock.h) naming exactly one entry of
// this enum.  A thread may only acquire locks in strictly increasing rank
// order; in ATP_LOCK_CHECK builds any out-of-order acquisition aborts with a
// witness (the held ranks plus their acquisition sites), and the observed
// acquired-while-holding edges feed a global lock-order graph whose cycles
// dump as minimal witnesses, SC-cycle style.
//
// Reading the table: lower rank = acquired EARLIER (outer lock), higher rank
// = acquired LATER (inner lock).  The numbers are spaced by 10 so a new lock
// can usually slot between two existing ranks without renumbering.
//
// How to add a lock:
//   1. Find every path that holds an existing lock while taking yours, and
//      every path that holds yours while taking an existing one.  Your rank
//      must sit strictly between them.
//   2. Add the enum entry here, with a comment naming the owning declaration
//      (atp-lint --mode=threads cross-checks that every OrderedMutex
//      instantiation names a manifest rank: rule TH002).
//   3. Declare the member as atp::OrderedMutex<LockRank::kYourRank> and
//      run the tier-1 suite under ATP_LOCK_CHECK=ON (the default); a wrong
//      rank aborts the first test that exercises the nesting.
//
// The ordering below is derived from the code's actual nesting chains, the
// load-bearing ones being:
//   server stop    -> sessions -> session close -> db locks      (10<20<140+)
//   obs snapshot   -> component stats locks (stripe, txn, net)   (70<140+)
//   site dispatch  -> subtxn commit -> db locks                  (80<140+)
//   queue endpoint -> wal append / net send                      (100<210/240)
//   lock stripe    -> waits-for graph                            (140<150)
//   lock stripe    -> store commit / store / registry / tracer   (140<165+)
//                     (the tracer lock is its ring registry, taken only by
//                     a thread's first record; recording is otherwise
//                     lock-free)
//   txn shard      -> txn charge ("shard then charge")           (190<200)
//   net inbox      -> sim transport (SimTransport::poll's claim) (240<245)
//   net inbox      -> net state ("inbox then state")             (240<250)
#pragma once

#include <cstdint>

namespace atp {

enum class LockRank : std::uint16_t {
  /// AtpServer::stop_mu_ — serializes stop(); held across thread joins and
  /// the whole session teardown, so it is the outermost lock in the system.
  kServerStop = 10,
  /// AtpServer::sessions_mu_ — connection table; held across Session::close
  /// during shutdown (which aborts transactions, taking db locks).
  kServerSessions = 20,
  /// AtpServer::queue_mu_ — executor slots + the ready-queue of sessions
  /// fed while every slot was busy (takes kSession for Session::take_next).
  kServerQueue = 30,
  /// Session::mu_ — per-session frame decoder + pipeline state.
  kSession = 40,
  /// TcpTransport::mu_ — connection map only (insert, erase, lookup); no
  /// syscall runs under it.
  kTransport = 50,
  /// TcpTransport::Conn::mu — one connection's fd, write queue and one-shot
  /// arming state; held across that connection's send/recv/epoll_ctl.
  /// Never held together with kTransport.
  kTransportConn = 55,
  /// obs::ObsServer::registry_mu_ — exporter's registry pointer; held while
  /// snapshotting the registry (rank kObsRegistry).
  kObsExporter = 60,
  /// obs::MetricsRegistry::mu_ — instrument map; snapshot() runs collector
  /// callbacks under it, and those read component stats (stripes, txn
  /// registry, net state...), so this ranks BELOW all db-layer locks.
  kObsRegistry = 70,
  /// OnlineCertifier::ctl_mu_ — serializes start()/stop(); held across the
  /// pump-thread join and across the final drain, which takes kOnlineCert.
  kOnlineCertCtl = 72,
  /// OnlineCertifier::mu_ — streaming certifier window state.  Below the
  /// db layer because nothing db-side is taken under it, and above
  /// kObsRegistry because the metrics collector reads certifier stats while
  /// holding the registry lock; the pump thread holds it while draining the
  /// trace subscription (kTraceRegistry, far higher).
  kOnlineCert = 75,
  /// Site::mu_ — per-site executor state; held while stashed subtransactions
  /// commit or abort (taking db locks).
  kSite = 80,
  /// Database::crash_mu_ — serializes crash/recover against each other.
  kDbCrash = 90,
  /// RecoverableQueue Endpoint::mu_ — queue state; transmit_locked appends
  /// to the WAL and sends on the network while holding it.
  kQueueEndpoint = 100,
  /// Executor WorkerQueue::mu (engine/executor.cpp) — per-worker deque.
  kExecutorQueue = 110,
  /// PieceAccountant::mu (engine/piece_runner.cpp) — epsilon budget split.
  kPieceAccount = 120,
  /// DistExecutor pending_mu (dist/dist_executor.cpp) — coordinator inbox.
  kDistPending = 130,
  /// LockManager Stripe::mu — the 16 lock-table stripes; the heart of the
  /// db layer.  Holds kWaitsFor, kStoreMap, kTxnStruct, kTraceRegistry
  /// chains while granting/denying.
  kLockStripe = 140,
  /// LockManager::wait_mu_ — global waits-for graph ("stripe then wait,
  /// never the reverse").
  kWaitsFor = 150,
  /// Store::commit_mu_ — commit-sequence allocation, version publication and
  /// the live-snapshot registry; held across map/stripe lookups while a
  /// commit publishes its version chain entries.
  kStoreCommit = 165,
  /// Store::map_mu_ — key->cell map (shared for lookups, exclusive for
  /// crash/snapshot).
  kStoreMap = 170,
  /// Store per-cell stripes_ — value mutation under a held map lock.
  kStoreStripe = 180,
  /// EtRegistry Shard::mu — the 16 ET-registry shards' table structure
  /// ("a shard's mu (shared) then charge_mu_").  All shards share this
  /// rank, so no path ever holds two of them: bulk reads visit the shards
  /// one at a time.
  kTxnStruct = 190,
  /// EtRegistry::charge_mu_ — epsilon charge serialization.
  kTxnCharge = 200,
  /// GroupCommitter::mu_ — flush-leader election + durable-LSN waiters; the
  /// leader runs the device fsync (rank kWal) after releasing it.  Sync
  /// commits already covered by a flush never take it.
  kWalGroup = 205,
  /// LogDevice::mu_ — WAL append serialization; one acquisition per commit
  /// (append_txn).  The durable frontier is an atomic read outside it.
  kWal = 210,
  /// AdmissionController::mu_ — epsilon-class admission ledger.
  kAdmission = 230,
  /// SimNetwork Inbox::mu — per-site delivery queue ("inbox then state").
  kNetInbox = 240,
  /// SimTransport::mu_ — open/held connection sets.  SimTransport::poll's
  /// claim runs inside the SimNetwork inbox lock and takes it there.
  kSimTransport = 245,
  /// SimNetwork::state_mu_ — site up/down + partition matrix.
  kNetState = 250,
  /// FaultInjector::mu_ — fault schedule table (leaf under net/wal paths).
  kFault = 260,
  /// Tracer::registry_mu_ — per-thread ring registry.  A thread's first
  /// record() registers its ring under it (below any db lock the caller
  /// holds); readers take it only to list the rings.  The rings themselves
  /// are lock-free.
  kTraceRegistry = 270,
  /// Histogram::mu_ — sample reservoirs; recorded/summarized at the very
  /// bottom of any chain (e.g. stripe stats under a stripe lock).
  kHistogram = 290,
};

/// Manifest name for witnesses and reports.
[[nodiscard]] constexpr const char* to_string(LockRank r) noexcept {
  switch (r) {
    case LockRank::kServerStop: return "kServerStop";
    case LockRank::kServerSessions: return "kServerSessions";
    case LockRank::kServerQueue: return "kServerQueue";
    case LockRank::kSession: return "kSession";
    case LockRank::kTransport: return "kTransport";
    case LockRank::kTransportConn: return "kTransportConn";
    case LockRank::kObsExporter: return "kObsExporter";
    case LockRank::kObsRegistry: return "kObsRegistry";
    case LockRank::kOnlineCertCtl: return "kOnlineCertCtl";
    case LockRank::kOnlineCert: return "kOnlineCert";
    case LockRank::kSite: return "kSite";
    case LockRank::kDbCrash: return "kDbCrash";
    case LockRank::kQueueEndpoint: return "kQueueEndpoint";
    case LockRank::kExecutorQueue: return "kExecutorQueue";
    case LockRank::kPieceAccount: return "kPieceAccount";
    case LockRank::kDistPending: return "kDistPending";
    case LockRank::kLockStripe: return "kLockStripe";
    case LockRank::kWaitsFor: return "kWaitsFor";
    case LockRank::kStoreCommit: return "kStoreCommit";
    case LockRank::kStoreMap: return "kStoreMap";
    case LockRank::kStoreStripe: return "kStoreStripe";
    case LockRank::kTxnStruct: return "kTxnStruct";
    case LockRank::kTxnCharge: return "kTxnCharge";
    case LockRank::kWalGroup: return "kWalGroup";
    case LockRank::kWal: return "kWal";
    case LockRank::kAdmission: return "kAdmission";
    case LockRank::kNetInbox: return "kNetInbox";
    case LockRank::kSimTransport: return "kSimTransport";
    case LockRank::kNetState: return "kNetState";
    case LockRank::kFault: return "kFault";
    case LockRank::kTraceRegistry: return "kTraceRegistry";
    case LockRank::kHistogram: return "kHistogram";
  }
  return "kUnknownRank";
}

}  // namespace atp
