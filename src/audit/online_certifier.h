// Always-on windowed online certification: streaming SR/ESR.
//
// The offline certifiers (sr_certifier.h, esr_certifier.h) replay a finished
// trace, so a production run gets no safety verdict until shutdown and the
// dependency graph grows without bound.  The OnlineCertifier turns the same
// checks into a live oracle: it drains the tracer incrementally through a
// TraceSubscription (trace/tracer.h), maintains the direct-serialization
// graph over a *window* of recent transactions, replays the fuzziness ledger
// as transactions commit, and publishes its health as first-class obs
// instruments (audit.online.*).
//
// Window + retirement invariant.  Per (site, key) the certifier keeps the
// ops of undecided transactions in arrival (seq) order and applies an op
// only once its transaction's outcome is known -- committed ops extend the
// graph, aborted ops vanish.  Because ops apply strictly in seq order per
// key, a committed node whose ops have all been applied has already received
// every incoming edge it will ever have (an edge u -> n is created when n's
// own, later op applies).  Retirement drains the graph from its *sources*:
// once such a fully-applied node's in-degree reaches zero, no path can ever
// enter it again, so it can never join a cycle -- nor sit on one -- and it
// is safe to drop, together with its outgoing edges and the per-key
// reader/writer entries that point at it (each drop may expose successors,
// so the sweep cascades in topological order).  Edges whose source has
// retired are skipped rather than recorded, which is sound for the same
// reason: nothing can ever reach a retired node.  Note that retirement
// deliberately does NOT key on sequence-number watermarks: a committed node
// can stay a key's last writer indefinitely and gain an outgoing edge from
// a transaction that begins arbitrarily later, closing a cycle through its
// already-recorded incoming edges -- so no seq low-watermark frontier is
// sound; only the absence of incoming edges is.
//
// Version-stamped traces (the multi-version store) add one wrinkle: a
// snapshot read can APPLY after the writer of its version's successor did,
// creating an rw edge INTO a node none of whose own ops are pending -- so
// "all ops applied" no longer implies "no future incoming edge" for
// writers.  Retirement therefore also requires a writer's commit seq to be
// at or below the minimum snapshot of every live transaction: once no live
// snapshot predates the writer's versions, no future read can anti-depend
// on it.  When a cycle IS found, the
// witness is recorded and the closing edge dropped ("report-and-drain"), so
// the graph stays acyclic and the window keeps retiring after a violation.
// Memory is therefore bounded by the live transactions plus the undrained
// suffix of the committed DAG, not by the length of the run.
//
// Equivalence with the offline certifiers: the offline SR check adds an edge
// for every conflicting pair of committed ops; the online graph keeps only
// the adjacent conflicts (last writer, readers since that write), but every
// skipped pair is bridged by a path through committed intermediate nodes, so
// cycle existence -- the verdict -- is identical.  The ESR replay is the
// same arithmetic, applied as commits stream past.  tests/audit_online_test
// asserts verdict equality on recorded concurrent traces.
//
// Confidence: if the subscription reports dropped events (ring overwritten
// before a drain), the window may be missing edges and the certifier raises
// a sticky degraded flag (audit.online.degraded) instead of silently
// certifying a partial history.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "trace/tracer.h"

#include "common/ordered_lock.h"

namespace atp {

namespace obs {
class MetricsRegistry;
class SnapshotBuilder;
}  // namespace obs

struct OnlineCertifierOptions {
  /// Check conflict-serializability.  On for CC-scheduled databases; leave
  /// off under DC, where fuzzy reads make ET-level SR cycles the
  /// *paid-for* divergence (ESR is the contract being certified there).
  bool check_sr = true;
  /// Replay the fuzziness ledger against each ET's eps-spec.
  bool check_esr = true;
  /// Background pump cadence for start(); pump() can also be driven by hand.
  std::chrono::milliseconds poll_interval{2};
  /// Witness strings retained for violations (counters keep counting past
  /// this; the first few witnesses are what an operator actually reads).
  std::size_t max_witnesses = 8;
  /// When set, publishes audit.online.* through a pull collector (removed
  /// on destruction; the registry must outlive the certifier).
  obs::MetricsRegistry* metrics = nullptr;
};

/// One detected violation with a rendered witness, offline-report style.
struct OnlineViolation {
  enum class Kind : std::uint8_t {
    SrCycle,
    EsrImportOverrun,
    EsrLedgerMismatch,
  };
  Kind kind = Kind::SrCycle;
  AuditNode node = 0;     ///< offending transaction (one cycle member for SR)
  std::uint64_t seq = 0;  ///< event seq at which it was detected
  std::string witness;    ///< e.g. "SR violation: T7 -rw[key 3]-> T9 ..."
};

struct OnlineCertifierStats {
  std::uint64_t events_processed = 0;
  std::uint64_t sr_violations = 0;
  std::uint64_t esr_violations = 0;
  std::uint64_t edges_added = 0;
  std::uint64_t retired_nodes = 0;   ///< cumulative
  std::uint64_t dropped_events = 0;  ///< subscription-level losses
  std::size_t window_nodes = 0;      ///< committed, not yet retired
  std::size_t window_nodes_peak = 0;
  std::size_t live_txns = 0;    ///< begun, outcome not yet seen
  std::size_t pending_ops = 0;  ///< ops queued behind undecided txns
  std::int64_t window_lag_us = 0;  ///< record-to-process latency, last pump
  std::int64_t max_lag_us = 0;
  bool degraded = false;  ///< sticky: events were dropped at some point

  [[nodiscard]] std::uint64_t violations() const {
    return sr_violations + esr_violations;
  }
};

class OnlineCertifier {
 public:
  /// Subscribes to `tracer` (which must outlive this object).  Nothing runs
  /// until start() or pump().
  explicit OnlineCertifier(Tracer& tracer, OnlineCertifierOptions opts = {});
  ~OnlineCertifier();
  OnlineCertifier(const OnlineCertifier&) = delete;
  OnlineCertifier& operator=(const OnlineCertifier&) = delete;

  /// Spawn the background pump thread (idempotent).  Safe to race with
  /// stop() from another control thread.
  void start();

  /// Join the pump thread and run one final drain.  Called after recorders
  /// have quiesced, this leaves a complete verdict over the whole run.
  /// Safe to race with start() from another control thread.
  void stop();

  /// One drain + ingest + retirement cycle.  Safe from any thread; tests
  /// drive it directly for determinism.
  void pump();

  [[nodiscard]] OnlineCertifierStats stats() const;

  /// Retained violation witnesses (at most options.max_witnesses).
  [[nodiscard]] std::vector<OnlineViolation> violations() const;

 private:
  struct SiteKey {
    SiteId site;
    Key key;
    bool operator==(const SiteKey&) const = default;
  };
  struct SiteKeyHash {
    std::size_t operator()(const SiteKey& k) const noexcept {
      return std::hash<std::uint64_t>()((std::uint64_t(k.site) << 48) ^
                                        k.key);
    }
  };

  /// An op waiting in a key's queue for its transaction's outcome.
  struct PendingOp {
    std::uint64_t seq = 0;
    AuditNode node = 0;
    Key key = 0;
    bool is_write = false;
    /// Read.aux from the trace: version seq + 1 for a versioned read, ~0
    /// for a read of the transaction's own staged write, 0 on legacy traces.
    std::uint64_t version = 0;
  };

  /// A committed op already applied to the key (conflict source).
  struct KeyRef {
    AuditNode node = 0;
    std::uint64_t seq = 0;
    /// For readers: the version seq read (0 on legacy traces).  For writers:
    /// the commit seq of the version installed (0 on legacy traces).
    std::uint64_t version = 0;
  };

  struct KeyState {
    std::deque<PendingOp> pending;  ///< seq order; head blocks on undecided
    /// Committed reads still awaiting their rw successor (versioned mode:
    /// no later version installed yet; legacy mode: since the last write).
    std::vector<KeyRef> readers;
    /// Installed versions, in commit-seq order.  Legacy traces keep exactly
    /// one entry (the last writer); versioned traces keep a history so a
    /// snapshot read that applies late still finds its version's installer
    /// (compacted as writers retire).
    std::vector<KeyRef> writers;
  };

  struct OutEdge {
    AuditNode to = 0;
    Key key = 0;
    DepKind kind = DepKind::WW;
    std::uint64_t from_seq = 0;
    std::uint64_t to_seq = 0;
  };

  struct TxnState {
    enum class Status : std::uint8_t { Live, Committed, Aborted };
    Status status = Status::Live;
    SiteId site = 0;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t commit_seq = 0;     ///< TxnCommit.aux (0: read-only/legacy)
    std::uint64_t snapshot_plus1 = 0; ///< TxnBegin.key (0: not a snapshot txn)
    std::uint32_t ops_pending = 0;   ///< our ops still queued on keys
    std::uint32_t in_degree = 0;     ///< recorded edges pointing at us
    std::vector<SiteKey> touched;    ///< keys to drain when we decide
    // Windowed fuzziness ledger (mirrors the offline ESR account).
    Value imported = 0;
    bool import_over = false;
    EsrViolation import_viol;
    std::vector<OutEdge> out;  ///< serialization-graph edges (committed)
  };

  void pump_locked(bool final_pass);
  void process_event(const TraceEvent& e);
  TxnState& ensure_txn(AuditNode node, std::uint64_t seq, SiteId site);
  void decide_commit(TxnState& t, AuditNode node, const TraceEvent& e);
  void drain_key(const SiteKey& sk);
  void apply_op(KeyState& ks, const PendingOp& op);
  void add_edge(const KeyRef& from, bool from_write, const PendingOp& to);
  /// New edge from -> to inserted: search for a path to -> ... -> from.
  /// Returns true (after recording the witness) when a cycle was found.
  bool check_cycle(AuditNode from, AuditNode to, const OutEdge& closing);
  void record_violation(OnlineViolation v);
  void record_esr_violation(const EsrViolation& v);
  [[nodiscard]] static bool retirable(const TxnState& t,
                                      std::uint64_t snapshot_floor) noexcept;
  [[nodiscard]] std::uint64_t live_snapshot_floor() const noexcept;
  void retire_sweep();
  void compact_readers(KeyState& ks);
  void compact_writers(KeyState& ks);
  void gc_keys();
  void publish(obs::SnapshotBuilder& b) const;
  void run_loop();

  Tracer& tracer_;
  const OnlineCertifierOptions opts_;
  std::unique_ptr<TraceSubscription> sub_;  // pump thread only (under mu_)
  TraceSubscription::Batch batch_;  ///< drain target, reused across pumps

  mutable OrderedMutex<LockRank::kOnlineCert> mu_;  // rank kOnlineCert: window state; obs collector reads stats under it
  std::unordered_map<AuditNode, TxnState> txns_;    ///< live + window
  std::unordered_map<SiteKey, KeyState, SiteKeyHash> keys_;
  std::vector<TraceEvent> buffer_;  ///< past-horizon events awaiting order
  std::vector<OnlineViolation> witnesses_;
  OnlineCertifierStats stats_{};
  std::int64_t last_processed_ts_ = 0;
  std::uint64_t pump_count_ = 0;

  mutable OrderedMutex<LockRank::kOnlineCertCtl> ctl_mu_;  // rank kOnlineCertCtl: start/stop serialization; held across the join and the final drain (kOnlineCert)
  std::thread thread_;           // under ctl_mu_
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;  // under ctl_mu_

  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint64_t collector_id_ = 0;
};

}  // namespace atp
