#include "audit/online_certifier.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "obs/metrics_registry.h"

namespace atp {
namespace {

// Same float tolerance as the offline ESR replay (esr_certifier.cpp): the
// windowed ledger performs the identical additions in the identical order.
[[nodiscard]] bool over(Value accumulated, Value limit) noexcept {
  return accumulated > limit + 1e-9 * std::max<Value>(1, std::fabs(limit));
}

[[nodiscard]] DepKind dep_kind(bool from_write, bool to_write) noexcept {
  if (from_write && to_write) return DepKind::WW;
  if (from_write) return DepKind::WR;
  return DepKind::RW;
}

[[nodiscard]] std::string node_label(AuditNode n) {
  std::ostringstream out;
  if (audit_node_site(n) != 0) out << "site" << audit_node_site(n) << ":";
  out << "T" << audit_node_txn(n);
  return out.str();
}

// Readers lists compact once they pass this many entries (retired readers
// are dropped; their edges could never matter again).  Keeps a read-hot,
// write-cold key from accumulating one entry per reader forever.
constexpr std::size_t kReaderCompactThreshold = 16;

// Key-table garbage collection cadence, in pumps.  The sweep is O(keys), so
// it is amortized rather than run every cycle.
constexpr std::uint64_t kKeyGcPeriod = 256;

}  // namespace

OnlineCertifier::OnlineCertifier(Tracer& tracer, OnlineCertifierOptions opts)
    : tracer_(tracer), opts_(opts), sub_(tracer.subscribe()) {
  if (opts_.metrics != nullptr) {
    metrics_ = opts_.metrics;
    collector_id_ = metrics_->add_collector(
        [this](obs::SnapshotBuilder& b) { publish(b); });
  }
}

OnlineCertifier::~OnlineCertifier() {
  stop();
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

void OnlineCertifier::start() {
  std::lock_guard ctl(ctl_mu_);
  if (running_) return;
  stop_requested_.store(false);
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void OnlineCertifier::run_loop() {
  while (!stop_requested_.load()) {
    pump();
    std::this_thread::sleep_for(opts_.poll_interval);
  }
}

void OnlineCertifier::stop() {
  std::lock_guard ctl(ctl_mu_);
  if (running_) {
    stop_requested_.store(true);
    thread_.join();
    running_ = false;
  }
  // Final pass: with recorders quiesced every ticketed seq is published, so
  // the horizon covers the whole history and the verdict is complete.
  std::lock_guard lock(mu_);
  pump_locked(/*final_pass=*/true);
}

void OnlineCertifier::pump() {
  std::lock_guard lock(mu_);
  pump_locked(/*final_pass=*/false);
}

void OnlineCertifier::pump_locked(bool final_pass) {
  // batch_ is reused across pumps: at engine rate a drain holds tens of
  // thousands of events, and a fresh vector each pump would leave the pump
  // thread's allocator holding the high-water mark of every size.
  sub_->drain(batch_);
  if (batch_.dropped > 0) {
    stats_.dropped_events = batch_.dropped;
    stats_.degraded = true;
  }

  // Merge the batch into the reorder buffer (both already seq-sorted).  An
  // empty buffer trades storage with the batch, so both keep capacity.
  if (buffer_.empty()) {
    buffer_.swap(batch_.events);
  } else if (!batch_.events.empty()) {
    const std::size_t mid = buffer_.size();
    buffer_.insert(buffer_.end(), batch_.events.begin(), batch_.events.end());
    std::inplace_merge(buffer_.begin(), buffer_.begin() + mid, buffer_.end(),
                       [](const TraceEvent& x, const TraceEvent& y) {
                         return x.seq < y.seq;
                       });
  }

  // Consume the strictly-ordered prefix.  Events past the horizon may still
  // have unpublished predecessors, so they wait for the next pump; a final
  // pass (recorders quiesced) consumes everything.
  std::size_t n = 0;
  while (n < buffer_.size() &&
         (final_pass || buffer_[n].seq < batch_.stable_before)) {
    process_event(buffer_[n]);
    ++n;
  }
  const bool processed_any = n > 0;
  if (processed_any) buffer_.erase(buffer_.begin(), buffer_.begin() + n);

  retire_sweep();
  if (++pump_count_ % kKeyGcPeriod == 0) gc_keys();

  const std::int64_t now = tracer_.now_us();
  std::int64_t lag = 0;
  if (!buffer_.empty()) {
    lag = now - buffer_.front().ts_us;  // oldest event still unprocessed
  } else if (processed_any) {
    lag = now - last_processed_ts_;  // caught up: last record-to-process
  }
  stats_.window_lag_us = std::max<std::int64_t>(0, lag);
  stats_.max_lag_us = std::max(stats_.max_lag_us, stats_.window_lag_us);
}

OnlineCertifier::TxnState& OnlineCertifier::ensure_txn(AuditNode node,
                                                       std::uint64_t seq,
                                                       SiteId site) {
  auto [it, inserted] = txns_.try_emplace(node);
  if (inserted) {
    it->second.site = site;
    it->second.first_seq = seq;
    it->second.last_seq = seq;
    ++stats_.live_txns;
  }
  return it->second;
}

void OnlineCertifier::process_event(const TraceEvent& e) {
  ++stats_.events_processed;
  last_processed_ts_ = e.ts_us;
  const AuditNode node = audit_node(e.site, e.txn);
  switch (e.kind) {
    case TraceKind::TxnBegin: {
      TxnState& t = ensure_txn(node, e.seq, e.site);
      if (e.key != 0) t.snapshot_plus1 = e.key;  // snapshot txn: key = snap+1
      break;
    }
    case TraceKind::Read:
    case TraceKind::Write: {
      if (!opts_.check_sr) break;  // no graph: ops need not queue
      TxnState& t = ensure_txn(node, e.seq, e.site);
      if (t.status != TxnState::Status::Live) break;  // late straggler
      t.last_seq = e.seq;
      const SiteKey sk{e.site, e.key};
      keys_[sk].pending.push_back(
          PendingOp{e.seq, node, e.key, e.kind == TraceKind::Write, e.aux});
      ++t.ops_pending;
      ++stats_.pending_ops;
      if (std::find(t.touched.begin(), t.touched.end(), sk) ==
          t.touched.end()) {
        t.touched.push_back(sk);
      }
      break;
    }
    case TraceKind::FuzzImport: {
      TxnState& t = ensure_txn(node, e.seq, e.site);
      t.imported += e.a;
      if (opts_.check_esr && !t.import_over && over(t.imported, e.b)) {
        t.import_over = true;
        t.import_viol = EsrViolation{EsrViolationKind::ImportOverrun, node,
                                     e.seq, t.imported, e.b};
      }
      break;
    }
    case TraceKind::FuzzExport: {
      TxnState& t = ensure_txn(node, e.seq, e.site);
      t.exported += e.a;
      if (opts_.check_esr && !t.export_over && over(t.exported, e.b)) {
        t.export_over = true;
        t.export_viol = EsrViolation{EsrViolationKind::ExportOverrun, node,
                                     e.seq, t.exported, e.b};
      }
      break;
    }
    case TraceKind::TxnCommit: {
      TxnState& t = ensure_txn(node, e.seq, e.site);
      if (t.status != TxnState::Status::Live) break;
      decide_commit(t, node, e);
      break;
    }
    case TraceKind::TxnAbort: {
      TxnState& t = ensure_txn(node, e.seq, e.site);
      if (t.status != TxnState::Status::Live) break;
      t.status = TxnState::Status::Aborted;
      --stats_.live_txns;
      std::vector<SiteKey> touched;
      touched.swap(t.touched);
      // The drains may erase this transaction (ops_pending hitting zero
      // frees an aborted entry), so `t` is dead past this point.
      for (const SiteKey& sk : touched) drain_key(sk);
      auto it = txns_.find(node);
      if (it != txns_.end() && it->second.ops_pending == 0) txns_.erase(it);
      break;
    }
    default:
      break;
  }
}

void OnlineCertifier::decide_commit(TxnState& t, AuditNode node,
                                    const TraceEvent& e) {
  t.last_seq = e.seq;
  t.commit_seq = e.aux;  // version stamp of this txn's installs (0: none)
  if (opts_.check_esr) {
    // Commit-time Z must equal the replayed ledger, and any overrun seen
    // while live now belongs to a *committed* ET: report it.
    const Value replayed = t.imported + t.exported;
    if (std::fabs(replayed - e.a) >
        1e-9 * std::max<Value>(1, std::fabs(replayed))) {
      record_esr_violation(EsrViolation{EsrViolationKind::LedgerMismatch,
                                        node, e.seq, replayed, e.a});
    }
    if (t.import_over) record_esr_violation(t.import_viol);
    if (t.export_over) record_esr_violation(t.export_viol);
  }
  t.status = TxnState::Status::Committed;
  --stats_.live_txns;
  ++stats_.window_nodes;
  stats_.window_nodes_peak =
      std::max(stats_.window_nodes_peak, stats_.window_nodes);
  std::vector<SiteKey> touched;
  touched.swap(t.touched);
  // Draining can grow edges and run cycle checks; `t` stays valid (commits
  // never erase their own entry), but drain via the key list, not `t`.
  for (const SiteKey& sk : touched) drain_key(sk);
}

void OnlineCertifier::drain_key(const SiteKey& sk) {
  auto kit = keys_.find(sk);
  if (kit == keys_.end()) return;
  KeyState& ks = kit->second;
  while (!ks.pending.empty()) {
    const PendingOp op = ks.pending.front();
    auto it = txns_.find(op.node);
    if (it == txns_.end()) {
      // Unreachable in a complete trace; tolerated under dropped events.
      ks.pending.pop_front();
      --stats_.pending_ops;
      continue;
    }
    TxnState& t = it->second;
    if (t.status == TxnState::Status::Live) break;  // head undecided: stall
    ks.pending.pop_front();
    --t.ops_pending;
    --stats_.pending_ops;
    if (t.status == TxnState::Status::Aborted) {
      if (t.ops_pending == 0) txns_.erase(it);
      continue;
    }
    apply_op(ks, op);
  }
}

void OnlineCertifier::apply_op(KeyState& ks, const PendingOp& op) {
  if (op.is_write) {
    const std::uint64_t cseq = txns_.at(op.node).commit_seq;
    if (!ks.writers.empty() && ks.writers.back().node != op.node) {
      add_edge(ks.writers.back(), /*from_write=*/true, op);
    }
    // Listed readers are exactly those with no successor version at their
    // apply time; writes apply in commit-seq order, so this write is every
    // listed reader's first successor (rw anti-dependency).
    for (const KeyRef& r : ks.readers) {
      if (r.node != op.node) add_edge(r, /*from_write=*/false, op);
    }
    ks.readers.clear();
    if (cseq == 0) {
      // Legacy trace: only the last writer can ever conflict again.
      ks.writers.clear();
    } else if (ks.writers.size() >= kReaderCompactThreshold) {
      compact_writers(ks);
    }
    ks.writers.push_back(KeyRef{op.node, op.seq, cseq});
    return;
  }
  if (op.version == ~std::uint64_t{0}) return;  // read of own staged write
  if (op.version != 0) {
    // Versioned read: arrival order is irrelevant; the version stamp names
    // the installer (wr) and pins the successor (rw).
    const std::uint64_t v = op.version - 1;
    const KeyRef* successor = nullptr;
    for (const KeyRef& w : ks.writers) {
      if (w.version == v && w.node != op.node) {
        add_edge(w, /*from_write=*/true, op);
      }
      if (w.version > v && successor == nullptr) successor = &w;
    }
    if (successor != nullptr) {
      // reader -> successor's installer, recorded from the reader's side:
      // swap roles so the edge points reader -> writer.
      if (successor->node != op.node) {
        const PendingOp as_write{successor->seq, successor->node, op.key,
                                 /*is_write=*/true, 0};
        add_edge(KeyRef{op.node, op.seq, op.version},
                 /*from_write=*/false, as_write);
      }
      return;  // anti-dependency resolved: no need to list the reader
    }
  } else {
    // Legacy read: conflicts with the last writer by arrival order.
    if (!ks.writers.empty() && ks.writers.back().node != op.node) {
      add_edge(ks.writers.back(), /*from_write=*/true, op);
    }
  }
  const bool known =
      std::any_of(ks.readers.begin(), ks.readers.end(),
                  [&](const KeyRef& r) { return r.node == op.node; });
  if (!known) {
    if (ks.readers.size() >= kReaderCompactThreshold) compact_readers(ks);
    ks.readers.push_back(KeyRef{op.node, op.seq, op.version});
  }
}

void OnlineCertifier::add_edge(const KeyRef& from, bool from_write,
                               const PendingOp& to) {
  auto fit = txns_.find(from.node);
  // A retired source is sound to skip: it retired as a graph *source*
  // (fully applied, zero in-degree), so no path can ever enter it and no
  // cycle can pass through it (see the header's retirement invariant).
  if (fit == txns_.end()) return;
  TxnState& f = fit->second;
  if (f.status != TxnState::Status::Committed) return;
  for (const OutEdge& e : f.out) {
    if (e.to == to.node) return;  // one witness per (from, to), like offline
  }
  auto tit = txns_.find(to.node);
  if (tit == txns_.end()) return;  // unreachable: `to` is mid-apply
  const OutEdge edge{to.node, to.key, dep_kind(from_write, to.is_write),
                     from.seq, to.seq};
  f.out.push_back(edge);
  ++tit->second.in_degree;
  ++stats_.edges_added;
  if (check_cycle(from.node, to.node, edge)) {
    // Report-and-drain: the witness is recorded, so drop the closing edge
    // to keep the graph acyclic -- the window keeps retiring after a
    // violation instead of pinning the cycle's members forever.
    f.out.pop_back();
    --tit->second.in_degree;
  }
}

bool OnlineCertifier::check_cycle(AuditNode from, AuditNode to,
                                  const OutEdge& closing) {
  // Only the new edge can close a cycle, and any such cycle contains the
  // path to -> ... -> from.  Iterative DFS over the committed window,
  // keeping the predecessor edge for witness reconstruction.
  struct Pred {
    AuditNode node = 0;
    const OutEdge* edge = nullptr;
  };
  std::unordered_map<AuditNode, Pred> pred;
  std::unordered_set<AuditNode> visited{to};
  std::vector<AuditNode> stack{to};
  bool found = false;
  while (!stack.empty() && !found) {
    const AuditNode n = stack.back();
    stack.pop_back();
    auto it = txns_.find(n);
    if (it == txns_.end()) continue;
    for (const OutEdge& e : it->second.out) {
      if (visited.count(e.to) != 0) continue;
      auto tit = txns_.find(e.to);
      if (tit == txns_.end() ||
          tit->second.status != TxnState::Status::Committed) {
        continue;
      }
      visited.insert(e.to);
      pred[e.to] = Pred{n, &e};
      if (e.to == from) {
        found = true;
        break;
      }
      stack.push_back(e.to);
    }
  }
  if (!found) return false;

  // Cycle: from -(closing)-> to -> ... -> from.  Walk predecessors back
  // from `from`, then render in forward order, offline describe() style.
  struct Hop {
    AuditNode src = 0;
    const OutEdge* edge = nullptr;
  };
  std::vector<Hop> hops;
  for (AuditNode cur = from; cur != to;) {
    const Pred& p = pred.at(cur);
    hops.push_back(Hop{p.node, p.edge});
    cur = p.node;
  }
  std::ostringstream out;
  out << "SR violation: " << node_label(from) << " -" << to_string(closing.kind)
      << "[key " << closing.key << "]-> ";
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    out << node_label(it->src) << " -" << to_string(it->edge->kind) << "[key "
        << it->edge->key << "]-> ";
  }
  out << node_label(from);
  ++stats_.sr_violations;
  record_violation(OnlineViolation{OnlineViolation::Kind::SrCycle, from,
                                   closing.to_seq, out.str()});
  return true;
}

void OnlineCertifier::record_violation(OnlineViolation v) {
  if (witnesses_.size() < opts_.max_witnesses) {
    witnesses_.push_back(std::move(v));
  }
}

void OnlineCertifier::record_esr_violation(const EsrViolation& v) {
  ++stats_.esr_violations;
  OnlineViolation::Kind kind = OnlineViolation::Kind::EsrLedgerMismatch;
  if (v.kind == EsrViolationKind::ImportOverrun) {
    kind = OnlineViolation::Kind::EsrImportOverrun;
  } else if (v.kind == EsrViolationKind::ExportOverrun) {
    kind = OnlineViolation::Kind::EsrExportOverrun;
  }
  std::ostringstream out;
  out << "ESR violation: [" << to_string(v.kind);
  if (audit_node_site(v.node) != 0) out << " site" << audit_node_site(v.node);
  out << " T" << audit_node_txn(v.node) << ": " << v.accumulated << " vs "
      << v.limit << " at seq " << v.seq << "]";
  record_violation(OnlineViolation{kind, v.node, v.seq, out.str()});
}

bool OnlineCertifier::retirable(const TxnState& t,
                                std::uint64_t snapshot_floor) noexcept {
  // Committed, every op applied (so no future *incoming* edge exists from
  // the node's own side -- an edge u -> n is otherwise only recorded when
  // one of n's own ops applies), and no recorded incoming edge left: a
  // graph source.  Nothing can ever enter such a node again, so it can
  // never join a cycle and is safe to drop.  Seq watermarks are
  // deliberately not consulted: a node can stay a key's last writer forever
  // and gain an outgoing edge from a transaction that begins arbitrarily
  // later, so no low-watermark frontier is sound.
  //
  // Versioned writers have one extra way to gain an incoming edge: a live
  // snapshot transaction older than their commit seq can still apply a
  // read that anti-depends on them (rw into the successor's installer).
  // Hold such writers until every live snapshot has caught up.
  return t.status == TxnState::Status::Committed && t.ops_pending == 0 &&
         t.in_degree == 0 &&
         (t.commit_seq == 0 || t.commit_seq <= snapshot_floor);
}

std::uint64_t OnlineCertifier::live_snapshot_floor() const noexcept {
  // Minimum snapshot over live snapshot transactions; no live snapshot
  // means nothing constrains writer retirement.
  std::uint64_t floor = ~std::uint64_t{0};
  for (const auto& [node, t] : txns_) {
    (void)node;
    if (t.status != TxnState::Status::Live || t.snapshot_plus1 == 0) continue;
    floor = std::min(floor, t.snapshot_plus1 - 1);
  }
  return floor;
}

void OnlineCertifier::retire_sweep() {
  // Drain the committed DAG from its sources, Kahn style: each retirement
  // removes the node's outgoing edges, which may expose its successors, so
  // the sweep cascades until no source is left.  On a clean (acyclic)
  // history this empties every decided prefix; nodes on a detected cycle
  // do not pin the window either, because check_cycle drops closing edges.
  const std::uint64_t floor = live_snapshot_floor();
  std::vector<AuditNode> ready;
  for (const auto& [node, t] : txns_) {
    if (retirable(t, floor)) ready.push_back(node);
  }
  while (!ready.empty()) {
    const AuditNode node = ready.back();
    ready.pop_back();
    auto it = txns_.find(node);
    if (it == txns_.end()) continue;
    for (const OutEdge& e : it->second.out) {
      auto tit = txns_.find(e.to);
      if (tit == txns_.end()) continue;
      TxnState& succ = tit->second;
      if (--succ.in_degree == 0 && retirable(succ, floor)) {
        ready.push_back(e.to);
      }
    }
    txns_.erase(it);
    ++stats_.retired_nodes;
    --stats_.window_nodes;
  }
}

void OnlineCertifier::compact_readers(KeyState& ks) {
  ks.readers.erase(std::remove_if(ks.readers.begin(), ks.readers.end(),
                                  [&](const KeyRef& r) {
                                    return txns_.count(r.node) == 0;
                                  }),
                   ks.readers.end());
}

void OnlineCertifier::compact_writers(KeyState& ks) {
  // Retired writers' edges no longer matter (nothing can reach a retired
  // node); drop their entries.  The relative commit-seq order of the
  // survivors is preserved.
  ks.writers.erase(std::remove_if(ks.writers.begin(), ks.writers.end(),
                                  [&](const KeyRef& w) {
                                    return txns_.count(w.node) == 0;
                                  }),
                   ks.writers.end());
}

void OnlineCertifier::gc_keys() {
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyState& ks = it->second;
    if (!ks.pending.empty()) {
      ++it;
      continue;
    }
    compact_readers(ks);
    compact_writers(ks);
    if (ks.readers.empty() && ks.writers.empty()) {
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
}

OnlineCertifierStats OnlineCertifier::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::vector<OnlineViolation> OnlineCertifier::violations() const {
  std::lock_guard lock(mu_);
  return witnesses_;
}

void OnlineCertifier::publish(obs::SnapshotBuilder& b) const {
  const OnlineCertifierStats s = stats();
  b.counter("audit.online.violations", double(s.violations()));
  b.counter("audit.online.sr_violations", double(s.sr_violations));
  b.counter("audit.online.esr_violations", double(s.esr_violations));
  b.counter("audit.online.events_processed", double(s.events_processed));
  b.counter("audit.online.edges", double(s.edges_added));
  b.counter("audit.online.retired_nodes", double(s.retired_nodes));
  b.counter("audit.online.dropped_events", double(s.dropped_events));
  b.gauge("audit.online.window_nodes", double(s.window_nodes));
  b.gauge("audit.online.live_txns", double(s.live_txns));
  b.gauge("audit.online.pending_ops", double(s.pending_ops));
  b.gauge("audit.online.window_lag_us", double(s.window_lag_us));
  b.gauge("audit.online.degraded", s.degraded ? 1.0 : 0.0);
}

}  // namespace atp
