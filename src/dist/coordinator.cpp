#include "dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/stopwatch.h"
#include "engine/piece_runner.h"
#include "fault/retry.h"
#include "wal/continuation.h"

namespace atp {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<std::uint64_t> g_next_gtid{1};

constexpr const char* kChopQueueUpdate = "chop.update";
constexpr const char* kChopQueueQuery = "chop.query";

const char* chop_queue_for(TxnKind kind) {
  return kind == TxnKind::Query ? kChopQueueQuery : kChopQueueUpdate;
}

TxnKind kind_of_chop_queue(const std::string& queue) {
  return queue == kChopQueueQuery ? TxnKind::Query : TxnKind::Update;
}

/// Limit_t's distributor over a chain of `pieces` pieces.  Every piece is
/// restricted: a site boundary lets each one interleave with any other
/// transaction.
std::unique_ptr<LimitDistributor> chain_limits(TxnKind kind, Value limit,
                                               DistPolicy policy,
                                               std::size_t pieces) {
  return make_distributor(
      policy,
      ChopPlanInfo::chain(std::vector<bool>(pieces, true), kind, limit));
}

/// Run `ops` on `txn` up to the first failure.
Status run_ops(Txn& txn, const std::vector<Access>& ops) {
  for (const Access& op : ops) {
    if (Result<Value> r = run_op(txn, op); !r.ok()) return r.status();
  }
  return Status::Ok();
}

/// Commit-round outcome telemetry, pushed into the home site's registry (the
/// coordinator has no instruments of its own; protocol rounds dominate, so a
/// name lookup per outcome is noise).
void dist_count(Site& home, const std::string& name) {
  if (obs::MetricsRegistry* reg = home.db().metrics(); reg != nullptr) {
    reg->counter(name).add();
  }
}

void dist_record(Site& home, const std::string& name, double v) {
  if (obs::MetricsRegistry* reg = home.db().metrics(); reg != nullptr) {
    reg->histogram(name).record(v);
  }
}

}  // namespace

std::string encode_gtid(std::uint64_t gtid) {
  std::string out;
  for (int i = 0; i < 8; ++i) out.push_back(char((gtid >> (8 * i)) & 0xff));
  return out;
}

std::optional<std::uint64_t> decode_gtid(std::string_view bytes) {
  if (bytes.size() != 8) return std::nullopt;
  std::uint64_t gtid = 0;
  for (int i = 0; i < 8; ++i) {
    gtid |= std::uint64_t(std::uint8_t(bytes[std::size_t(i)])) << (8 * i);
  }
  return gtid;
}

Coordinator::Coordinator(Site& home, std::vector<Site*> sites)
    : home_(home), sites_(std::move(sites)) {}

Result<DistOutcome> Coordinator::run_2pc(
    const DistTxnSpec& spec, bool validation_round,
    std::chrono::milliseconds decision_timeout) {
  assert(!spec.pieces.empty());
  const std::uint64_t gtid = g_next_gtid.fetch_add(1);
  Stopwatch clock;

  // --- execution phase: one subtransaction per site ------------------------
  // (ops run in-process against each remote Database; the network is charged
  // only for protocol rounds, which favours the baseline).  Each runs with
  // the limit limits/ gives its piece, and reports what it drew from it.
  const auto limits = chain_limits(spec.kind, spec.limit, spec.policy,
                                   spec.pieces.size());
  std::vector<SiteId> participants;  // remote sites, home excluded
  std::vector<Txn> txns;
  txns.reserve(spec.pieces.size());
  for (std::size_t p = 0; p < spec.pieces.size(); ++p) {
    const DistPieceSpec& piece = spec.pieces[p];
    Txn txn = sites_[piece.site]->db().begin(
        spec.kind, spec_for(spec.kind, limits->limit_for(p)));
    Status s = run_ops(txn, piece.ops);
    if (!s.ok()) {
      txn.abort();
      for (Txn& t : txns) t.abort();
      dist_count(home_, "dist.2pc.aborted");
      return s;
    }
    limits->report_committed(p, txn.fuzziness());
    if (piece.site != home_.id()) participants.push_back(piece.site);
    txns.push_back(std::move(txn));
  }
  // Hand remote subtransactions to their sites (they commit on decision).
  for (std::size_t i = 0; i < spec.pieces.size(); ++i) {
    if (spec.pieces[i].site == home_.id()) continue;
    sites_[spec.pieces[i].site]->stash_subtransaction(gtid,
                                                      std::move(txns[i]));
  }

  // One round trip to every participant, retransmitting to the silent ones
  // until `deadline`.  A lost or delayed message is NOT a vote: only an
  // explicit NO (or the deadline) fails the round.  A reply to any of the
  // round's sends to a participant answers it, so a retransmit never
  // orphans the reply already on its way; every other reply of this
  // transaction (to an earlier round, or to a participant that has
  // answered) is consumed and dropped.  The per-try wait is at least twice
  // the longest healthy round trip, so retransmits fire only when a message
  // was lost or a site is down.
  const RetryPolicy policy = RetryPolicy::protocol_round();
  const auto min_try = 2 * home_.net().max_round_trip();
  auto round = [&](const char* type, Clock::time_point deadline,
                   const char* retransmit_counter) -> bool {
    std::unordered_map<std::uint64_t, std::size_t> sent;  // id -> participant
    std::vector<bool> replied(participants.size(), false);
    std::size_t missing = participants.size();
    for (std::uint64_t attempt = 0; missing > 0; ++attempt) {
      for (std::size_t i = 0; i < participants.size(); ++i) {
        if (replied[i]) continue;
        Message m;
        m.from = home_.id();
        m.to = participants[i];
        m.type = type;
        m.gtid = gtid;
        sent.emplace(home_.net().send(std::move(m)), i);
        if (attempt > 0) dist_count(home_, retransmit_counter);
      }
      const Clock::duration per_try =
          std::max<Clock::duration>(min_try, policy.delay(attempt + 1, gtid));
      const auto try_end = std::min(deadline, Clock::now() + per_try);
      for (auto now = Clock::now(); missing > 0 && now < try_end;
           now = Clock::now()) {
        auto reply = home_.net().receive_reply(
            home_.id(),
            std::chrono::ceil<std::chrono::milliseconds>(try_end - now),
            [gtid](const Message& m) { return m.gtid == gtid; });
        if (!reply) break;  // retransmit on the next pass
        const auto it = sent.find(reply->correlation);
        if (it == sent.end() || replied[it->second]) continue;  // stale
        if (reply->type == "vote" && reply->value == 0) return false;
        replied[it->second] = true;
        --missing;
      }
      if (missing > 0 && Clock::now() >= deadline) return false;
    }
    return true;
  };
  auto decision_round = [&](const char* type) {
    return round(type, Clock::now() + decision_timeout,
                 "retry.2pc.retransmits");
  };

  // --- prepare round --------------------------------------------------------
  if (!decision_round("prepare")) {
    // Abort everywhere (best effort; participants also time out locally).
    decision_round("abort");
    for (Txn& t : txns) t.abort();  // aborts the home piece (moved-out remote
                                    // handles are inert)
    dist_count(home_, "dist.2pc.aborted");
    return Status::Aborted("2pc prepare failed or timed out");
  }

  // --- global validation round (the baseline's serialization-order check) --
  if (validation_round && !decision_round("validate")) {
    decision_round("abort");
    for (Txn& t : txns) t.abort();
    dist_count(home_, "dist.2pc.validation_failed");
    dist_count(home_, "dist.2pc.aborted");
    return Status::Aborted("2pc validation failed or timed out");
  }

  // Decision is logged at the coordinator: the client can be told "committed"
  // here, but participant locks release only as commit messages arrive.
  DistOutcome out;
  out.gtid = gtid;
  out.client_latency_us = double(clock.elapsed_us());

  // Commit the home piece locally.
  for (std::size_t i = 0; i < spec.pieces.size(); ++i) {
    if (spec.pieces[i].site != home_.id()) continue;
    Status s = txns[i].commit();
    assert(s.ok());
    (void)s;
  }

  // --- commit round: retry until every participant acknowledges ------------
  // (this is where 2PC *blocks* when a participant is down).
  round("commit", Clock::time_point::max(), "retry.2pc.commit_retransmits");

  out.complete_latency_us = double(clock.elapsed_us());
  out.completed = true;
  dist_count(home_, "dist.2pc.committed");
  dist_record(home_, "dist.2pc.client_us", out.client_latency_us);
  dist_record(home_, "dist.2pc.complete_us", out.complete_latency_us);
  return out;
}

Result<DistOutcome> Coordinator::run_chopped(
    const DistTxnSpec& spec, std::chrono::milliseconds completion_timeout) {
  assert(!spec.pieces.empty());
  assert(spec.pieces[0].site == home_.id() &&
         "piece 1 must run at the coordinator's home site");
  const std::uint64_t gtid = g_next_gtid.fetch_add(1);
  Stopwatch clock;

  // --- piece 1: a plain local transaction ----------------------------------
  const auto limits = chain_limits(spec.kind, spec.limit, spec.policy,
                                   spec.pieces.size());
  Txn txn =
      home_.db().begin(spec.kind, spec_for(spec.kind, limits->limit_for(0)));
  Status s = run_ops(txn, spec.pieces[0].ops);
  if (!s.ok()) {
    txn.abort();
    dist_count(home_, "dist.chopped.aborted");
    return s;  // piece 1 may abort freely: nothing committed yet
  }
  if (spec.pieces.size() > 1) {
    CrossSiteContinuation cont;
    cont.gtid = gtid;
    cont.origin = home_.id();
    for (std::size_t p = 1; p < spec.pieces.size(); ++p) {
      CrossSitePiece& hop = cont.pieces.emplace_back();
      hop.site = spec.pieces[p].site;
      for (const Access& a : spec.pieces[p].ops) {
        hop.ops.push_back({std::uint8_t(a.type), a.item, a.delta});
      }
    }
    cont.policy = std::uint8_t(spec.policy);
    cont.limit = spec.limit;
    // Z_1 measured after the last op; a conflict charging this txn in the
    // microscopic window before commit makes the next piece's leftover a
    // slight over-allowance, bounded by that one conflict's delta.
    cont.done = {txn.fuzziness()};
    home_.queues().enqueue(txn, spec.pieces[1].site,
                           chop_queue_for(spec.kind), encode_cross_site(cont));
  }
  Status c = txn.commit();
  if (!c.ok()) {
    // The home site crashed under us (crash-epoch guard): nothing committed,
    // nothing was forwarded.  Piece 1 may abort freely -- report it.
    dist_count(home_, "dist.chopped.aborted");
    return c;
  }

  DistOutcome out;
  out.gtid = gtid;
  // The client-visible commit: one local commit, zero protocol rounds.
  out.client_latency_us = double(clock.elapsed_us());
  dist_count(home_, "dist.chopped.started");
  dist_record(home_, "dist.chopped.client_us", out.client_latency_us);

  // A single piece has no done notice to await: it is complete.
  out.completed =
      spec.pieces.size() == 1 || home_.wait_done(gtid, completion_timeout);
  out.complete_latency_us = double(clock.elapsed_us());
  if (out.completed) {
    dist_count(home_, "dist.chopped.completed");
    dist_record(home_, "dist.chopped.complete_us", out.complete_latency_us);
  }
  return out;
}

void Coordinator::install_chop_handler(const std::vector<Site*>& sites) {
  auto handler = [](Site& site, const std::string& queue) {
    const TxnKind kind = kind_of_chop_queue(queue);
    // Rollback-safety (Theorem 1): once piece 1 committed, this piece must
    // retry until it commits -- backing off between attempts, never giving
    // up.  The only exits are success, a concurrent worker winning the
    // dequeue, or a site crash (the durable queue redelivers afterwards).
    const RetryPolicy policy = RetryPolicy::chop_handler();
    const std::uint64_t backoff_seed =
        fault_mix64(std::uint64_t(site.id()) ^
                    std::hash<std::string>{}(queue));
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (!site.up()) return;  // crash: the durable queue redelivers later
      if (attempt > 0) {
        if (obs::MetricsRegistry* reg = site.db().metrics(); reg != nullptr) {
          reg->counter("retry.chop.attempts").add();
        }
        std::this_thread::sleep_for(policy.delay(attempt, backoff_seed));
      }
      // Kind comes from the queue name so the transaction can be opened
      // before the payload is known; the eps budget is applied right after
      // the (lock-free) dequeue, before any data access.
      Txn txn = site.db().begin(kind, EpsilonSpec::unlimited());
      auto payload = site.queues().try_dequeue(txn, queue);
      if (!payload) {
        txn.abort();
        return;  // consumed by a concurrent worker
      }
      std::optional<CrossSiteContinuation> cont = decode_cross_site(*payload);
      assert(cont.has_value() && cont->pieces[0].site == site.id());
      if (!cont.has_value()) {
        txn.abort();  // poison message: consuming it would lose the chain
        return;
      }
      // Resume Limit_t's distribution as PieceRunner::resume does: replay
      // the committed pieces' Z_p, then take this piece's limit.
      const std::size_t piece = cont->done.size();
      const auto limits = chain_limits(kind, cont->limit,
                                       DistPolicy(cont->policy),
                                       piece + cont->pieces.size());
      for (std::size_t p = 0; p < piece; ++p) {
        limits->report_committed(p, cont->done[p]);
      }
      site.db().registry().set_spec(txn.id(),
                                    spec_for(kind, limits->limit_for(piece)));
      std::vector<Access> ops;
      for (const ContinuationOp& op : cont->pieces[0].ops) {
        ops.push_back({AccessType(op.type), op.item, 0, op.delta});
      }
      Status s = run_ops(txn, ops);
      if (!s.ok()) {
        txn.abort();  // claim reverts; retry until commit (process handler)
        continue;
      }
      if (cont->pieces.size() > 1) {
        cont->done.push_back(txn.fuzziness());
        cont->pieces.erase(cont->pieces.begin());
        site.queues().enqueue(txn, cont->pieces[0].site, queue,
                              encode_cross_site(*cont));
      } else {
        site.queues().enqueue(txn, cont->origin, kDoneQueue,
                              encode_gtid(cont->gtid));
      }
      // A refused commit is the crash-epoch guard: the site crashed between
      // our dequeue and this commit.  The staged writes are gone and the
      // continuation was NOT forwarded (commit hooks never ran); the
      // message is back in the durable queue for redelivery after recovery.
      (void)txn.commit();
      return;
    }
  };
  for (Site* site : sites) site->set_queue_handler(handler);
}

}  // namespace atp
