// Session: one connected client's request lifecycle.
//
// A Session owns everything the server knows about one connection: the
// handshake state (a connection must Hello into a class before anything
// else), the incremental frame decoder, the parsed-but-unexecuted request
// queue, and -- most importantly -- the in-flight transactions, each paired
// with the eps grant admission control charged for it.  Whatever path ends
// the session (clean Abort, commit, mid-transaction disconnect, protocol
// error, backpressure eviction), teardown is the same: every live Txn is
// aborted (strict 2PL releases its locks) and every grant is returned to
// the class budget.  Nothing leaks because teardown is owned by the object
// whose lifetime matches the connection's.
//
// Backpressure: the class window caps parsed-but-unfinished requests; past
// it, feed() answers kUnavailable immediately instead of queueing.  A
// synchronous client never notices; a pipelining client gets pushback
// proportional to what its class bought.
//
// Threading: feed() runs on the server thread the transport delivered the
// connection's bytes to (one at a time, until it re-arms the connection, so
// the decoder sees the stream in order); take_next(), execute() and
// finish_one() run on the thread that will execute the request -- usually
// that same thread.  At most one thread executes a session at a time
// (take_next marks it busy; the server's per-session serial-dispatch
// guarantee); the internal mutex covers the small shared state between
// feeding and executing.  Txn objects themselves are touched only inside
// execute() and close(), which the server never overlaps.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/metrics.h"
#include "obs/instruments.h"
#include "sched/database.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/transport.h"

#include "common/ordered_lock.h"

namespace atp::server {

/// Push instruments the server publishes (server.h wires them; null-safe
/// when no registry is configured).
struct ServerCounters {
  obs::ShardedCounter* requests = nullptr;
  obs::ShardedCounter* protocol_errors = nullptr;
  obs::ShardedCounter* window_rejects = nullptr;
  obs::ShardedCounter* committed = nullptr;
  obs::ShardedCounter* aborted = nullptr;
  obs::ShardedCounter* slow_requests = nullptr;
  /// Per-class admission outcome counters, keyed by class name.
  std::unordered_map<std::string, obs::ShardedCounter*> admission_granted;
  std::unordered_map<std::string, obs::ShardedCounter*> admission_rejected;
  /// Per-class request latency (srv.request_latency.<class>), recorded by
  /// the executing thread as queued + execute time in microseconds.
  std::unordered_map<std::string, Histogram*> request_latency;

  static void bump(obs::ShardedCounter* c) {
    if (c != nullptr) c->add();
  }
};

class Session {
 public:
  Session(ConnId conn, Database& db, AdmissionController& admission,
          ServerCounters& counters)
      : conn_(conn), db_(db), admission_(admission), counters_(counters) {}
  ~Session() { close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] ConnId conn() const noexcept { return conn_; }

  /// Outcome of feeding bytes: replies the feeding thread must send now
  /// (window pushback), and whether the connection must be dropped.
  struct FeedResult {
    std::string immediate_replies;  ///< encoded frames; may be empty
    bool fatal = false;             ///< protocol error: drop the connection
  };

  /// Parse incoming bytes into the request queue (the connection's owner).
  [[nodiscard]] FeedResult feed(std::string_view bytes);

  /// A dequeued request plus how long it sat behind earlier requests --
  /// the "queued" phase of the latency breakdown.
  struct NextRequest {
    WireMessage msg;
    std::int64_t queued_us = 0;
  };

  /// Next queued request for an executing thread, marking the session busy.
  /// Returns std::nullopt (and does not mark) when the queue is empty, the
  /// session is closed, or another thread is already executing it.
  [[nodiscard]] std::optional<NextRequest> take_next();

  /// What execute() replied with, for latency/slow-request accounting.
  struct ExecInfo {
    MsgKind reply_kind = MsgKind::kOk;
    std::uint8_t error_code = 0;  ///< ErrorCode when reply_kind == kError
  };

  /// Execute one request against the database; returns the encoded reply.
  /// Executing thread; the server guarantees one execute() at a time.
  [[nodiscard]] std::string execute(const WireMessage& req,
                                    ExecInfo* info = nullptr);

  /// Done executing; true when more requests are queued (re-schedule me).
  [[nodiscard]] bool finish_one();

  /// Tear down: abort live transactions, release grants.  Idempotent.
  /// Connection owner, or the server at stop (never concurrently with
  /// execute: a close during execute defers teardown to that thread's
  /// finish_one()).
  void close();

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return state_ == State::Closed;
  }

  /// Live transaction count (tests).
  [[nodiscard]] std::size_t live_txns() const {
    std::lock_guard lock(mu_);
    return txns_.size();
  }

  [[nodiscard]] const ClassPolicy* client_class() const {
    std::lock_guard lock(mu_);
    return cls_;
  }

 private:
  enum class State : std::uint8_t { AwaitHello, Ready, Closed };

  struct LiveTxn {
    Txn txn;
    EpsilonSpec grant;  ///< what admission charged; released at end
  };

  [[nodiscard]] WireMessage handle(const WireMessage& req);
  [[nodiscard]] WireMessage handle_hello(const WireMessage& req);
  [[nodiscard]] WireMessage handle_begin(const WireMessage& req);
  [[nodiscard]] WireMessage handle_op(const WireMessage& req);
  [[nodiscard]] WireMessage handle_end(const WireMessage& req, bool commit);
  /// Abort `lt` and release its grant (txns_ erase is the caller's job).
  void kill_txn(LiveTxn& lt);
  /// Abort every live transaction and release every grant (once).
  void teardown();

  static WireMessage error_reply(const WireMessage& req, const Status& s);
  static WireMessage ok_reply(const WireMessage& req);

  const ConnId conn_;
  Database& db_;
  AdmissionController& admission_;
  ServerCounters& counters_;

  struct Pending {
    WireMessage msg;
    std::chrono::steady_clock::time_point enqueued;
  };

  mutable OrderedMutex<LockRank::kSession> mu_;  // rank kSession; guards state_/cls_/pending_/executing_
  State state_ = State::AwaitHello;
  const ClassPolicy* cls_ = nullptr;
  FrameReader reader_;                 // feeding thread only
  std::deque<Pending> pending_;
  bool executing_ = false;
  bool cleaned_ = false;  ///< teardown already ran (close is idempotent)

  // Executor-side state: only execute()/close() touch these, never
  // concurrently (see threading note above).
  std::unordered_map<std::uint64_t, LiveTxn> txns_;
};

}  // namespace atp::server
