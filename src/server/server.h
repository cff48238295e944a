// AtpServer: the network front-end tying transport, sessions, admission,
// and the database together.
//
// Threading: one-shot delivery.  `workers + 1` identical threads run
// serve(), and every idle one blocks in Transport::poll at once.  The
// transport hands each poll at most one connection's events and holds that
// connection's later bytes until the thread that took them re-arms it
// (transport.h), so a session is fed by one thread at a time, in stream
// order, on both backends -- no role passes between threads, and no thread
// wakes another to take a request.
//
// The reader executes.  The thread that receives a connection's data feeds
// it through the session's frame decoder; if an executor slot is free it
// executes the request itself, replies through Transport::send, and only
// then re-arms the connection.  Accepts, closes and protocol errors are
// handled by whichever thread receives them.
//
// Why `workers + 1` threads and not `workers`: a request may legitimately
// block for the full lock timeout (2s by default), and the accept/read loop
// must keep breathing under that.  When `workers` requests are executing,
// a thread that is fed a request queues the session and re-arms its
// connection at once instead of executing, so a lock holder's disconnect
// (which releases the lock the executors wait on), a new accept or a window
// reject is still serviced while every executor is blocked.  With only
// `workers` threads the last one to pick up a request would leave nobody
// polling.
//
// A thread that finishes a request takes a queued session before it polls
// again.  A session with more pipelined requests is requeued behind the
// sessions already waiting, so one chatty pipeliner cannot monopolize a
// thread.  Each session is executed by at most one thread at a time
// (Session::take_next marks it busy), so per-connection request order is
// preserved while different connections run in parallel.
//
// The same object runs over TcpTransport (atpd, bench_net) or SimTransport
// (deterministic tests, fault schedules) -- it never inspects which.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "server/admission.h"
#include "server/session.h"
#include "server/transport.h"

#include "common/ordered_lock.h"

namespace atp::server {

/// One request that crossed the slow threshold, with its phase breakdown.
struct SlowRequest {
  ConnId conn = 0;
  std::string client_class;  ///< "-" before Hello
  std::uint64_t txn = 0;     ///< client-side transaction handle
  const char* request = "";  ///< request kind name
  const char* outcome = "";  ///< reply kind name
  std::uint8_t error_code = 0;  ///< ErrorCode when the reply was an error
  std::int64_t queued_us = 0;   ///< time waiting behind earlier requests
  std::int64_t exec_us = 0;     ///< time inside execute()
};

struct ServerOptions {
  /// Requests executing at once (>= 1; each can block on locks).  The
  /// server runs one more thread than this so someone always polls.
  std::size_t workers = 4;
  /// Client classes; empty = default_classes().
  std::vector<ClassPolicy> classes;
  /// Optional registry: srv.* counters, session gauge, admission tallies.
  obs::MetricsRegistry* metrics = nullptr;
  /// Longest a thread blocks in Transport::poll (the stop() latency bound).
  std::chrono::milliseconds poll_interval{50};
  /// Connections past this are closed at accept.
  std::size_t max_sessions = 1024;
  /// Requests whose queued + execute time reaches this are logged (atpd
  /// --slow-ms).  Zero disables the slow-request log.
  std::chrono::microseconds slow_request_threshold{0};
  /// Sink for slow requests; when unset they go to stderr as one line.
  std::function<void(const SlowRequest&)> slow_log;
};

class AtpServer {
 public:
  /// Takes ownership of the transport; `db` must outlive the server.
  AtpServer(Database& db, std::unique_ptr<Transport> transport,
            ServerOptions opts = {});
  ~AtpServer();
  AtpServer(const AtpServer&) = delete;
  AtpServer& operator=(const AtpServer&) = delete;

  /// False when the transport failed to come up (port in use, no epoll).
  [[nodiscard]] bool ok() const;

  /// TCP listen port (0 on the sim backend).
  [[nodiscard]] std::uint16_t port() const;

  /// Stop threads and tear down every session (aborting live transactions).
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }

 private:
  /// A request taken off a session, ready to execute on this thread.
  struct Work {
    std::shared_ptr<Session> session;
    Session::NextRequest req;
    bool rearm = false;  ///< this thread owns the connection: re-arm it
  };

  /// Body of every server thread: execute queued work, else poll.
  void serve();
  /// One poll: accept, feed or drop one connection.  Returns the fed
  /// request when a slot is free to execute it here; otherwise queues the
  /// session (all slots busy) and re-arms its connection.
  std::optional<Work> take_polled();
  /// Accept, feed or drop for one transport event.  Returns the session
  /// that was opened or fed and stays open.
  std::shared_ptr<Session> handle_event(const TransportEvent& ev);
  /// queue_mu_ held: pop queued sessions until one yields a request and
  /// claim an executor slot for it; std::nullopt when none can run now.
  std::optional<Work> take_queued_locked();
  /// Execute, reply, record; true when the session has more queued.
  bool run(const Work& w);
  /// Latency histogram + slow-request log for one finished request.
  void record_request(const Session& s, const Session::NextRequest& req,
                      const Session::ExecInfo& info, std::int64_t exec_us);
  /// Tear down and forget the session for `conn`.
  void drop_session(ConnId conn);

  Database& db_;
  std::unique_ptr<Transport> transport_;
  ServerOptions opts_;
  AdmissionController admission_;
  ServerCounters counters_;

  obs::ShardedCounter* sessions_accepted_ = nullptr;
  obs::ShardedCounter* sessions_closed_ = nullptr;
  obs::Gauge* sessions_active_ = nullptr;

  mutable OrderedMutex<LockRank::kServerSessions> sessions_mu_;  ///< rank kServerSessions: held across Session::close at shutdown
  std::unordered_map<ConnId, std::shared_ptr<Session>> sessions_;

  OrderedMutex<LockRank::kServerQueue> queue_mu_;  ///< rank kServerQueue
  // Guarded by queue_mu_.
  std::deque<std::shared_ptr<Session>> ready_;  ///< fed while saturated
  std::size_t executing_ = 0;  ///< threads holding a taken request
  std::size_t max_executing_ = 1;  ///< opts_.workers, at least 1

  std::atomic<bool> stopping_{false};
  OrderedMutex<LockRank::kServerStop> stop_mu_;  ///< rank kServerStop (outermost); serializes stop(): join() is not join()-concurrent-safe
  std::vector<std::thread> threads_;  ///< max_executing_ + 1, all serve()
};

}  // namespace atp::server
