#include "server/server.h"

#include <algorithm>
#include <cstdio>

namespace atp::server {

AtpServer::AtpServer(Database& db, std::unique_ptr<Transport> transport,
                     ServerOptions opts)
    : db_(db),
      transport_(std::move(transport)),
      opts_(std::move(opts)),
      admission_(opts_.classes.empty() ? default_classes()
                                       : std::move(opts_.classes)) {
  if (obs::MetricsRegistry* m = opts_.metrics; m != nullptr) {
    counters_.requests = &m->counter("srv.requests");
    counters_.protocol_errors = &m->counter("srv.protocol_errors");
    counters_.window_rejects = &m->counter("srv.window_rejects");
    counters_.committed = &m->counter("srv.txn.committed");
    counters_.aborted = &m->counter("srv.txn.aborted");
    counters_.slow_requests = &m->counter("srv.slow_requests");
    sessions_accepted_ = &m->counter("srv.sessions.accepted");
    sessions_closed_ = &m->counter("srv.sessions.closed");
    sessions_active_ = &m->gauge("srv.sessions.active");
    for (const ClassPolicy& c : admission_.classes()) {
      counters_.admission_granted[c.name] =
          &m->counter("srv.admission.granted." + c.name);
      counters_.admission_rejected[c.name] =
          &m->counter("srv.admission.rejected." + c.name);
      counters_.request_latency[c.name] =
          &m->histogram("srv.request_latency." + c.name);
    }
  }
  if (!transport_ || !transport_->ok()) return;
  poll_thread_ = std::thread([this] { poll_loop(); });
  const std::size_t n = std::max<std::size_t>(1, opts_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AtpServer::~AtpServer() { stop(); }

bool AtpServer::ok() const { return transport_ && transport_->ok(); }

std::uint16_t AtpServer::port() const {
  return transport_ ? transport_->port() : 0;
}

std::size_t AtpServer::active_sessions() const {
  std::lock_guard lock(sessions_mu_);
  return sessions_.size();
}

void AtpServer::stop() {
  // Serialize the whole shutdown: join() on the same std::thread from two
  // callers is UB, so a second stop() blocks here until the first finishes
  // and then sees stopping_ already set.
  std::lock_guard stop_lock(stop_mu_);
  {
    // Set the flag and notify under queue_mu_: a worker that has checked
    // its wait predicate but not yet blocked holds queue_mu_, so it either
    // sees stopping_ or is already waiting when notify_all runs.  Setting
    // it outside the lock loses that wakeup and join() hangs.
    std::lock_guard queue_lock(queue_mu_);
    if (stopping_.exchange(true)) return;
    queue_cv_.notify_all();
  }
  if (poll_thread_.joinable()) poll_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // No threads left: close every session (aborts its live transactions and
  // returns its admission grants) before the database can go away.
  std::lock_guard lock(sessions_mu_);
  for (auto& [conn, s] : sessions_) s->close();
  sessions_.clear();
  if (sessions_active_ != nullptr) sessions_active_->set(0);
}

void AtpServer::schedule(std::shared_ptr<Session> s) {
  {
    std::lock_guard lock(queue_mu_);
    ready_.push_back(std::move(s));
  }
  queue_cv_.notify_one();
}

void AtpServer::drop_session(ConnId conn) {
  std::shared_ptr<Session> victim;
  {
    std::lock_guard lock(sessions_mu_);
    auto it = sessions_.find(conn);
    if (it == sessions_.end()) return;
    victim = std::move(it->second);
    sessions_.erase(it);
    if (sessions_active_ != nullptr) {
      sessions_active_->set(double(sessions_.size()));
    }
  }
  ServerCounters::bump(sessions_closed_);
  // If a worker is mid-execute, close() defers transaction teardown to that
  // worker's finish_one(); the shared_ptr it holds keeps the object alive.
  victim->close();
}

void AtpServer::poll_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::vector<TransportEvent> events =
        transport_->poll(opts_.poll_interval);
    for (const TransportEvent& ev : events) {
      switch (ev.kind) {
        case TransportEvent::Kind::kAccept: {
          std::shared_ptr<Session> s;
          {
            std::lock_guard lock(sessions_mu_);
            if (sessions_.size() < opts_.max_sessions) {
              s = std::make_shared<Session>(ev.conn, db_, admission_,
                                            counters_);
              sessions_.emplace(ev.conn, s);
              if (sessions_active_ != nullptr) {
                sessions_active_->set(double(sessions_.size()));
              }
            }
          }
          if (!s) {  // over max_sessions: refuse at accept
            transport_->close(ev.conn);
            break;
          }
          ServerCounters::bump(sessions_accepted_);
          break;
        }
        case TransportEvent::Kind::kData: {
          std::shared_ptr<Session> s;
          {
            std::lock_guard lock(sessions_mu_);
            auto it = sessions_.find(ev.conn);
            if (it != sessions_.end()) s = it->second;
          }
          if (!s) break;
          Session::FeedResult fed = s->feed(ev.data);
          if (!fed.immediate_replies.empty()) {
            transport_->send(ev.conn, fed.immediate_replies);
          }
          if (fed.fatal) {
            transport_->close(ev.conn);
            drop_session(ev.conn);
            break;
          }
          schedule(std::move(s));
          break;
        }
        case TransportEvent::Kind::kClosed:
          drop_session(ev.conn);
          break;
      }
    }
  }
}

void AtpServer::worker_loop() {
  for (;;) {
    std::shared_ptr<Session> s;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !ready_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      s = std::move(ready_.front());
      ready_.pop_front();
    }
    const std::optional<Session::NextRequest> req = s->take_next();
    if (!req.has_value()) continue;
    const auto exec_start = std::chrono::steady_clock::now();
    Session::ExecInfo info;
    const std::string reply = s->execute(req->msg, &info);
    const std::int64_t exec_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_start)
            .count();
    transport_->send(s->conn(), reply);
    record_request(*s, *req, info, exec_us);
    // Re-queue instead of looping here so one chatty pipeliner cannot
    // monopolize a worker while other sessions wait.
    if (s->finish_one()) schedule(std::move(s));
  }
}

void AtpServer::record_request(const Session& s,
                               const Session::NextRequest& req,
                               const Session::ExecInfo& info,
                               std::int64_t exec_us) {
  const ClassPolicy* cls = s.client_class();
  const std::int64_t total_us = req.queued_us + exec_us;
  if (cls != nullptr) {
    auto it = counters_.request_latency.find(cls->name);
    if (it != counters_.request_latency.end()) {
      it->second->record(double(total_us));
    }
  }
  const std::int64_t threshold = opts_.slow_request_threshold.count();
  if (threshold <= 0 || total_us < threshold) return;
  ServerCounters::bump(counters_.slow_requests);
  SlowRequest slow;
  slow.conn = s.conn();
  slow.client_class = cls != nullptr ? cls->name : "-";
  slow.txn = req.msg.txn;
  slow.request = to_string(req.msg.kind);
  slow.outcome = to_string(info.reply_kind);
  slow.error_code = info.error_code;
  slow.queued_us = req.queued_us;
  slow.exec_us = exec_us;
  if (opts_.slow_log) {
    opts_.slow_log(slow);
    return;
  }
  std::fprintf(stderr,
               "atpd: slow request conn=%llu class=%s txn=%llu req=%s "
               "outcome=%s err=%u queued=%lldus exec=%lldus total=%lldus\n",
               static_cast<unsigned long long>(slow.conn),
               slow.client_class.c_str(),
               static_cast<unsigned long long>(slow.txn), slow.request,
               slow.outcome, unsigned(slow.error_code),
               static_cast<long long>(slow.queued_us),
               static_cast<long long>(slow.exec_us),
               static_cast<long long>(total_us));
}

}  // namespace atp::server
