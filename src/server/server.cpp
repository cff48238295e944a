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
  max_executing_ = std::max<std::size_t>(1, opts_.workers);
  // One thread more than can execute, so one is always free to poll.
  threads_.reserve(max_executing_ + 1);
  for (std::size_t i = 0; i <= max_executing_; ++i) {
    threads_.emplace_back([this] { serve(); });
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
  // and then sees stopping_ already set.  Each thread sees the flag within
  // one poll_interval, or when it finishes the request it is executing.
  std::lock_guard stop_lock(stop_mu_);
  if (stopping_.exchange(true)) return;
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // No threads left: close every session (aborts its live transactions and
  // returns its admission grants) before the database can go away.
  std::lock_guard lock(sessions_mu_);
  for (auto& [conn, s] : sessions_) s->close();
  sessions_.clear();
  if (sessions_active_ != nullptr) sessions_active_->set(0);
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
  // If a thread is mid-execute, close() defers transaction teardown to that
  // thread's finish_one(); the shared_ptr it holds keeps the object alive.
  victim->close();
}

void AtpServer::serve() {
  std::shared_ptr<Session> finished;  // executed last turn
  bool more = false;                  // ... and has more requests queued
  for (;;) {
    std::optional<Work> work;
    {
      std::lock_guard lock(queue_mu_);
      if (finished) {
        --executing_;
        // Behind the sessions already waiting: a pipeliner gets no more
        // than its turn.
        if (more) ready_.push_back(std::move(finished));
        finished.reset();
      }
      if (stopping_.load(std::memory_order_acquire)) return;
      work = take_queued_locked();
    }
    if (!work) work = take_polled();
    if (!work) continue;
    more = run(*work);
    finished = std::move(work->session);
  }
}

std::optional<AtpServer::Work> AtpServer::take_polled() {
  // One connection's events (the sim backend may hand over an accept with
  // the first bytes); a kClosed after its data leaves nothing to run.
  std::shared_ptr<Session> s;
  for (const TransportEvent& ev : transport_->poll(opts_.poll_interval)) {
    s = handle_event(ev);
  }
  if (!s) return std::nullopt;
  {
    std::lock_guard lock(queue_mu_);
    if (executing_ < max_executing_) {
      // A free slot means nothing waits in ready_ (a finishing thread
      // drains it first), so the request just read goes first.  An empty
      // result is a partial frame, or a session another thread is
      // executing, whose finish_one() requeues it.
      std::optional<Session::NextRequest> req = s->take_next();
      if (req.has_value()) {
        ++executing_;
        return Work{std::move(s), std::move(*req), /*rearm=*/true};
      }
    } else {
      ready_.push_back(s);
    }
  }
  transport_->rearm(s->conn());
  return std::nullopt;
}

std::shared_ptr<Session> AtpServer::handle_event(const TransportEvent& ev) {
  switch (ev.kind) {
    case TransportEvent::Kind::kAccept: {
      std::shared_ptr<Session> s;
      {
        std::lock_guard lock(sessions_mu_);
        if (sessions_.size() < opts_.max_sessions) {
          s = std::make_shared<Session>(ev.conn, db_, admission_, counters_);
          sessions_.emplace(ev.conn, s);
          if (sessions_active_ != nullptr) {
            sessions_active_->set(double(sessions_.size()));
          }
        }
      }
      if (!s) {  // over max_sessions: refuse at accept
        transport_->close(ev.conn);
        return nullptr;
      }
      ServerCounters::bump(sessions_accepted_);
      return s;  // re-armed by the caller: its bytes may come in now
    }
    case TransportEvent::Kind::kData: {
      std::shared_ptr<Session> s;
      {
        std::lock_guard lock(sessions_mu_);
        auto it = sessions_.find(ev.conn);
        if (it != sessions_.end()) s = it->second;
      }
      if (!s) return nullptr;
      Session::FeedResult fed = s->feed(ev.data);
      if (!fed.immediate_replies.empty()) {
        transport_->send(ev.conn, fed.immediate_replies);
      }
      if (fed.fatal) {
        transport_->close(ev.conn);
        drop_session(ev.conn);
        return nullptr;
      }
      return s;
    }
    case TransportEvent::Kind::kClosed:
      drop_session(ev.conn);
      return nullptr;
  }
  return nullptr;
}

std::optional<AtpServer::Work> AtpServer::take_queued_locked() {
  while (executing_ < max_executing_ && !ready_.empty()) {
    std::shared_ptr<Session> s = std::move(ready_.front());
    ready_.pop_front();
    // Empty, closed, or executing on another thread (whose finish_one()
    // reports the new request and requeues the session): skip it.
    std::optional<Session::NextRequest> req = s->take_next();
    if (!req.has_value()) continue;
    ++executing_;
    return Work{std::move(s), std::move(*req)};
  }
  return std::nullopt;
}

bool AtpServer::run(const Work& w) {
  Session& s = *w.session;
  const auto exec_start = std::chrono::steady_clock::now();
  Session::ExecInfo info;
  const std::string reply = s.execute(w.req.msg, &info);
  const std::int64_t exec_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - exec_start)
          .count();
  transport_->send(s.conn(), reply);
  if (w.rearm) transport_->rearm(s.conn());
  record_request(s, w.req, info, exec_us);
  return s.finish_one();
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
