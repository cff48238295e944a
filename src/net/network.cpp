#include "net/network.h"

#include <cassert>
#include <memory>

#include "fault/fault.h"

namespace atp {

SimNetwork::SimNetwork(std::size_t n_sites, NetworkOptions options)
    : options_(options),
      site_up_(n_sites, true),
      link_up_(n_sites, std::vector<bool>(n_sites, true)),
      jitter_rng_(options.jitter_seed) {
  inboxes_.reserve(n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

SimNetwork::~SimNetwork() { attach_metrics(nullptr); }

void SimNetwork::attach_metrics(obs::MetricsRegistry* reg) {
  if (metrics_ != nullptr) {
    metrics_->remove_collector(collector_id_);
    metrics_ = nullptr;
    collector_id_ = 0;
  }
  if (reg == nullptr) return;
  metrics_ = reg;
  collector_id_ = reg->add_collector([this](obs::SnapshotBuilder& b) {
    const NetStats s = stats();
    b.counter("net.sim.sent", double(s.sent));
    b.counter("net.sim.delivered", double(s.delivered));
    b.counter("net.sim.dropped", double(s.dropped));
  });
}

std::uint64_t SimNetwork::send(Message msg) {
  Inbox& inbox = *inboxes_[msg.to];
  // The inbox lock is held across the liveness check AND the publish (lock
  // order: inbox.mu before state_mu_, matching the receive path).  A
  // concurrent set_site_up(to, false) therefore cannot clear the inbox
  // between our check and our push: a "crashed" site never observes a
  // message whose send raced its crash.
  std::unique_lock ilock(inbox.mu);
  std::uint64_t id;
  bool deliverable;
  auto delay = options_.one_way_latency;
  {
    std::lock_guard slock(state_mu_);
    id = next_id_++;
    ++stats_.sent;
    deliverable = site_up_[msg.to] && site_up_[msg.from] &&
                  link_up_[msg.from][msg.to];
    if (!deliverable) {
      ++stats_.dropped;
    } else if (options_.jitter.count() > 0) {
      // Unbiased uniform draw over [0, jitter] (Rng::uniform rejects).
      delay += std::chrono::microseconds(
          jitter_rng_.uniform(std::uint64_t(options_.jitter.count()) + 1));
    }
  }
  if (!deliverable) {
    ilock.unlock();
    Tracer::emit(tracer_, TraceKind::NetDrop, msg.from, kInvalidTxn, msg.to, 0,
                 0, id);
    return id;
  }

  NetFault fault;  // injector keeps its own lock; decisions are pure hashes
  if (fault_ != nullptr) fault = fault_->on_send(msg);
  if (fault.drop) {
    {
      std::lock_guard slock(state_mu_);
      ++stats_.dropped;
    }
    ilock.unlock();
    Tracer::emit(tracer_, TraceKind::NetDrop, msg.from, kInvalidTxn, msg.to, 0,
                 0, id);
    return id;
  }

  const auto now = Clock::now();
  Tracer::emit(tracer_, TraceKind::NetSend, msg.from, kInvalidTxn, msg.to, 0,
               0, id);
  if (fault.duplicate) {
    // The copy travels under a FRESH id (and its own jitter draw): reply
    // correlation keys on the id of one specific transmission, and two
    // in-flight messages sharing an id would break that assumption.
    Message copy = msg;
    auto dup_delay = options_.one_way_latency + fault.extra_delay;
    {
      std::lock_guard slock(state_mu_);
      copy.id = next_id_++;
      ++stats_.sent;
      if (options_.jitter.count() > 0) {
        dup_delay += std::chrono::microseconds(
            jitter_rng_.uniform(std::uint64_t(options_.jitter.count()) + 1));
      }
    }
    Tracer::emit(tracer_, TraceKind::NetSend, copy.from, kInvalidTxn, copy.to,
                 0, 0, copy.id);
    inbox.messages.push_back(Pending{now + dup_delay, std::move(copy)});
  }
  msg.id = id;
  inbox.messages.push_back(Pending{now + delay + fault.extra_delay,
                                   std::move(msg)});
  ilock.unlock();
  inbox.cv.notify_all();
  return id;
}

std::optional<Message> SimNetwork::receive_matching(
    SiteId site, std::chrono::milliseconds timeout,
    const std::function<bool(const Message&)>& pred) {
  assert(site < inboxes_.size());
  Inbox& inbox = *inboxes_[site];
  const auto deadline = Clock::now() + timeout;
  std::unique_lock lock(inbox.mu);
  for (;;) {
    const auto now = Clock::now();
    Clock::time_point earliest = deadline;
    for (auto it = inbox.messages.begin(); it != inbox.messages.end(); ++it) {
      if (it->deliver_at > now) {
        if (it->deliver_at < earliest) earliest = it->deliver_at;
        continue;
      }
      if (pred(it->msg)) {
        Message m = std::move(it->msg);
        inbox.messages.erase(it);
        {
          std::lock_guard slock(state_mu_);
          ++stats_.delivered;
        }
        Tracer::emit(tracer_, TraceKind::NetDeliver, site, kInvalidTxn, m.from,
                     0, 0, m.id);
        return m;
      }
    }
    if (now >= deadline) return std::nullopt;
    inbox.cv.wait_until(lock, earliest);
  }
}

std::optional<Message> SimNetwork::receive_request(
    SiteId site, std::chrono::milliseconds timeout) {
  return receive_matching(site, timeout,
                          [](const Message& m) { return !m.is_reply(); });
}

std::optional<Message> SimNetwork::receive_request_if(
    SiteId site, std::chrono::milliseconds timeout,
    const std::function<bool(const Message&)>& claim) {
  return receive_matching(site, timeout, [&claim](const Message& m) {
    return !m.is_reply() && claim(m);
  });
}

void SimNetwork::wake(SiteId site) {
  assert(site < inboxes_.size());
  Inbox& inbox = *inboxes_[site];
  // Taking the lock orders this wake after any scan in progress: that
  // receiver is either waiting by now or scans again after us.
  { std::lock_guard lock(inbox.mu); }
  inbox.cv.notify_all();
}

std::optional<Message> SimNetwork::receive_reply(
    SiteId site, std::chrono::milliseconds timeout,
    const std::function<bool(const Message&)>& match) {
  return receive_matching(site, timeout, [&match](const Message& m) {
    return m.is_reply() && match(m);
  });
}

void SimNetwork::set_site_up(SiteId site, bool up) {
  {
    std::lock_guard lock(state_mu_);
    site_up_[site] = up;
  }
  if (!up) {
    // A crashed process loses its in-flight inbox.
    Inbox& inbox = *inboxes_[site];
    std::lock_guard lock(inbox.mu);
    inbox.messages.clear();
  }
  inboxes_[site]->cv.notify_all();
}

bool SimNetwork::site_up(SiteId site) const {
  std::lock_guard lock(state_mu_);
  return site_up_[site];
}

void SimNetwork::set_link_up(SiteId a, SiteId b, bool up) {
  std::lock_guard lock(state_mu_);
  link_up_[a][b] = up;
  link_up_[b][a] = up;
}

bool SimNetwork::link_up(SiteId a, SiteId b) const {
  std::lock_guard lock(state_mu_);
  return link_up_[a][b];
}

NetStats SimNetwork::stats() const {
  std::lock_guard lock(state_mu_);
  return stats_;
}

void SimNetwork::reset_stats() {
  std::lock_guard lock(state_mu_);
  stats_ = NetStats{};
}

}  // namespace atp
