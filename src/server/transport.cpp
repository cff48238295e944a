#include "server/transport.h"

#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace atp::server {

namespace {

constexpr std::uint64_t kListenerTag = 1;

/// Message types SimTransport speaks over the simulated network.
constexpr const char* kSimConnect = "srv.conn";
constexpr const char* kSimData = "srv.data";
constexpr const char* kSimClose = "srv.close";

}  // namespace

// ---------------------------------------------------------------- TCP -----

TcpTransport::TcpTransport(std::uint16_t port)
    : listener_(port, /*backlog=*/64) {
  if (!listener_.ok()) return;
  // The accept drain loop relies on EAGAIN to stop; a blocking listener
  // would park the poller inside accept4 instead.
  if (!set_nonblocking(listener_.fd())) return;
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

TcpTransport::~TcpTransport() {
  std::lock_guard lock(mu_);
  for (auto& [id, c] : conns_) ::close(c.fd);
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool TcpTransport::ok() const { return listener_.ok() && epoll_fd_ >= 0; }

std::uint16_t TcpTransport::port() const { return listener_.port(); }

std::vector<TransportEvent> TcpTransport::poll(
    std::chrono::milliseconds timeout) {
  std::vector<TransportEvent> out;
  if (!ok()) return out;

  // Reap connections send() evicted for backpressure.  The flag keeps the
  // common poll off mu_: a reply send() holds it across its syscall, and a
  // poller blocked behind that costs a futex wake on the replying thread.
  if (reap_pending_.load(std::memory_order_acquire)) {
    std::lock_guard lock(mu_);
    reap_pending_.store(false, std::memory_order_release);
    for (const ConnId id : reap_) {
      if (conns_.count(id) == 0) continue;
      destroy_locked(id);
      out.push_back({TransportEvent::Kind::kClosed, id, {}});
    }
    reap_.clear();
  }

  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64,
                             int(std::max<std::int64_t>(0, timeout.count())));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    if (tag == kListenerTag) {
      accept_ready(&out);
      continue;
    }
    const ConnId id = tag;
    if (events[i].events & (EPOLLERR | EPOLLHUP)) {
      std::lock_guard lock(mu_);
      if (conns_.count(id) != 0) {
        destroy_locked(id);
        out.push_back({TransportEvent::Kind::kClosed, id, {}});
      }
      continue;
    }
    if (events[i].events & EPOLLOUT) {
      std::lock_guard lock(mu_);
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        if (!flush_locked(id, it->second)) {
          destroy_locked(id);
          out.push_back({TransportEvent::Kind::kClosed, id, {}});
          continue;
        }
        if (it->second.write_buf.empty()) {
          arm_epollout_locked(id, it->second, false);
        }
      }
    }
    if (events[i].events & EPOLLIN) read_ready(id, &out);
  }
  return out;
}

void TcpTransport::accept_ready(std::vector<TransportEvent>* out) {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: drained
    std::lock_guard lock(mu_);
    const ConnId id = next_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    Conn c;
    c.fd = fd;
    conns_.emplace(id, std::move(c));
    out->push_back({TransportEvent::Kind::kAccept, id, {}});
  }
}

void TcpTransport::read_ready(ConnId id, std::vector<TransportEvent>* out) {
  std::string data;
  bool closed = false;
  // No lock: only the poller inserts into or erases from conns_, so its own
  // lookup cannot race a writer (send() only reads the map).
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;  // died earlier in this batch
  const int fd = it->second.fd;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      data.append(buf, std::size_t(n));
      // A short read emptied the socket.  Epoll is level-triggered, so the
      // next bytes, or an EOF right behind these, show on the next poll;
      // asking again now would only cost a recv that says EAGAIN.
      if (std::size_t(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    closed = true;  // orderly EOF or hard error
    break;
  }
  if (!data.empty()) {
    out->push_back({TransportEvent::Kind::kData, id, std::move(data)});
  }
  if (closed) {
    std::lock_guard lock(mu_);
    if (conns_.count(id) != 0) {
      destroy_locked(id);
      out->push_back({TransportEvent::Kind::kClosed, id, {}});
    }
  }
}

bool TcpTransport::flush_locked(ConnId, Conn& c) {
  while (!c.write_buf.empty()) {
    const ssize_t n = ::send(c.fd, c.write_buf.data(), c.write_buf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.write_buf.erase(0, std::size_t(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void TcpTransport::arm_epollout_locked(ConnId id, Conn& c, bool want) {
  if (c.epollout_armed == want) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.epollout_armed = want;
  }
}

void TcpTransport::destroy_locked(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
}

bool TcpTransport::send(ConnId conn, std::string_view bytes) {
  std::lock_guard lock(mu_);
  auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.doomed) return false;
  Conn& c = it->second;
  std::size_t off = 0;
  if (c.write_buf.empty()) {
    // Fast path: hand the kernel as much as it will take right now.
    while (off < bytes.size()) {
      const ssize_t n = ::send(c.fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += std::size_t(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // Hard send error: let the poller reap it.
      c.doomed = true;
      reap_.push_back(conn);
      reap_pending_.store(true, std::memory_order_release);
      return false;
    }
    if (off == bytes.size()) return true;
  }
  c.write_buf.append(bytes.data() + off, bytes.size() - off);
  if (c.write_buf.size() > kMaxWriteBuffer) {
    // The peer stopped reading; buffering forever is how servers die.
    c.doomed = true;
    reap_.push_back(conn);
    reap_pending_.store(true, std::memory_order_release);
    return false;
  }
  arm_epollout_locked(conn, c, true);
  return true;
}

void TcpTransport::close(ConnId conn) {
  std::lock_guard lock(mu_);
  destroy_locked(conn);
}

// ---------------------------------------------------------------- Sim -----

SimTransport::SimTransport(SimNetwork& net, SiteId server_site)
    : net_(net), site_(server_site) {}

std::vector<TransportEvent> SimTransport::poll(
    std::chrono::milliseconds timeout) {
  std::vector<TransportEvent> out;
  // First receive waits out the timeout; the rest drain what is ready.
  auto wait = timeout;
  for (;;) {
    std::optional<Message> msg = net_.receive_request(site_, wait);
    if (!msg.has_value()) break;
    wait = std::chrono::milliseconds(0);
    const ConnId conn = msg->from;
    if (msg->type == kSimConnect) {
      std::lock_guard lock(mu_);
      if (open_.insert(conn).second) {
        out.push_back({TransportEvent::Kind::kAccept, conn, {}});
      }
    } else if (msg->type == kSimData) {
      // A data message from an unknown conn means the connect announcement
      // was dropped (fault schedules do that); treat data as the connect.
      {
        std::lock_guard lock(mu_);
        if (open_.insert(conn).second) {
          out.push_back({TransportEvent::Kind::kAccept, conn, {}});
        }
      }
      auto* bytes = std::any_cast<std::string>(&msg->payload);
      if (bytes != nullptr && !bytes->empty()) {
        out.push_back(
            {TransportEvent::Kind::kData, conn, std::move(*bytes)});
      }
    } else if (msg->type == kSimClose) {
      std::lock_guard lock(mu_);
      if (open_.erase(conn) != 0) {
        out.push_back({TransportEvent::Kind::kClosed, conn, {}});
      }
    }
    // Anything else on this site is not ours; drop it.
  }
  return out;
}

bool SimTransport::send(ConnId conn, std::string_view bytes) {
  {
    std::lock_guard lock(mu_);
    if (open_.count(conn) == 0) return false;
  }
  Message msg;
  msg.from = site_;
  msg.to = SiteId(conn);
  msg.type = kSimData;
  msg.payload = std::string(bytes);
  net_.send(std::move(msg));
  return true;
}

void SimTransport::close(ConnId conn) {
  {
    std::lock_guard lock(mu_);
    if (open_.erase(conn) == 0) return;
  }
  Message msg;
  msg.from = site_;
  msg.to = SiteId(conn);
  msg.type = kSimClose;
  net_.send(std::move(msg));
}

// ------------------------------------------------------ Sim client side ---

void SimClientChannel::connect() {
  Message msg;
  msg.from = site_;
  msg.to = server_;
  msg.type = kSimConnect;
  net_.send(std::move(msg));
}

bool SimClientChannel::send_bytes(std::string_view bytes) {
  if (server_closed_) return false;
  Message msg;
  msg.from = site_;
  msg.to = server_;
  msg.type = kSimData;
  msg.payload = std::string(bytes);
  net_.send(std::move(msg));
  return true;
}

std::optional<std::string> SimClientChannel::recv(
    std::chrono::milliseconds timeout) {
  if (server_closed_) return std::nullopt;
  std::optional<Message> msg = net_.receive_request(site_, timeout);
  if (!msg.has_value()) return std::nullopt;
  if (msg->type == kSimClose) {
    server_closed_ = true;
    return std::nullopt;
  }
  if (msg->type != kSimData) return std::nullopt;
  auto* bytes = std::any_cast<std::string>(&msg->payload);
  if (bytes == nullptr) return std::nullopt;
  return std::move(*bytes);
}

void SimClientChannel::close() {
  Message msg;
  msg.from = site_;
  msg.to = server_;
  msg.type = kSimClose;
  net_.send(std::move(msg));
}

}  // namespace atp::server
