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
  // Several pollers may wake for one pending connection; the ones that
  // lose the race need EAGAIN, where a blocking listener would park them
  // inside accept4.
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
  // No thread polls or sends any more: the owner of this transport has
  // joined them.
  for (auto& [id, c] : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool TcpTransport::ok() const { return listener_.ok() && epoll_fd_ >= 0; }

std::uint16_t TcpTransport::port() const { return listener_.port(); }

std::shared_ptr<TcpTransport::Conn> TcpTransport::find(ConnId id) const {
  std::lock_guard lock(mu_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

void TcpTransport::erase(ConnId id) {
  std::lock_guard lock(mu_);
  conns_.erase(id);
}

std::vector<TransportEvent> TcpTransport::poll(
    std::chrono::milliseconds timeout) {
  std::vector<TransportEvent> out;
  if (!ok()) return out;
  // One event: this thread takes one connection and leaves the rest to the
  // other pollers.
  epoll_event ev{};
  if (::epoll_wait(epoll_fd_, &ev, 1,
                   int(std::max<std::int64_t>(0, timeout.count()))) != 1) {
    return out;
  }
  if (ev.data.u64 == kListenerTag) {
    accept_one(&out);
    return out;
  }
  const ConnId id = ev.data.u64;
  const std::shared_ptr<Conn> c = find(id);
  if (c == nullptr) return out;  // closed since the event fired
  {
    std::lock_guard lock(c->mu);
    // A send() asking for EPOLLOUT re-arms a connection nobody owns, and
    // may race a delivery already on its way: whoever finds it armed owns
    // it, and a second delivery finds it owned and is dropped.  The
    // owner's rearm asks epoll again for whatever is still pending.
    if (!c->armed) return out;
    c->armed = false;
    bool alive = !c->doomed && (ev.events & (EPOLLERR | EPOLLHUP)) == 0;
    if (alive && (ev.events & EPOLLOUT) != 0) alive = flush_locked(*c);
    if (alive && (ev.events & EPOLLIN) != 0) alive = read_locked(id, *c, &out);
    if (alive) {
      // Only a flush: the server has nothing to re-arm, so do it here.
      if (out.empty()) arm_locked(id, *c);
      return out;
    }
    close_locked(*c);
  }
  erase(id);
  out.push_back({TransportEvent::Kind::kClosed, id, {}});
  return out;
}

void TcpTransport::accept_one(std::vector<TransportEvent>* out) {
  // Another poller may have taken it: the listener is level-triggered.
  const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
  if (fd < 0) return;
  ConnId id;
  {
    std::lock_guard lock(mu_);
    id = next_id_++;
    conns_.emplace(id, std::make_shared<Conn>(fd));
  }
  // Not in epoll yet: the caller owns it, and its first rearm adds it.
  out->push_back({TransportEvent::Kind::kAccept, id, {}});
}

bool TcpTransport::read_locked(ConnId id, Conn& c,
                               std::vector<TransportEvent>* out) {
  std::string data;
  bool alive = true;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      data.append(buf, std::size_t(n));
      // A short read emptied the socket.  Epoll is level-triggered, so the
      // next bytes, or an EOF right behind these, are delivered after the
      // rearm; asking again now would only cost a recv that says EAGAIN.
      if (std::size_t(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    alive = false;  // orderly EOF or hard error
    break;
  }
  if (!data.empty()) {
    out->push_back({TransportEvent::Kind::kData, id, std::move(data)});
  }
  return alive;
}

bool TcpTransport::flush_locked(Conn& c) {
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

void TcpTransport::arm_locked(ConnId id, Conn& c) {
  if (c.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  if (!c.write_buf.empty()) ev.events |= EPOLLOUT;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, c.added ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, c.fd,
                  &ev) == 0) {
    c.added = true;
    c.armed = true;
  }
}

void TcpTransport::doom_locked(Conn& c) {
  c.doomed = true;
  std::string().swap(c.write_buf);
  // Both directions down: epoll reports EPOLLHUP, so the next delivery of
  // this connection -- at once if it is armed, else after its owner's
  // rearm -- closes it and emits kClosed.
  ::shutdown(c.fd, SHUT_RDWR);
}

void TcpTransport::close_locked(Conn& c) {
  if (c.fd < 0) return;
  if (c.added) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  c.armed = false;
}

void TcpTransport::rearm(ConnId conn) {
  const std::shared_ptr<Conn> c = find(conn);
  if (c == nullptr) return;
  std::lock_guard lock(c->mu);
  if (!c->armed) arm_locked(conn, *c);
}

bool TcpTransport::send(ConnId conn, std::string_view bytes) {
  const std::shared_ptr<Conn> c = find(conn);
  if (c == nullptr) return false;
  std::lock_guard lock(c->mu);
  if (c->fd < 0 || c->doomed) return false;
  const bool was_empty = c->write_buf.empty();
  std::size_t off = 0;
  if (was_empty) {
    // Fast path: hand the kernel as much as it will take right now.
    while (off < bytes.size()) {
      const ssize_t n = ::send(c->fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += std::size_t(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      doom_locked(*c);  // hard send error
      return false;
    }
    if (off == bytes.size()) return true;
  }
  c->write_buf.append(bytes.data() + off, bytes.size() - off);
  if (c->write_buf.size() > kMaxWriteBuffer) {
    // The peer stopped reading; buffering forever is how servers die.
    doom_locked(*c);
    return false;
  }
  // Nobody owns it (its session waits in the server's queue): ask epoll
  // for writability now.  An owner's rearm asks for it instead -- a MOD
  // here would re-arm a connection another thread is serving.
  if (was_empty && c->armed) arm_locked(conn, *c);
  return true;
}

void TcpTransport::close(ConnId conn) {
  const std::shared_ptr<Conn> c = find(conn);
  if (c == nullptr) return;
  {
    std::lock_guard lock(c->mu);
    close_locked(*c);
  }
  erase(conn);
}

// ---------------------------------------------------------------- Sim -----

SimTransport::SimTransport(SimNetwork& net, SiteId server_site)
    : net_(net), site_(server_site) {}

std::vector<TransportEvent> SimTransport::poll(
    std::chrono::milliseconds timeout) {
  std::vector<TransportEvent> out;
  bool accepted = false;
  bool fed = false;
  bool closed = false;
  // The claim runs under the inbox lock, so taking a message and becoming
  // its connection's owner happen together: a second poller cannot take
  // the next message of the same connection in between.
  std::optional<Message> msg = net_.receive_request_if(
      site_, timeout, [&](const Message& m) {
        const ConnId conn = m.from;
        std::lock_guard lock(mu_);
        if (owned_.count(conn) != 0) return false;  // held until rearm
        if (m.type == kSimConnect || m.type == kSimData) {
          // A data message from an unknown conn means the connect
          // announcement was dropped (fault schedules do that); treat data
          // as the connect.
          accepted = open_.insert(conn).second;
          const auto* bytes = std::any_cast<std::string>(&m.payload);
          fed = m.type == kSimData && bytes != nullptr && !bytes->empty();
          if (accepted || fed) owned_.insert(conn);
        } else if (m.type == kSimClose) {
          closed = open_.erase(conn) != 0;
        }
        // Anything else on this site is not ours; it is taken and dropped.
        return true;
      });
  if (!msg.has_value()) return out;
  const ConnId conn = msg->from;
  if (accepted) out.push_back({TransportEvent::Kind::kAccept, conn, {}});
  if (fed) {
    out.push_back({TransportEvent::Kind::kData, conn,
                   std::move(*std::any_cast<std::string>(&msg->payload))});
  }
  if (closed) out.push_back({TransportEvent::Kind::kClosed, conn, {}});
  return out;
}

void SimTransport::rearm(ConnId conn) {
  {
    std::lock_guard lock(mu_);
    if (owned_.erase(conn) == 0) return;
  }
  net_.wake(site_);  // its held messages are claimable now
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
    owned_.erase(conn);
    if (open_.erase(conn) == 0) return;
  }
  // Whatever the client still sends arrives as a new connection.
  net_.wake(site_);
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
