// Transport: the byte-stream boundary between clients and the server loop.
//
// The server front-end (server.h) is written against this interface and
// genuinely does not know which backend it is on:
//
//   * TcpTransport -- the production path.  One epoll instance, with every
//     connection registered EPOLLONESHOT, drives a non-blocking
//     accept/read/write loop over real loopback sockets: a poll accepts one
//     connection or reads what one recv returns (another only after a full
//     buffer), writes try inline first and fall back to a bounded
//     per-connection queue flushed on EPOLLOUT readiness.  A connection
//     that buffers more than kMaxWriteBuffer (a client that stopped
//     reading) is shut down and reported closed -- backpressure by
//     eviction, never unbounded memory.
//
//   * SimTransport -- the same interface over the deterministic SimNetwork,
//     which stays byte-for-byte unchanged for the chaos/replay suites.  Wire
//     frames travel as std::string payloads inside net/message.h Messages
//     ("srv.conn"/"srv.data"/"srv.close" types), so the exact bytes a TCP
//     client would send cross the simulated network instead -- message.h
//     payloads finally carry real serialization at the process boundary, and
//     every session/admission test can run deterministically (and under the
//     fault injector) without a socket.
//
// Threading contract: one-shot delivery.  Any number of threads may block
// in poll() at once.  One poll returns the events of at most one
// connection, and delivering them makes the calling thread that
// connection's owner: nothing more is delivered for it -- its later bytes,
// its EOF -- until the owner calls rearm(conn).  A new connection is
// delivered as kAccept (on the sim backend together with the bytes that
// announced it, when its connect message was lost), and whatever follows
// waits for the first rearm, so nothing arrives before the owner has set
// up its side.  kClosed ends the connection; it is never re-armed.
// close() is for the owner only.  send() may be called from any thread,
// owner or not.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/socket.h"
#include "net/network.h"

#include "common/ordered_lock.h"

namespace atp::server {

using ConnId = std::uint64_t;

struct TransportEvent {
  enum class Kind : std::uint8_t {
    kAccept,  ///< new connection
    kData,    ///< bytes arrived (data)
    kClosed,  ///< peer gone (EOF, error, or evicted for backpressure)
  };
  Kind kind = Kind::kData;
  ConnId conn = 0;
  std::string data;  ///< kData only
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual bool ok() const = 0;

  /// Block up to `timeout` for one connection's activity and make the
  /// caller its owner.  Returns that connection's events in order (kData
  /// may be followed by kClosed), or an empty vector on timeout.
  [[nodiscard]] virtual std::vector<TransportEvent> poll(
      std::chrono::milliseconds timeout) = 0;

  /// The owner is done with the events poll() gave it: deliver `conn`'s
  /// next activity to whichever thread polls.  No-op once it is closed.
  virtual void rearm(ConnId conn) = 0;

  /// Queue `bytes` toward `conn`.  Thread-safe.  False when the connection
  /// is gone or was just evicted (its kClosed comes through poll).
  virtual bool send(ConnId conn, std::string_view bytes) = 0;

  /// Drop `conn` (its owner only).  No kClosed event is emitted for a
  /// locally-initiated close.
  virtual void close(ConnId conn) = 0;

  /// TCP: the bound listen port.  Sim: 0.
  [[nodiscard]] virtual std::uint16_t port() const { return 0; }
};

/// Production backend: epoll over loopback TCP.
class TcpTransport final : public Transport {
 public:
  /// Listens on 127.0.0.1:`port` (0 = kernel-assigned).
  explicit TcpTransport(std::uint16_t port);
  ~TcpTransport() override;

  [[nodiscard]] bool ok() const override;
  [[nodiscard]] std::vector<TransportEvent> poll(
      std::chrono::milliseconds timeout) override;
  void rearm(ConnId conn) override;
  bool send(ConnId conn, std::string_view bytes) override;
  void close(ConnId conn) override;
  [[nodiscard]] std::uint16_t port() const override;

  /// A connection whose unflushed write queue passes this is evicted.
  static constexpr std::size_t kMaxWriteBuffer = 4u << 20;

 private:
  struct Conn {
    explicit Conn(int f) : fd(f) {}
    OrderedMutex<LockRank::kTransportConn> mu;  ///< rank kTransportConn
    // Guarded by mu.
    int fd;                  ///< -1 once closed: no send reaches a reused fd
    std::string write_buf;   ///< bytes the kernel would not take yet
    bool added = false;      ///< in epoll (the first rearm adds it)
    bool armed = false;      ///< in epoll and waiting: no thread owns it
    bool doomed = false;     ///< evicted and shut down; delivered as kClosed
  };

  [[nodiscard]] std::shared_ptr<Conn> find(ConnId id) const;
  void accept_one(std::vector<TransportEvent>* out);
  /// Read what the socket has into a kData event; false on EOF or error.
  bool read_locked(ConnId id, Conn& c, std::vector<TransportEvent>* out);
  /// Drain write_buf into the socket; false when the connection must die.
  bool flush_locked(Conn& c);
  /// Hand `c` back to epoll, asking for EPOLLOUT while write_buf is not
  /// empty.
  void arm_locked(ConnId id, Conn& c);
  /// Evict: shut the socket down so its next delivery reports it closed.
  void doom_locked(Conn& c);
  /// Close the fd; the caller then erases the entry (without c.mu held).
  void close_locked(Conn& c);
  void erase(ConnId id);

  ListenSocket listener_;
  int epoll_fd_ = -1;
  // Guards the map and the id counter only; each Conn has its own lock,
  // and the two are never held together.  A thread copies the shared_ptr
  // out and drops mu_ before any syscall.
  mutable OrderedMutex<LockRank::kTransport> mu_;  ///< rank kTransport
  ConnId next_id_ = 2;  // 1 tags the listener in epoll data
  std::unordered_map<ConnId, std::shared_ptr<Conn>> conns_;
};

/// Deterministic backend over SimNetwork.  The server occupies
/// `server_site`; each client channel occupies its own site, and that site
/// id doubles as the ConnId.  One poll takes one message; a connection's
/// later messages stay in the network inbox while it has an owner.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, SiteId server_site);

  [[nodiscard]] bool ok() const override { return true; }
  [[nodiscard]] std::vector<TransportEvent> poll(
      std::chrono::milliseconds timeout) override;
  void rearm(ConnId conn) override;
  bool send(ConnId conn, std::string_view bytes) override;
  void close(ConnId conn) override;

 private:
  SimNetwork& net_;
  SiteId site_;
  // Taken inside the network's inbox lock by poll()'s claim, so never held
  // across a SimNetwork call.
  mutable OrderedMutex<LockRank::kSimTransport> mu_;  ///< rank kSimTransport
  std::unordered_set<ConnId> open_;
  std::unordered_set<ConnId> owned_;  ///< delivered and not yet re-armed
};
/// Client side of SimTransport: a blocking byte channel speaking the same
/// "srv.*" message types from its own site.  Tests drive sessions through
/// this for determinism; the TCP equivalent lives in client.h.
class SimClientChannel {
 public:
  SimClientChannel(SimNetwork& net, SiteId client_site, SiteId server_site)
      : net_(net), site_(client_site), server_(server_site) {}

  /// Announce the connection to the server (kAccept on its next poll).
  void connect();

  bool send_bytes(std::string_view bytes);

  /// Next chunk of server bytes; std::nullopt on timeout or server close.
  std::optional<std::string> recv(std::chrono::milliseconds timeout);

  void close();

  [[nodiscard]] bool closed_by_server() const noexcept {
    return server_closed_;
  }

 private:
  SimNetwork& net_;
  SiteId site_;
  SiteId server_;
  bool server_closed_ = false;
};

}  // namespace atp::server
