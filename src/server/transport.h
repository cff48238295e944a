// Transport: the byte-stream boundary between clients and the server loop.
//
// The server front-end (server.h) is written against this interface and
// genuinely does not know which backend it is on:
//
//   * TcpTransport -- the production path.  One epoll instance drives a
//     non-blocking accept/read/write loop over real loopback sockets:
//     accepts are drained until EAGAIN, a read takes what one recv returns
//     (another only after a full buffer), writes try inline first and fall
//     back to a bounded per-connection queue flushed on EPOLLOUT
//     readiness.  A connection that buffers more
//     than kMaxWriteBuffer (a client that stopped reading) is closed --
//     backpressure by eviction, never unbounded memory.
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
// Threading contract: poll() and close() are called by one thread at a time
// (the server's current poller; the role moves between threads under the
// server's queue mutex, which orders the calls); send() may be called from
// any thread (whichever thread executed a request replies directly).
#pragma once

#include <atomic>
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

  /// Block up to `timeout` for activity; drain everything ready into events.
  /// Returns an empty vector on timeout.
  [[nodiscard]] virtual std::vector<TransportEvent> poll(
      std::chrono::milliseconds timeout) = 0;

  /// Queue `bytes` toward `conn`.  Thread-safe.  False when the connection
  /// is gone (the caller's session will see kClosed on the next poll).
  virtual bool send(ConnId conn, std::string_view bytes) = 0;

  /// Drop `conn` (poller only).  No kClosed event is emitted for a
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
  bool send(ConnId conn, std::string_view bytes) override;
  void close(ConnId conn) override;
  [[nodiscard]] std::uint16_t port() const override;

  /// A connection whose unflushed write queue passes this is evicted.
  static constexpr std::size_t kMaxWriteBuffer = 4u << 20;

 private:
  struct Conn {
    int fd = -1;
    std::string write_buf;  ///< bytes the kernel would not take yet
    bool epollout_armed = false;
    bool doomed = false;    ///< evicted for backpressure; reaped next poll
  };

  void accept_ready(std::vector<TransportEvent>* out);
  void read_ready(ConnId id, std::vector<TransportEvent>* out);
  /// Drain write_buf into the socket; false when the connection must die.
  bool flush_locked(ConnId id, Conn& c);
  void arm_epollout_locked(ConnId id, Conn& c, bool want);
  void destroy_locked(ConnId id);

  ListenSocket listener_;
  int epoll_fd_ = -1;
  ConnId next_id_ = 2;   // 1 tags the listener in epoll data
  // One lock for the map and all Conn state: every critical section is a
  // memcpy plus at most one non-blocking syscall, so replying threads and
  // the poller contend only briefly.  epoll_wait itself runs unlocked, and
  // so do the poller's reads of the map: only the poller inserts or
  // erases, under mu_, while send() only looks entries up.
  mutable OrderedMutex<LockRank::kTransport> mu_;  ///< rank kTransport
  std::unordered_map<ConnId, Conn> conns_;
  std::vector<ConnId> reap_;  ///< doomed by send(); poll emits kClosed
  std::atomic<bool> reap_pending_{false};  ///< reap_ is non-empty
};

/// Deterministic backend over SimNetwork.  The server occupies
/// `server_site`; each client channel occupies its own site, and that site
/// id doubles as the ConnId.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, SiteId server_site);

  [[nodiscard]] bool ok() const override { return true; }
  [[nodiscard]] std::vector<TransportEvent> poll(
      std::chrono::milliseconds timeout) override;
  bool send(ConnId conn, std::string_view bytes) override;
  void close(ConnId conn) override;

 private:
  SimNetwork& net_;
  SiteId site_;
  // send() is thread-safe per the Transport contract, so the open-connection
  // set the poller mutates must be guarded (mirrors TcpTransport::mu_).
  mutable OrderedMutex<LockRank::kTransport> mu_;  ///< rank kTransport
  std::unordered_set<ConnId> open_;
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
