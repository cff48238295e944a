// Client library: the other end of the wire protocol.
//
// A Client drives transactions on a remote atpd over any ByteChannel -- the
// real TCP socket (TcpByteChannel) or the deterministic simulated network
// (SimByteChannel) -- so tests and tools exercise the exact frames a
// production client would send.  The API mirrors the in-process Txn handle
// (begin/read/write/add/commit/abort) with the server's additions: the
// class handshake (hello) and per-Begin eps requests.
//
// The client is synchronous and single-threaded: one request in flight at a
// time, each call blocks until its reply (matched by seq) or the timeout.
// Not thread-safe -- give each thread its own Client (bench_net does).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "server/protocol.h"
#include "server/transport.h"

namespace atp::server {

/// Blocking byte-stream the Client speaks frames over.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;
  [[nodiscard]] virtual bool ok() const = 0;
  virtual bool send_bytes(std::string_view bytes) = 0;
  /// Next chunk of server bytes; std::nullopt on timeout or channel death.
  virtual std::optional<std::string> recv(
      std::chrono::milliseconds timeout) = 0;
  virtual void close() = 0;
};

/// Production channel: one blocking loopback TCP connection.
class TcpByteChannel final : public ByteChannel {
 public:
  TcpByteChannel(const std::string& host, std::uint16_t port);
  ~TcpByteChannel() override;

  [[nodiscard]] bool ok() const override { return fd_ >= 0; }
  bool send_bytes(std::string_view bytes) override;
  std::optional<std::string> recv(std::chrono::milliseconds timeout) override;
  void close() override;

 private:
  int fd_ = -1;
};

/// Deterministic channel over SimNetwork (wraps SimClientChannel and
/// announces the connection at construction).
class SimByteChannel final : public ByteChannel {
 public:
  SimByteChannel(SimNetwork& net, SiteId client_site, SiteId server_site)
      : ch_(net, client_site, server_site) {
    ch_.connect();
  }

  [[nodiscard]] bool ok() const override { return !ch_.closed_by_server(); }
  bool send_bytes(std::string_view bytes) override {
    return ch_.send_bytes(bytes);
  }
  std::optional<std::string> recv(std::chrono::milliseconds timeout) override {
    return ch_.recv(timeout);
  }
  void close() override { ch_.close(); }

 private:
  SimClientChannel ch_;
};

/// What the server granted at hello time.
struct ClassInfo {
  std::string name;
  double import_ceiling = 0;
  std::uint64_t window = 0;  ///< per-session in-flight request window
};

class Client {
 public:
  explicit Client(std::unique_ptr<ByteChannel> channel,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(5000));

  [[nodiscard]] bool ok() const { return channel_ && channel_->ok(); }

  /// Handshake into a client class.  Must be the first call.
  Status hello(const std::string& client_class);

  /// Ceilings/window the server granted (valid after hello()).
  [[nodiscard]] const ClassInfo& class_info() const noexcept { return info_; }

  /// Open a transaction; returns the client-side handle used in every later
  /// call.  A negative import limit means "class default" (the ceiling); an
  /// update ET has no eps budget and ignores it.
  [[nodiscard]] Result<std::uint64_t> begin(TxnKind kind,
                                            double import_limit = -1);

  [[nodiscard]] Result<Value> read(std::uint64_t txn, Key key);
  Status write(std::uint64_t txn, Key key, Value value);
  Status add(std::uint64_t txn, Key key, Value delta);

  /// Commit; the value is the transaction's accumulated fuzziness Z.
  [[nodiscard]] Result<Value> commit(std::uint64_t txn);
  Status abort(std::uint64_t txn);

  /// Liveness probe / pipeline fence.
  Status ping();

  void close();

 private:
  /// Send `req` (seq assigned here) and block for the matching reply.
  [[nodiscard]] Result<WireMessage> call(WireMessage req);
  [[nodiscard]] static Status status_from_error(const WireMessage& reply);

  std::unique_ptr<ByteChannel> channel_;
  std::chrono::milliseconds timeout_;
  FrameReader reader_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_txn_ = 1;
  ClassInfo info_;
};

}  // namespace atp::server
