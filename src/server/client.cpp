#include "server/client.h"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/socket.h"

namespace atp::server {

// ---------------------------------------------------------------- TCP -----

TcpByteChannel::TcpByteChannel(const std::string& host, std::uint16_t port)
    : fd_(connect_tcp(host, port)) {}

TcpByteChannel::~TcpByteChannel() { close(); }

bool TcpByteChannel::send_bytes(std::string_view bytes) {
  if (fd_ < 0) return false;
  if (!send_all(fd_, bytes)) {
    close();
    return false;
  }
  return true;
}

std::optional<std::string> TcpByteChannel::recv(
    std::chrono::milliseconds timeout) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const int r =
        ::poll(&pfd, 1, int(std::max<std::int64_t>(0, timeout.count())));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return std::nullopt;  // timeout or poll failure
    break;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) return std::string(buf, std::size_t(n));
    if (n < 0 && errno == EINTR) continue;
    close();  // orderly EOF or hard error
    return std::nullopt;
  }
}

void TcpByteChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ------------------------------------------------------------- Client -----

Client::Client(std::unique_ptr<ByteChannel> channel,
               std::chrono::milliseconds timeout)
    : channel_(std::move(channel)), timeout_(timeout) {}

Status Client::status_from_error(const WireMessage& reply) {
  if (reply.op == 0 || reply.op > std::uint8_t(ErrorCode::kConflict)) {
    return Status::Unavailable("malformed error reply: " + reply.text);
  }
  return {ErrorCode(reply.op), reply.text};
}

Result<WireMessage> Client::call(WireMessage req) {
  if (!ok()) return Status::Unavailable("channel closed");
  req.seq = next_seq_++;
  if (!channel_->send_bytes(encode_frame(req))) {
    return Status::Unavailable("send failed");
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    std::optional<WireMessage> reply = reader_.next();
    if (reader_.bad()) {
      channel_->close();
      return Status::Unavailable("malformed reply stream");
    }
    if (reply.has_value()) {
      // A synchronous client has one request outstanding; anything with a
      // stale seq is a leftover (e.g. a window-reject raced a reply) and is
      // skipped rather than trusted.
      if (reply->seq != req.seq) continue;
      return std::move(*reply);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return Status::Timeout("no reply within timeout");
    const auto wait =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::optional<std::string> bytes =
        channel_->recv(std::max(wait, std::chrono::milliseconds(1)));
    if (!bytes.has_value()) {
      if (!channel_->ok()) return Status::Unavailable("connection closed");
      return Status::Timeout("no reply within timeout");
    }
    reader_.feed(*bytes);
  }
}

Status Client::hello(const std::string& client_class) {
  WireMessage req;
  req.kind = MsgKind::kHello;
  req.text = client_class;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  const WireMessage& reply = r.value();
  if (reply.kind == MsgKind::kError) return status_from_error(reply);
  if (reply.kind != MsgKind::kHelloOk) {
    return Status::Unavailable("unexpected handshake reply");
  }
  info_.name = reply.text;
  info_.import_ceiling = reply.value;
  info_.window = reply.key;
  return Status::Ok();
}

Result<std::uint64_t> Client::begin(TxnKind kind, double import_limit) {
  WireMessage req;
  req.kind = MsgKind::kBegin;
  req.txn = next_txn_++;
  req.op = std::uint8_t(kind);
  req.value = import_limit;
  const std::uint64_t handle = req.txn;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return handle;
}

Result<Value> Client::read(std::uint64_t txn, Key key) {
  WireMessage req;
  req.kind = MsgKind::kOp;
  req.txn = txn;
  req.op = std::uint8_t(OpCode::kRead);
  req.key = key;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  if (r.value().kind != MsgKind::kValue) {
    return Status::Unavailable("unexpected read reply");
  }
  return Value(r.value().value);
}

Status Client::write(std::uint64_t txn, Key key, Value value) {
  WireMessage req;
  req.kind = MsgKind::kOp;
  req.txn = txn;
  req.op = std::uint8_t(OpCode::kWrite);
  req.key = key;
  req.value = double(value);
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return Status::Ok();
}

Status Client::add(std::uint64_t txn, Key key, Value delta) {
  WireMessage req;
  req.kind = MsgKind::kOp;
  req.txn = txn;
  req.op = std::uint8_t(OpCode::kAdd);
  req.key = key;
  req.value = double(delta);
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return Status::Ok();
}

Result<Value> Client::commit(std::uint64_t txn) {
  WireMessage req;
  req.kind = MsgKind::kCommit;
  req.txn = txn;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return Value(r.value().value);  // committed fuzziness Z
}

Status Client::abort(std::uint64_t txn) {
  WireMessage req;
  req.kind = MsgKind::kAbort;
  req.txn = txn;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return Status::Ok();
}

Status Client::ping() {
  WireMessage req;
  req.kind = MsgKind::kPing;
  Result<WireMessage> r = call(std::move(req));
  if (!r.ok()) return r.status();
  if (r.value().kind == MsgKind::kError) return status_from_error(r.value());
  return Status::Ok();
}

void Client::close() {
  if (channel_) channel_->close();
}

}  // namespace atp::server
