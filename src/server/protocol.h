// Binary wire protocol of the server front-end.
//
// This is the process boundary the rest of the tree never had: inside the
// engine, messages carry std::any payloads (net/message.h) because every
// site lives in one address space.  A client, by definition, does not -- so
// everything that crosses a Transport is one of these frames:
//
//   [u32 length][u8 version][u8 kind][payload ...]
//
// `length` counts everything after the length field itself (version + kind +
// payload), little-endian.  Payload layout is the same fixed record for
// every kind -- unused fields encode as zero -- which keeps the decoder a
// single bounds-checked path and makes round-trip testing exhaustive:
//
//   [u64 seq][u64 txn][u8 op][u64 key][f64 value][u16 len][text]
//
//   seq    client-chosen request sequence number, echoed on the reply --
//          the correlation id of the protocol
//   txn    client-side transaction handle (client-chosen on Begin, echoed
//          everywhere else)
//   op     OpCode on kOp requests; ErrorCode on kError replies
//   key    data item (kOp)
//   value  op delta / written value / read result / requested or granted
//          import limit
//   text   client class (kHello), error message (kError)
//
// Doubles travel as IEEE-754 bit patterns (memcpy through u64); every
// integer is little-endian regardless of host order.  The decoder rejects --
// without crashing, allocating unboundedly, or reading out of bounds -- bad
// magic versions, unknown kinds, frames above kMaxFrameBytes, and payloads
// whose size disagrees with the fixed record (tests/protocol_test.cpp runs
// the malformed-input matrix under ATP_SANITIZE).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace atp::server {

/// Bumped whenever the fixed payload record changes; a frame of any other
/// version is refused (DecodeStatus::kBad).
constexpr std::uint8_t kProtocolVersion = 2;

/// Hard ceiling on one frame (length field value).  Nothing the protocol
/// carries is remotely this large; anything bigger is a corrupt or hostile
/// stream and the connection is dropped.
constexpr std::uint32_t kMaxFrameBytes = 1 << 16;

enum class MsgKind : std::uint8_t {
  // Requests (client -> server).
  kHello = 1,   ///< handshake: text = client class name
  kBegin = 2,   ///< open txn `txn`; op = TxnKind, value = requested import
                ///< limit (negative = class default)
  kOp = 3,      ///< op on txn `txn`: OpCode in `op`, key, value
  kCommit = 4,  ///< commit txn `txn`
  kAbort = 5,   ///< abort txn `txn`
  kPing = 6,    ///< liveness probe / fence

  // Replies (server -> client).
  kHelloOk = 64,  ///< text = granted class; value = class import ceiling;
                  ///< key = per-session in-flight window
  kOk = 65,       ///< request `seq` done (begin/commit/abort/ping)
  kValue = 66,    ///< read result in `value`
  kError = 67,    ///< request failed: ErrorCode in `op`, text = message
};

[[nodiscard]] const char* to_string(MsgKind k) noexcept;

/// Client-visible op codes inside a transaction (kOp requests).
enum class OpCode : std::uint8_t {
  kRead = 1,   ///< value <- db[key]
  kWrite = 2,  ///< db[key] <- value
  kAdd = 3,    ///< db[key] += value
};

/// One decoded frame.  Unused fields are zero / empty; see the layout note
/// above for which kinds use which fields.
struct WireMessage {
  MsgKind kind = MsgKind::kPing;
  std::uint64_t seq = 0;
  std::uint64_t txn = 0;
  std::uint8_t op = 0;
  Key key = 0;
  double value = 0;
  std::string text;

  friend bool operator==(const WireMessage&, const WireMessage&) = default;
};

/// Append the encoded frame for `msg` to `out`.
void encode_frame(const WireMessage& msg, std::string* out);

/// Convenience: the encoded frame as a fresh string.
[[nodiscard]] std::string encode_frame(const WireMessage& msg);

enum class DecodeStatus : std::uint8_t {
  kOk,        ///< one frame decoded; *consumed bytes were eaten
  kNeedMore,  ///< prefix of a valid frame; feed more bytes
  kBad,       ///< malformed (bad version/kind/length); drop the connection
};

/// Decode one frame from the front of `data`.  On kOk fills *out and sets
/// *consumed to the frame's total size.  Never reads past `data.size()`.
[[nodiscard]] DecodeStatus decode_frame(std::string_view data,
                                        WireMessage* out,
                                        std::size_t* consumed);

/// Incremental stream decoder: feed bytes as they arrive, pop frames as they
/// complete.  One per connection (session read path, client reply path).
class FrameReader {
 public:
  /// Append raw bytes from the stream.  Once the stream has gone bad the
  /// bytes are discarded -- an owner slow to drop the connection must not
  /// let a hostile peer grow the buffer unboundedly.
  void feed(std::string_view bytes) {
    if (bad_) return;
    buf_.append(bytes);
  }

  /// Next complete frame, if any.  Returns std::nullopt when the buffer
  /// holds only a partial frame; sets bad() and returns std::nullopt when
  /// the stream is malformed (the owner must drop the connection -- framing
  /// can't resynchronize after a corrupt length).
  std::optional<WireMessage> next();

  [[nodiscard]] bool bad() const noexcept { return bad_; }

  /// Bytes buffered but not yet consumed (tests).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  std::string buf_;
  bool bad_ = false;
};

}  // namespace atp::server
