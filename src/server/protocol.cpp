#include "server/protocol.h"

#include <cstring>

namespace atp::server {

namespace {

// Fixed payload record: seq(8) + txn(8) + op(1) + key(8) + value(8) +
// text_len(2) = 35 bytes before the text.
constexpr std::size_t kFixedPayload = 35;
// Frame body = version(1) + kind(1) + payload.
constexpr std::size_t kBodyOverhead = 2;

void put_u16(std::string* out, std::uint16_t v) {
  out->push_back(char(v & 0xff));
  out->push_back(char((v >> 8) & 0xff));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

std::uint16_t get_u16(const unsigned char* p) {
  return std::uint16_t(p[0]) | std::uint16_t(p[1]) << 8;
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool known_kind(std::uint8_t k) {
  switch (MsgKind(k)) {
    case MsgKind::kHello:
    case MsgKind::kBegin:
    case MsgKind::kOp:
    case MsgKind::kCommit:
    case MsgKind::kAbort:
    case MsgKind::kPing:
    case MsgKind::kHelloOk:
    case MsgKind::kOk:
    case MsgKind::kValue:
    case MsgKind::kError:
      return true;
  }
  return false;
}

}  // namespace

const char* to_string(MsgKind k) noexcept {
  switch (k) {
    case MsgKind::kHello: return "hello";
    case MsgKind::kBegin: return "begin";
    case MsgKind::kOp: return "op";
    case MsgKind::kCommit: return "commit";
    case MsgKind::kAbort: return "abort";
    case MsgKind::kPing: return "ping";
    case MsgKind::kHelloOk: return "hello-ok";
    case MsgKind::kOk: return "ok";
    case MsgKind::kValue: return "value";
    case MsgKind::kError: return "error";
  }
  return "?";
}

void encode_frame(const WireMessage& msg, std::string* out) {
  const std::size_t text_len = msg.text.size();
  // Callers never legitimately build oversized text; truncate defensively so
  // the length fields can't lie about each other.
  const std::uint16_t tl =
      std::uint16_t(text_len > 0xffff ? 0xffff : text_len);
  put_u32(out, std::uint32_t(kBodyOverhead + kFixedPayload + tl));
  out->push_back(char(kProtocolVersion));
  out->push_back(char(msg.kind));
  put_u64(out, msg.seq);
  put_u64(out, msg.txn);
  out->push_back(char(msg.op));
  put_u64(out, msg.key);
  put_f64(out, msg.value);
  put_u16(out, tl);
  out->append(msg.text.data(), tl);
}

std::string encode_frame(const WireMessage& msg) {
  std::string out;
  out.reserve(4 + kBodyOverhead + kFixedPayload + msg.text.size());
  encode_frame(msg, &out);
  return out;
}

DecodeStatus decode_frame(std::string_view data, WireMessage* out,
                          std::size_t* consumed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  if (data.size() < 4) return DecodeStatus::kNeedMore;
  const std::uint32_t len = get_u32(p);
  if (len > kMaxFrameBytes || len < kBodyOverhead + kFixedPayload) {
    return DecodeStatus::kBad;
  }
  if (data.size() < 4 + std::size_t(len)) return DecodeStatus::kNeedMore;
  const unsigned char* body = p + 4;
  if (body[0] != kProtocolVersion) return DecodeStatus::kBad;
  if (!known_kind(body[1])) return DecodeStatus::kBad;
  const unsigned char* f = body + kBodyOverhead;
  const std::uint16_t text_len = get_u16(f + 33);
  if (std::size_t(len) != kBodyOverhead + kFixedPayload + text_len) {
    return DecodeStatus::kBad;  // the two length fields disagree
  }
  WireMessage m;
  m.kind = MsgKind(body[1]);
  m.seq = get_u64(f);
  m.txn = get_u64(f + 8);
  m.op = f[16];
  m.key = get_u64(f + 17);
  m.value = get_f64(f + 25);
  m.text.assign(reinterpret_cast<const char*>(f + 35), text_len);
  *out = std::move(m);
  *consumed = 4 + std::size_t(len);
  return DecodeStatus::kOk;
}

std::optional<WireMessage> FrameReader::next() {
  if (bad_ || buf_.empty()) return std::nullopt;
  WireMessage m;
  std::size_t consumed = 0;
  switch (decode_frame(buf_, &m, &consumed)) {
    case DecodeStatus::kOk:
      buf_.erase(0, consumed);
      return m;
    case DecodeStatus::kNeedMore:
      return std::nullopt;
    case DecodeStatus::kBad:
      bad_ = true;
      buf_.clear();
      buf_.shrink_to_fit();
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace atp::server
