#include "wal/continuation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

namespace atp {
namespace {

// Layout: four LEB128 varints (type_index, piece_count, first_op, op
// count), then per op a tag byte, the item as a varint and the delta.  Tag
// bits 0-1 are the AccessType; bit 2 set means the delta is a whole number
// stored as a zigzag varint, clear means 8 little-endian IEEE-754 bytes.
// Every other tag bit must be clear.
//
// A cross-site continuation: varints gtid, origin and piece count, then per
// piece its site and op count; a policy byte; Limit_t, a varint count of
// committed pieces and each one's Z_p; then every piece's ops, in chain
// order, as above.  A lone Value is a tag byte holding only bit 2, then the
// number as an op's delta stores it.
constexpr std::uint8_t kTypeMask = 0x3;
constexpr std::uint8_t kWholeDelta = 0x4;
/// AccessType::Write, the last access kind (chop/program.h).
constexpr std::uint8_t kMaxOpType = 2;
/// DistPolicy::Dynamic, the last distribution policy (engine/method.h).
constexpr std::uint8_t kMaxPolicy = 1;
/// Smallest encoded op: tag, one-byte item, one-byte whole delta.
constexpr std::size_t kMinOpBytes = 3;
/// Smallest encoded lone Value: tag and a one-byte whole number.
constexpr std::size_t kMinValueBytes = 2;
/// Smallest cross-site piece header: one-byte site and op count.
constexpr std::size_t kMinPieceBytes = 2;

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(char(std::uint8_t(v) | 0x80));
    v >>= 7;
  }
  out.push_back(char(v));
}

/// Whole numbers a double represents exactly (|v| < 2^53).
[[nodiscard]] bool is_whole(Value v) {
  return std::trunc(v) == v && std::fabs(v) < 9007199254740992.0;
}

/// `v` after a tag whose bit 2 says `whole`.
void put_number(std::string& out, Value v, bool whole) {
  if (whole) {
    const auto d = std::int64_t(v);
    put_varint(out, (std::uint64_t(d) << 1) ^ std::uint64_t(d >> 63));
  } else {
    char b[sizeof(Value)];
    std::memcpy(b, &v, sizeof(Value));
    if constexpr (std::endian::native == std::endian::big) {
      std::reverse(b, b + sizeof(Value));
    }
    out.append(b, sizeof(Value));
  }
}

void put_op(std::string& out, const ContinuationOp& op) {
  const bool whole = is_whole(op.delta);
  out.push_back(char(op.type | (whole ? kWholeDelta : 0)));
  put_varint(out, op.item);
  put_number(out, op.delta, whole);
}

void put_value(std::string& out, Value v) {
  const bool whole = is_whole(v);
  out.push_back(char(whole ? kWholeDelta : 0));
  put_number(out, v, whole);
}

/// Bounds-checked reader over a payload; every get fails once the bytes
/// run out.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool byte(std::uint8_t& v) {
    if (pos_ >= bytes_.size()) return false;
    v = std::uint8_t(bytes_[pos_++]);
    return true;
  }

  [[nodiscard]] bool varint(std::uint64_t& v) {
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      std::uint8_t b;
      if (!byte(b)) return false;
      if (shift == 63 && b > 1) return false;  // overflows 64 bits
      v |= std::uint64_t(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;  // more than ten bytes
  }

  [[nodiscard]] bool u32(std::uint32_t& v) {
    std::uint64_t wide;
    if (!varint(wide) || wide > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    v = std::uint32_t(wide);
    return true;
  }

  [[nodiscard]] bool raw_double(Value& v) {
    if (bytes_.size() - pos_ < sizeof(Value)) return false;
    char b[sizeof(Value)];
    std::memcpy(b, bytes_.data() + pos_, sizeof(Value));
    if constexpr (std::endian::native == std::endian::big) {
      std::reverse(b, b + sizeof(Value));
    }
    std::memcpy(&v, b, sizeof(Value));
    pos_ += sizeof(Value);
    return true;
  }

  /// A number stored after a tag: a zigzag varint when `tag` has bit 2.
  [[nodiscard]] bool number(std::uint8_t tag, Value& v) {
    if ((tag & kWholeDelta) == 0) return raw_double(v);
    std::uint64_t z;
    if (!varint(z)) return false;
    v = Value(std::int64_t(z >> 1) ^ -std::int64_t(z & 1));
    return true;
  }

  [[nodiscard]] bool op(ContinuationOp& op) {
    std::uint8_t tag;
    if (!byte(tag) || (tag & ~(kTypeMask | kWholeDelta)) != 0 ||
        (tag & kTypeMask) > kMaxOpType || !varint(op.item)) {
      return false;
    }
    op.type = tag & kTypeMask;
    return number(tag, op.delta);
  }

  [[nodiscard]] bool value(Value& v) {
    std::uint8_t tag;
    return byte(tag) && (tag & ~kWholeDelta) == 0 && number(tag, v);
  }

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Just the piece count of a payload (nullopt when the header is bad).
[[nodiscard]] std::optional<std::uint32_t> piece_count_of(
    std::string_view bytes) {
  Reader in(bytes);
  std::uint32_t type_index, piece_count;
  if (!in.u32(type_index) || !in.u32(piece_count) || piece_count < 2) {
    return std::nullopt;
  }
  return piece_count;
}

}  // namespace

std::string encode_continuation(const Continuation& c) {
  std::string out;
  put_varint(out, c.type_index);
  put_varint(out, c.piece_count);
  put_varint(out, c.first_op);
  put_varint(out, c.ops.size());
  for (const ContinuationOp& op : c.ops) put_op(out, op);
  return out;
}

std::optional<Continuation> decode_continuation(std::string_view bytes) {
  Reader in(bytes);
  Continuation c;
  std::uint32_t n;
  if (!in.u32(c.type_index) || !in.u32(c.piece_count) ||
      !in.u32(c.first_op) || !in.u32(n)) {
    return std::nullopt;
  }
  // Every piece after the first holds at least one op, and the count must
  // fit in what is left (a corrupt count must not size an allocation).
  if (c.piece_count < 2 || n < c.piece_count - 1 ||
      n > in.remaining() / kMinOpBytes) {
    return std::nullopt;
  }
  c.ops.resize(n);
  for (ContinuationOp& op : c.ops) {
    if (!in.op(op)) return std::nullopt;
  }
  if (in.remaining() != 0) return std::nullopt;  // padded
  return c;
}

std::string encode_cross_site(const CrossSiteContinuation& c) {
  std::string out;
  put_varint(out, c.gtid);
  put_varint(out, c.origin);
  put_varint(out, c.pieces.size());
  for (const CrossSitePiece& p : c.pieces) {
    put_varint(out, p.site);
    put_varint(out, p.ops.size());
  }
  out.push_back(char(c.policy));
  put_value(out, c.limit);
  put_varint(out, c.done.size());
  for (const Value z : c.done) put_value(out, z);
  for (const CrossSitePiece& p : c.pieces) {
    for (const ContinuationOp& op : p.ops) put_op(out, op);
  }
  return out;
}

std::optional<CrossSiteContinuation> decode_cross_site(
    std::string_view bytes) {
  Reader in(bytes);
  CrossSiteContinuation c;
  std::uint32_t n;
  if (!in.varint(c.gtid) || !in.u32(c.origin) || !in.u32(n) || n == 0 ||
      n > in.remaining() / kMinPieceBytes) {
    return std::nullopt;
  }
  // The ops follow everything else, so all of them must fit in what is
  // left after each piece's count.
  std::uint64_t ops = 0;
  c.pieces.resize(n);
  for (CrossSitePiece& p : c.pieces) {
    std::uint32_t k;
    if (!in.u32(p.site) || !in.u32(k) || k == 0) return std::nullopt;
    ops += k;
    if (ops > in.remaining() / kMinOpBytes) return std::nullopt;
    p.ops.resize(k);
  }
  if (!in.byte(c.policy) || c.policy > kMaxPolicy || !in.value(c.limit) ||
      !in.u32(n) || n == 0 || n > in.remaining() / kMinValueBytes) {
    return std::nullopt;
  }
  c.done.resize(n);
  for (Value& z : c.done) {
    if (!in.value(z)) return std::nullopt;
  }
  for (CrossSitePiece& p : c.pieces) {
    for (ContinuationOp& op : p.ops) {
      if (!in.op(op)) return std::nullopt;
    }
  }
  if (in.remaining() != 0) return std::nullopt;  // padded
  return c;
}

std::vector<OpenContinuation> open_continuations(
    const std::vector<LogRecord>& records, std::size_t* rejected) {
  // Pass 1 tracks only the continuations still open at each point of the
  // scan (a finished one is dropped at its last stamp), and reads no more of
  // a payload than its piece count: a checkpoint runs this over a whole
  // epoch of log, nearly all of it finished.  Each piece commits once, so
  // counting stamps counts pieces.
  struct Progress {
    const LogRecord* opener;
    std::uint32_t piece_count;
    std::uint32_t stamped = 0;
  };
  std::unordered_map<TxnId, Progress> progress;
  for (const LogRecord& r : records) {
    if (r.type != LogRecordType::kCommit || r.key == kInvalidTxn) continue;
    if (!r.payload.empty()) {
      const std::optional<std::uint32_t> pieces = piece_count_of(r.payload);
      if (!pieces) {
        if (rejected != nullptr) ++*rejected;
        continue;
      }
      progress.emplace(r.key, Progress{&r, *pieces});
    }
    const auto it = progress.find(r.key);
    if (it == progress.end() || r.piece >= it->second.piece_count) continue;
    if (++it->second.stamped == it->second.piece_count) progress.erase(it);
  }
  // Pass 2 decodes the open ones and collects their stamps, oldest first.
  std::vector<OpenContinuation> open;
  for (const auto& [id, p] : progress) {
    std::optional<Continuation> c = decode_continuation(p.opener->payload);
    if (!c) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    open.push_back(OpenContinuation{id, p.opener->lsn, std::move(*c), {}});
  }
  if (open.empty()) return open;
  std::sort(open.begin(), open.end(),
            [](const auto& a, const auto& b) { return a.lsn < b.lsn; });
  std::unordered_map<TxnId, OpenContinuation*> index;
  for (OpenContinuation& oc : open) index.emplace(oc.id, &oc);
  for (const LogRecord& r : records) {
    if (r.type != LogRecordType::kCommit || r.key == kInvalidTxn) continue;
    const auto it = index.find(r.key);
    if (it == index.end()) continue;
    OpenContinuation& oc = *it->second;
    if (r.lsn >= oc.lsn && r.piece < oc.cont.piece_count) {
      oc.done.emplace_back(r.piece, r.value);
    }
  }
  return open;
}

}  // namespace atp
