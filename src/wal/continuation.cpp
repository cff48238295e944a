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
constexpr std::uint8_t kTypeMask = 0x3;
constexpr std::uint8_t kWholeDelta = 0x4;
/// AccessType::Write, the last access kind (chop/program.h).
constexpr std::uint8_t kMaxOpType = 2;
/// Smallest encoded op: tag, one-byte item, one-byte whole delta.
constexpr std::size_t kMinOpBytes = 3;

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
  for (const ContinuationOp& op : c.ops) {
    const bool whole = is_whole(op.delta);
    out.push_back(char(op.type | (whole ? kWholeDelta : 0)));
    put_varint(out, op.item);
    if (whole) {
      const auto d = std::int64_t(op.delta);
      put_varint(out, (std::uint64_t(d) << 1) ^ std::uint64_t(d >> 63));
    } else {
      char b[sizeof(Value)];
      std::memcpy(b, &op.delta, sizeof(Value));
      if constexpr (std::endian::native == std::endian::big) {
        std::reverse(b, b + sizeof(Value));
      }
      out.append(b, sizeof(Value));
    }
  }
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
    std::uint8_t tag;
    if (!in.byte(tag) || (tag & ~(kTypeMask | kWholeDelta)) != 0 ||
        (tag & kTypeMask) > kMaxOpType || !in.varint(op.item)) {
      return std::nullopt;
    }
    op.type = tag & kTypeMask;
    if (tag & kWholeDelta) {
      std::uint64_t z;
      if (!in.varint(z)) return std::nullopt;
      op.delta = Value(std::int64_t(z >> 1) ^ -std::int64_t(z & 1));
    } else if (!in.raw_double(op.delta)) {
      return std::nullopt;
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
