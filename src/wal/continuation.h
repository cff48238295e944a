// Continuations: what keeps a chopped transaction committing across a crash.
//
// The chopping contract (Section 4, Theorem 1) is that once piece 1 of an
// original transaction commits, the rest must commit too.  With a WAL the
// engine keeps that promise in the log itself instead of in a worker's
// memory:
//
//   * piece 1's commit record carries the continuation -- the original's
//     type index, its piece count and the parameters of every op after
//     piece 1 -- in LogRecord::payload, written by the same append as the
//     piece's after-images;
//   * every piece's commit record (piece 1's included) is stamped with the
//     continuation id (piece 1's TxnId, in LogRecord::key), its own piece
//     index (LogRecord::piece) and its fuzziness Z_p (LogRecord::value), so
//     finishing a piece advances the continuation atomically with its
//     commit, and the limit distributor's leftovers can be replayed.
//
// A continuation is open while some piece has no stamped commit record.
// Recovery hands the open ones back (RecoveryResult::continuations), the
// engine's PieceRunner::resume finishes them, and a checkpoint keeps the log
// from the oldest open one's commit record onward.
//
// The payload is varint-packed (continuation.cpp has the layout), so a
// transfer's continuation fits std::string's inline buffer and the log
// holds it without a heap allocation.  decode_continuation must consume
// exactly the payload's bytes, so a torn or padded payload is refused
// instead of misparsed.
//
// A chain of pieces at different sites (dist/coordinator.h) keeps the same
// promise with the same op records and rules: each hop forwards a
// CrossSiteContinuation through a recoverable queue, naming the pieces
// still to run, their sites, and the committed pieces' Z_p from which the
// next hop resumes the limit distributor (as PieceRunner::resume does).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "wal/log.h"

namespace atp {

/// One logged op of a continuation: the executable parameters of an Access
/// (chop/program.h).  `type` is the AccessType's underlying value.
struct ContinuationOp {
  std::uint8_t type = 0;
  Key item = 0;
  Value delta = 0;

  friend bool operator==(const ContinuationOp&,
                         const ContinuationOp&) = default;
};

/// The rest of an original transaction, as piece 1 logs it.
struct Continuation {
  std::uint32_t type_index = 0;   ///< index into the execution plan's types
  std::uint32_t piece_count = 0;  ///< pieces of the original, piece 1 included
  std::uint32_t first_op = 0;     ///< op index of ops[0] in the original
  std::vector<ContinuationOp> ops;  ///< every op from first_op to the end

  friend bool operator==(const Continuation&, const Continuation&) = default;
};

/// Serialize for LogRecord::payload.
[[nodiscard]] std::string encode_continuation(const Continuation& c);

/// Parse a payload; nullopt when it is truncated, padded or out of range
/// (fewer than two pieces, fewer ops than later pieces, an op type past
/// AccessType's last value, a field past 32 bits).
[[nodiscard]] std::optional<Continuation> decode_continuation(
    std::string_view bytes);

/// One piece of a cross-site chain still to run: its site and its ops.
struct CrossSitePiece {
  SiteId site = 0;
  std::vector<ContinuationOp> ops;

  friend bool operator==(const CrossSitePiece&,
                         const CrossSitePiece&) = default;
};

/// The rest of a chopped transaction whose pieces run at different sites,
/// as one hop hands it to the next.
struct CrossSiteContinuation {
  std::uint64_t gtid = 0;  ///< the distributed transaction
  SiteId origin = 0;       ///< its home site, which awaits the done notice
  /// The pieces still to run, in chain order; pieces[0] runs next.
  std::vector<CrossSitePiece> pieces;
  std::uint8_t policy = 0;  ///< the DistPolicy's underlying value
  Value limit = 0;          ///< Limit_t, which the policy distributes
  /// Z_p of every committed piece, piece 1 first.
  std::vector<Value> done;

  friend bool operator==(const CrossSiteContinuation&,
                         const CrossSiteContinuation&) = default;
};

/// Serialize for a recoverable queue's payload.
[[nodiscard]] std::string encode_cross_site(const CrossSiteContinuation& c);

/// Parse a payload; nullopt when it is truncated, padded or out of range (no
/// piece left, a piece without ops, no committed piece, an op type or a
/// policy past its enum's last value, a count larger than the bytes left).
[[nodiscard]] std::optional<CrossSiteContinuation> decode_cross_site(
    std::string_view bytes);

/// A continuation whose original has not finished, as found in a log.
struct OpenContinuation {
  TxnId id = kInvalidTxn;   ///< piece 1's TxnId (the continuation id)
  std::uint64_t lsn = 0;    ///< piece 1's commit record
  Continuation cont;
  /// Pieces with a stamped commit record, as (piece, Z_p) in LSN order;
  /// piece 0 first.
  std::vector<std::pair<std::uint32_t, Value>> done;
};

/// Scan `records` (LSN order) for continuations with a piece still to run.
/// Stamps whose opening record is not in `records` are ignored (a
/// checkpoint truncated a finished continuation's head).  `rejected`, when
/// set, counts opening payloads that failed to decode.
[[nodiscard]] std::vector<OpenContinuation> open_continuations(
    const std::vector<LogRecord>& records, std::size_t* rejected = nullptr);

}  // namespace atp
