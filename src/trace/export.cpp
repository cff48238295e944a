#include "trace/export.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace atp {
namespace {

// JSON has no Infinity/NaN literals; clamp so the file always parses.
void put_number(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << 0;
    return;
  }
  if (std::isinf(v)) {
    out << (v > 0 ? "1e308" : "-1e308");
    return;
  }
  std::ostringstream s;
  s.precision(std::numeric_limits<double>::max_digits10);
  s << v;
  out << s.str();
}

void put_args(std::ostream& out, const TraceEvent& e) {
  out << "{\"seq\":" << e.seq << ",\"txn\":" << e.txn << ",\"key\":" << e.key
      << ",\"a\":";
  put_number(out, e.a);
  out << ",\"b\":";
  put_number(out, e.b);
  out << ",\"aux\":" << e.aux << ",\"aux2\":" << e.aux2 << "}";
}

void put_common(std::ostream& out, const TraceEvent& e, const char* name,
                const char* cat) {
  out << "\"name\":\"" << name << "\",\"cat\":\"" << cat << "\",\"pid\":"
      << e.site << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts_us;
}

// Category for the instant track; also used to pick span kinds.
const char* category_of(TraceKind k) {
  switch (k) {
    case TraceKind::TxnBegin:
    case TraceKind::TxnCommit:
    case TraceKind::TxnAbort:
    case TraceKind::Read:
    case TraceKind::Write:
      return "txn";
    case TraceKind::RunBegin:
    case TraceKind::RunCommit:
    case TraceKind::RunRollback:
    case TraceKind::PieceStart:
    case TraceKind::PieceFinish:
    case TraceKind::PieceResubmit:
      return "engine";
    case TraceKind::LockWait:
    case TraceKind::LockAcquire:
    case TraceKind::LockRelease:
    case TraceKind::LockDeadlock:
    case TraceKind::LockTimeout:
      return "lock";
    case TraceKind::FuzzImport:
      return "epsilon";
    case TraceKind::QueueEnqueue:
    case TraceKind::QueueDequeue:
    case TraceKind::QueueDeliver:
    case TraceKind::QueueRedeliver:
      return "queue";
    case TraceKind::NetSend:
    case TraceKind::NetDeliver:
    case TraceKind::NetDrop:
      return "net";
    case TraceKind::SiteCrash:
    case TraceKind::SiteRecover:
      return "site";
  }
  return "?";
}

struct SpanKey {
  SiteId site;
  TxnId txn;
  bool operator==(const SpanKey&) const = default;
};
struct SpanKeyHash {
  std::size_t operator()(const SpanKey& k) const noexcept {
    return std::hash<std::uint64_t>()((std::uint64_t(k.site) << 48) ^ k.txn);
  }
};

}  // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out) {
  // Pair begin/end events into complete ("X") spans.  Events arrive sorted
  // by seq, so the first matching end closes the open span.
  using SpanMap = std::unordered_map<SpanKey, const TraceEvent*, SpanKeyHash>;
  SpanMap open_txns, open_runs, open_pieces;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  auto emit_span = [&](const TraceEvent& begin, const TraceEvent& end,
                       const std::string& name) {
    sep();
    out << "{\"name\":\"" << name << "\",\"cat\":\""
        << category_of(begin.kind) << "\",\"ph\":\"X\",\"pid\":" << begin.site
        << ",\"tid\":" << begin.tid << ",\"ts\":" << begin.ts_us
        << ",\"dur\":" << (end.ts_us - begin.ts_us) << ",\"args\":";
    put_args(out, end);
    out << "}";
  };

  for (const TraceEvent& e : events) {
    const SpanKey key{e.site, e.txn};
    switch (e.kind) {
      case TraceKind::TxnBegin:
        open_txns[key] = &e;
        continue;
      case TraceKind::TxnCommit:
      case TraceKind::TxnAbort:
        if (auto it = open_txns.find(key); it != open_txns.end()) {
          const char* outcome =
              e.kind == TraceKind::TxnCommit ? "commit" : "abort";
          emit_span(*it->second, e,
                    "txn " + std::to_string(e.txn) + " " + outcome);
          open_txns.erase(it);
          continue;
        }
        break;  // unmatched end: fall through to an instant
      case TraceKind::RunBegin:
        open_runs[key] = &e;
        continue;
      case TraceKind::RunCommit:
      case TraceKind::RunRollback:
        if (auto it = open_runs.find(key); it != open_runs.end()) {
          const char* outcome =
              e.kind == TraceKind::RunCommit ? "commit" : "rollback";
          emit_span(*it->second, e,
                    "run " + std::to_string(e.txn) + " " + outcome);
          open_runs.erase(it);
          continue;
        }
        break;
      case TraceKind::PieceStart:
        open_pieces[key] = &e;
        continue;
      case TraceKind::PieceFinish:
        if (auto it = open_pieces.find(key); it != open_pieces.end()) {
          emit_span(*it->second, e,
                    "piece " + std::to_string(e.key) + " of run " +
                        std::to_string(e.aux2));
          open_pieces.erase(it);
          continue;
        }
        break;
      default:
        break;
    }
    sep();
    out << "{";
    put_common(out, e, to_string(e.kind), category_of(e.kind));
    out << ",\"ph\":\"i\",\"s\":\"t\",\"args\":";
    put_args(out, e);
    out << "}";
  }

  // Spans still open when the trace ended (in-flight transactions): emit
  // their begin markers as instants so nothing is silently lost.
  auto flush_open = [&](const SpanMap& spans) {
    for (const auto& [key, begin] : spans) {
      sep();
      out << "{";
      put_common(out, *begin, to_string(begin->kind),
                 category_of(begin->kind));
      out << ",\"ph\":\"i\",\"s\":\"t\",\"args\":";
      put_args(out, *begin);
      out << "}";
    }
  };
  flush_open(open_txns);
  flush_open(open_runs);
  flush_open(open_pieces);

  out << "\n]}\n";
}

void write_ndjson(const std::vector<TraceEvent>& events, std::ostream& out) {
  for (const TraceEvent& e : events) {
    out << "{\"seq\":" << e.seq << ",\"ts_us\":" << e.ts_us
        << ",\"tid\":" << e.tid << ",\"site\":" << e.site << ",\"kind\":\""
        << to_string(e.kind) << "\",\"txn\":" << e.txn << ",\"key\":" << e.key
        << ",\"a\":";
    put_number(out, e.a);
    out << ",\"b\":";
    put_number(out, e.b);
    out << ",\"aux\":" << e.aux << ",\"aux2\":" << e.aux2 << "}\n";
  }
}

}  // namespace atp
