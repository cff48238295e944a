#include "server/session.h"

namespace atp::server {

namespace {

/// Requests a connection may queue before it has even said Hello.
constexpr std::size_t kPreHelloWindow = 8;

}  // namespace

WireMessage Session::error_reply(const WireMessage& req, const Status& s) {
  WireMessage r;
  r.kind = MsgKind::kError;
  r.seq = req.seq;
  r.txn = req.txn;
  r.op = std::uint8_t(s.code());
  r.text = s.message();
  return r;
}

WireMessage Session::ok_reply(const WireMessage& req) {
  WireMessage r;
  r.kind = MsgKind::kOk;
  r.seq = req.seq;
  r.txn = req.txn;
  return r;
}

Session::FeedResult Session::feed(std::string_view bytes) {
  FeedResult result;
  reader_.feed(bytes);
  for (;;) {
    std::optional<WireMessage> msg = reader_.next();
    if (!msg.has_value()) break;
    ServerCounters::bump(counters_.requests);
    std::lock_guard lock(mu_);
    if (state_ == State::Closed) continue;
    const std::size_t window =
        cls_ != nullptr ? cls_->window : kPreHelloWindow;
    if (pending_.size() + (executing_ ? 1 : 0) >= window) {
      // Backpressure: the class's in-flight window is full.  Answer now
      // (from the feeding thread) rather than queueing unboundedly.
      ServerCounters::bump(counters_.window_rejects);
      encode_frame(error_reply(*msg, Status::Unavailable(
                                         "in-flight window full")),
                   &result.immediate_replies);
      continue;
    }
    pending_.push_back(
        Pending{std::move(*msg), std::chrono::steady_clock::now()});
  }
  if (reader_.bad()) {
    ServerCounters::bump(counters_.protocol_errors);
    result.fatal = true;
  }
  return result;
}

std::optional<Session::NextRequest> Session::take_next() {
  std::lock_guard lock(mu_);
  if (state_ == State::Closed || executing_ || pending_.empty()) {
    return std::nullopt;
  }
  Pending p = std::move(pending_.front());
  pending_.pop_front();
  executing_ = true;
  NextRequest next{std::move(p.msg),
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - p.enqueued)
                       .count()};
  return next;
}

bool Session::finish_one() {
  bool cleanup = false;
  bool more = false;
  {
    std::lock_guard lock(mu_);
    executing_ = false;
    if (state_ == State::Closed) {
      if (!cleaned_) {
        cleaned_ = true;
        cleanup = true;
      }
    } else {
      more = !pending_.empty();
    }
  }
  if (cleanup) teardown();
  return more;
}

void Session::close() {
  {
    std::lock_guard lock(mu_);
    state_ = State::Closed;
    pending_.clear();
    // A thread is mid-execute: it observes Closed in finish_one() and runs
    // the teardown itself -- Txn handles are never touched concurrently.
    if (executing_ || cleaned_) return;
    cleaned_ = true;
  }
  teardown();
}

void Session::teardown() {
  for (auto& [handle, lt] : txns_) kill_txn(lt);
  txns_.clear();
}

void Session::kill_txn(LiveTxn& lt) {
  lt.txn.abort();
  ServerCounters::bump(counters_.aborted);
  if (cls_ != nullptr) admission_.release(*cls_, lt.grant);
}

std::string Session::execute(const WireMessage& req, ExecInfo* info) {
  const WireMessage reply = handle(req);
  if (info != nullptr) {
    info->reply_kind = reply.kind;
    info->error_code = reply.kind == MsgKind::kError ? reply.op : 0;
  }
  return encode_frame(reply);
}

WireMessage Session::handle(const WireMessage& req) {
  switch (req.kind) {
    case MsgKind::kHello:
      return handle_hello(req);
    case MsgKind::kBegin:
      return handle_begin(req);
    case MsgKind::kOp:
      return handle_op(req);
    case MsgKind::kCommit:
      return handle_end(req, /*commit=*/true);
    case MsgKind::kAbort:
      return handle_end(req, /*commit=*/false);
    case MsgKind::kPing:
      return ok_reply(req);
    default:
      // A reply kind sent as a request is a confused or hostile client.
      ServerCounters::bump(counters_.protocol_errors);
      return error_reply(req,
                         Status::InvalidArgument("not a request kind"));
  }
}

WireMessage Session::handle_hello(const WireMessage& req) {
  const ClassPolicy* cls = admission_.find(req.text);
  if (cls == nullptr) {
    return error_reply(
        req, Status::NotFound("unknown client class '" + req.text + "'"));
  }
  {
    std::lock_guard lock(mu_);
    if (state_ != State::AwaitHello) {
      return error_reply(req,
                         Status::FailedPrecondition("already said hello"));
    }
    cls_ = cls;
    state_ = State::Ready;
  }
  WireMessage r;
  r.kind = MsgKind::kHelloOk;
  r.seq = req.seq;
  r.text = cls->name;
  r.value = double(cls->import_ceiling);
  r.key = cls->window;
  return r;
}

WireMessage Session::handle_begin(const WireMessage& req) {
  const ClassPolicy* cls;
  {
    std::lock_guard lock(mu_);
    if (state_ != State::Ready) {
      return error_reply(req, Status::FailedPrecondition("hello first"));
    }
    cls = cls_;
  }
  if (txns_.count(req.txn) != 0) {
    return error_reply(
        req, Status::FailedPrecondition("transaction handle in use"));
  }
  const TxnKind kind =
      req.op == std::uint8_t(TxnKind::Query) ? TxnKind::Query : TxnKind::Update;
  const AdmissionController::Grant grant =
      admission_.admit(*cls, kind, req.value);
  if (!grant.admitted) {
    auto it = counters_.admission_rejected.find(cls->name);
    if (it != counters_.admission_rejected.end()) {
      ServerCounters::bump(it->second);
    }
    return error_reply(req, grant.status);
  }
  auto it = counters_.admission_granted.find(cls->name);
  if (it != counters_.admission_granted.end()) ServerCounters::bump(it->second);
  LiveTxn lt{db_.begin(kind, grant.spec), grant.spec};
  txns_.emplace(req.txn, std::move(lt));
  return ok_reply(req);
}

WireMessage Session::handle_op(const WireMessage& req) {
  auto it = txns_.find(req.txn);
  if (it == txns_.end()) {
    return error_reply(req, Status::NotFound("no such transaction"));
  }
  LiveTxn& lt = it->second;
  Status s;
  WireMessage reply;
  switch (OpCode(req.op)) {
    case OpCode::kRead: {
      const Result<Value> r = lt.txn.read(req.key);
      if (r.ok()) {
        reply = ok_reply(req);
        reply.kind = MsgKind::kValue;
        reply.value = double(r.value());
        return reply;
      }
      s = r.status();
      break;
    }
    case OpCode::kWrite:
      s = lt.txn.write(req.key, Value(req.value));
      break;
    case OpCode::kAdd:
      s = lt.txn.add(req.key, Value(req.value));
      break;
    default:
      ServerCounters::bump(counters_.protocol_errors);
      return error_reply(req, Status::InvalidArgument("unknown op code"));
  }
  if (s.ok()) return ok_reply(req);
  // Abort-class failures (deadlock victim, eps exhausted, lock timeout)
  // end the transaction server-side: the engine contract says the caller
  // must abort, and the client learns the outcome from the error code.
  kill_txn(lt);
  txns_.erase(it);
  return error_reply(req, s);
}

WireMessage Session::handle_end(const WireMessage& req, bool commit) {
  auto it = txns_.find(req.txn);
  if (it == txns_.end()) {
    return error_reply(req, Status::NotFound("no such transaction"));
  }
  LiveTxn& lt = it->second;
  if (!commit) {
    kill_txn(lt);
    txns_.erase(it);
    return ok_reply(req);
  }
  const Status s = lt.txn.commit();
  if (s.ok()) {
    ServerCounters::bump(counters_.committed);
    if (cls_ != nullptr) admission_.release(*cls_, lt.grant);
    WireMessage r = ok_reply(req);
    r.value = double(lt.txn.fuzziness());  // the committed piece's Z
    txns_.erase(it);
    return r;
  }
  kill_txn(lt);
  txns_.erase(it);
  return error_reply(req, s);
}

}  // namespace atp::server
