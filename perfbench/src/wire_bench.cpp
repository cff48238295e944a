// wire_oltp: clients over loopback TCP through the protocol, session and
// admission layers of an in-process AtpServer to a durable commit.  Each
// transaction is interactive (begin, two ops, commit: four round trips) and
// bypasses the engine, PieceRunner and chopping.
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "trace/tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace atp;
using namespace atp::server;

constexpr Key kAccounts = 10000;
constexpr Value kBalance = 10000;
constexpr std::size_t kClients = 2;
constexpr std::size_t kServerWorkers = 2;
constexpr std::uint64_t kEpochTxns = 4000;
constexpr std::size_t kOpsPerClient = 50000;  ///< generated, then cycled
/// "silver": finite ceilings under a finite concurrent budget, so every
/// Begin goes through admission's metering.
const char* const kClass = "silver";

/// One generated transaction: an 80/20 mix of two-account transfers and
/// two-account reads over uniform accounts.
struct WireOp {
  Key a = 0, b = 0;
  bool update = false;
  Value amount = 0;
};

std::vector<std::vector<WireOp>> make_inputs(std::uint64_t seed) {
  std::vector<std::vector<WireOp>> in(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    Rng rng(seed * 7919 + c);
    in[c].resize(kOpsPerClient);
    for (WireOp& op : in[c]) {
      op.a = Key(rng.uniform(kAccounts));
      op.b = Key(rng.uniform(kAccounts - 1));
      if (op.b >= op.a) ++op.b;
      op.update = rng.uniform(10) < 8;
      op.amount = Value(1 + rng.uniform(20));
    }
  }
  return in;
}

/// The server is this system's own member, so it stops before the database
/// it serves.
struct WireSystem : System {
  std::unique_ptr<AtpServer> server;
  ~WireSystem() override { stop_server(); }

  /// AtpServer::stop() notifies its idle workers without holding the queue
  /// mutex, so a worker that has checked the wait predicate but not yet
  /// blocked misses the wakeup and stop() never returns.  Freshly started
  /// or just-finished workers are in that window; give them time to park
  /// before the server is stopped.
  void stop_server() {
    if (!server) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    server->stop();
    server.reset();
  }
};

enum Call : std::uint8_t { kBegin, kRead, kAdd, kCommit, kCallCount };
const char* const kCallNames[kCallCount] = {"begin", "read", "add", "commit"};

struct WireSpan {
  std::uint64_t request = 0;  ///< the transaction's claim index
  std::int64_t iter0 = 0, iter1 = 0;
  Interval rtt[4];
  int calls = 0;
};

/// Per-call round trips, summed.
struct RoundTrips {
  std::array<double, kCallCount> ns{};
  std::array<std::uint64_t, kCallCount> n{};
};

struct alignas(64) WireClient {
  std::unique_ptr<Client> client;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  RoundTrips rtt;
  std::vector<WireSpan> spans;  ///< this epoch's, traced phases only
};

/// The accounted phase's span trees and lock waits.
struct Accounting {
  RoundTrips rtt;
  LayerTotals self{};  ///< client self + round trips
  std::uint64_t txns = 0;
  double iter_ns = 0;
  std::uint64_t lock_waits = 0;
  double lock_wait_ns = 0;  ///< LockWait .. grant, from the trace
};

/// Lock waits in one epoch's trace (each ET waits on one lock at a time).
void add_lock_waits(const std::vector<TraceEvent>& events, Accounting& acc) {
  std::unordered_map<TxnId, std::int64_t> open;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::LockWait) {
      open[e.txn] = e.ts_us;
    } else if (e.kind == TraceKind::LockAcquire ||
               e.kind == TraceKind::LockDeadlock ||
               e.kind == TraceKind::LockTimeout) {
      auto it = open.find(e.txn);
      if (it == open.end()) continue;
      ++acc.lock_waits;
      acc.lock_wait_ns += double(e.ts_us - it->second) * 1000.0;
      open.erase(it);
    }
  }
}

class WireBench : public Bench {
 public:
  explicit WireBench(const RunArgs& args) : inputs_(make_inputs(args.seed)) {
    callers = kClients;
  }

  std::unique_ptr<System> build(bool traced) override {
    auto sys = std::make_unique<WireSystem>();
    const std::int64_t t0 = now_ns();
    DatabaseOptions dbo;
    dbo.scheduler = SchedulerKind::DC;
    dbo.metrics = &sys->metrics;
    sys->wal = std::make_unique<LogDevice>();
    dbo.wal = sys->wal.get();
    if (traced) {
      sys->tracer = std::make_unique<Tracer>(std::size_t(1) << 18);
      dbo.tracer = sys->tracer.get();
    }
    sys->db = std::make_unique<Database>(dbo);
    for (Key k = 0; k < kAccounts; ++k) sys->db->load(k, kBalance);
    ServerOptions so;
    so.workers = kServerWorkers;
    so.metrics = &sys->metrics;
    sys->server = std::make_unique<AtpServer>(
        *sys->db, std::make_unique<TcpTransport>(0), std::move(so));
    if (!sys->server->ok()) return nullptr;
    sys->setup_s = double(now_ns() - t0) / 1e9;
    return sys;
  }

  PhaseResult run(System& base, std::size_t callers, double seconds,
                  bool account, Report& rep,
                  const std::function<void()>& probe) override {
    auto& sys = static_cast<WireSystem&>(base);
    PhaseResult res;
    std::vector<std::unique_ptr<WireClient>> cs;
    for (std::size_t i = 0; i < callers; ++i) {
      auto c = std::make_unique<WireClient>();
      c->client = std::make_unique<Client>(
          std::make_unique<TcpByteChannel>("127.0.0.1", sys.server->port()));
      if (!c->client->ok() || !c->client->hello(kClass).ok()) {
        rep.gate(false, "client failed to connect");
        return res;
      }
      cs.push_back(std::move(c));
    }
    begin_phase(sys, callers, seconds, res);

    auto body = [&](std::size_t ci, std::uint64_t idx) {
      WireClient& me = *cs[ci];
      Client& c = *me.client;
      const WireOp& op = inputs_[ci][idx % inputs_[ci].size()];
      WireSpan span;
      span.request = idx;
      span.iter0 = now_ns();
      auto timed = [&](Call call, auto&& fn) {
        const std::int64_t t0 = now_ns();
        const bool ok = fn();
        const std::int64_t t1 = now_ns();
        me.rtt.ns[call] += double(t1 - t0);
        ++me.rtt.n[call];
        span.rtt[span.calls++] = {t0, t1};
        return ok;
      };
      const std::int64_t t0 = now_ns();
      std::uint64_t txn = 0;
      bool ok = timed(kBegin, [&] {
        auto b = c.begin(op.update ? TxnKind::Update : TxnKind::Query);
        if (b.ok()) txn = b.value();
        return b.ok();
      });
      // A failed op has already aborted server-side; only an intact txn
      // commits.
      if (ok && op.update) {
        ok = timed(kAdd, [&] { return c.add(txn, op.a, -op.amount).ok(); }) &&
             timed(kAdd, [&] { return c.add(txn, op.b, +op.amount).ok(); });
      } else if (ok) {
        ok = timed(kRead, [&] { return c.read(txn, op.a).ok(); }) &&
             timed(kRead, [&] { return c.read(txn, op.b).ok(); });
      }
      ok = ok && timed(kCommit, [&] { return c.commit(txn).ok(); });
      const std::int64_t t1 = now_ns();
      if (ok) {
        ++me.committed;
        (op.update ? res.update : res.query)[ci].ns.push_back(double(t1 - t0));
      } else {
        ++me.failed;
      }
      if (account) {
        span.iter1 = now_ns();
        me.spans.push_back(span);
      }
    };
    auto on_trace = [&](const std::vector<TraceEvent>& events) {
      if (!account) return;
      add_lock_waits(events, acc_);
      for (auto& c : cs) {
        for (const WireSpan& s : c->spans) {
          SpanNode root{kClient, {s.iter0, s.iter1}, {}};
          for (int i = 0; i < s.calls; ++i) {
            root.kids.push_back({kTransport, s.rtt[i], {}});
          }
          res.spans.add(s.request, root);
          attribute(root, root.iv, acc_.self);
          ++acc_.txns;
          acc_.iter_ns += double(s.iter1 - s.iter0);
        }
        c->spans.clear();
      }
    };
    const EpochStats es = run_epochs(
        callers, seconds, kEpochTxns, false, body,
        [&] { return end_epoch(sys, res, rep, probe, on_trace); });
    res.measured_s = es.measured_s;
    res.epoch_s = es.epoch_s;
    res.attempted = es.claimed;
    for (auto& c : cs) {
      res.committed += c->committed;
      res.failed += c->failed;
      if (account) {
        for (int k = 0; k < kCallCount; ++k) {
          acc_.rtt.ns[k] += c->rtt.ns[k];
          acc_.rtt.n[k] += c->rtt.n[k];
        }
      }
      c->client->close();
    }
    sys.stop_server();  // no transaction left in flight past this point
    end_phase(sys, res, kBalance * Value(kAccounts), rep);
    return res;
  }

  void add_layer_metrics(Report& rep, const PhaseResult& p) override {
    // srv.request_latency.<class>: queued + execute time per request, whole
    // us.
    const std::string lat = std::string("srv.request_latency.") + kClass;
    const obs::Sample* la = p.before.snap.find(lat);
    const obs::Sample* lb = p.after.snap.find(lat);
    const double exec_n = (lb ? lb->summary.count : 0) - (la ? la->summary.count : 0);
    const double exec_ns =
        ((lb ? lb->summary.sum : 0) - (la ? la->summary.sum : 0)) * 1e3;

    double rtt_total = 0;
    std::uint64_t rtt_calls = 0;
    for (int k = 0; k < kCallCount; ++k) {
      rep.add(std::string("server.rtt_us.") + kCallNames[k],
              per(acc_.rtt.ns[k], double(acc_.rtt.n[k])) / 1e3, "us");
      rtt_total += acc_.rtt.ns[k];
      rtt_calls += acc_.rtt.n[k];
    }
    const double exec_per_req = per(exec_ns, exec_n);
    rep.add("server.exec_us", exec_per_req / 1e3, "us");
    rep.add("server.transport_us",
            (per(rtt_total, double(rtt_calls)) - exec_per_req) / 1e3, "us");
    rep.add("server.requests_per_txn",
            per(delta(p, "srv.requests"), double(p.attempted)), "count");
    rep.add("server.refused", refused(p), "count");

    // Layer self times per transaction.  The span trees give the client's
    // own time and the round trips; the round trips split into server
    // execution (the server's histogram) and transport, and execution into
    // lock waits (the trace) and the rest.
    const double n = double(acc_.txns);
    const double exec_txn = per(exec_ns, n);
    const double lock_txn = per(acc_.lock_wait_ns, n);
    const double transport_txn = per(double(acc_.self[kTransport]), n) - exec_txn;
    const double server_txn = exec_txn - lock_txn;
    rep.add("server.self_us", server_txn / 1e3, "us");
    rep.add("transport.self_us", transport_txn / 1e3, "us");
    rep.add("lock.self_us", lock_txn / 1e3, "us");
    rep.add("lock.wait_us", per(acc_.lock_wait_ns, double(acc_.lock_waits)) / 1e3, "us");
    rep.add("unattributed_us",
            unattributed(per(acc_.iter_ns, n) / 1e3,
                         {server_txn / 1e3, transport_txn / 1e3, lock_txn / 1e3}),
            "us");
    rep.note("accounted_txns", n, "count");
    rep.note("e2e_iteration_us", per(acc_.iter_ns, n) / 1e3, "us");
  }

  /// Interactive clients never retry: a refused or aborted transaction
  /// counts as failed.
  void note_failures(Report& rep, const PhaseResult& p) override {
    rep.note("failed_refused_frac", per(refused(p), double(p.attempted)), "ratio");
  }

 private:
  static double delta(const PhaseResult& p, const std::string& name) {
    return sample_value(p.after.snap, name) - sample_value(p.before.snap, name);
  }

  /// Admission and window rejects over the phase.
  static double refused(const PhaseResult& p) {
    return delta(p, std::string("srv.admission.rejected.") + kClass) +
           delta(p, "srv.window_rejects");
  }

  const std::vector<std::vector<WireOp>> inputs_;
  Accounting acc_;  ///< the accounted phase's
};

}  // namespace

std::unique_ptr<Bench> make_wire_bench(const RunArgs& args) {
  return std::make_unique<WireBench>(args);
}

}  // namespace perfbench
