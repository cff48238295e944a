// atpd: the ATP network server.
//
// Serves the binary wire protocol (src/server/protocol.h) over loopback TCP,
// mapping client classes to epsilon-specs through the admission controller.
// Pair it with --metrics-port and atp-top to watch sessions, admission
// outcomes, and the engine's epsilon budgets live.
//
//   atpd --port 7411                          # DC scheduler, stock classes
//   atpd --port 0 --scheduler cc              # kernel-assigned port
//   atpd --class vip:50:50:200:64             # add/override a class
//   atpd --metrics-port 9464 --keys 1000      # observable, preloaded
//   atpd --certify --metrics-port 9464        # live SR/ESR certification
//   atpd --slow-ms 50                         # log requests over 50ms
//
// Classes are name:import:export[:budget[:window]] ("inf" allowed); the
// defaults are gold (eps 0), silver (metered), bronze (wide open).  Runs
// until SIGINT/SIGTERM.  With --certify the exit code is 3 when the online
// certifier saw a violation.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/online_certifier.h"
#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "server/admission.h"
#include "server/server.h"
#include "server/transport.h"
#include "trace/tracer.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Args {
  std::uint16_t port = 7411;
  std::uint16_t metrics_port = 0;
  std::size_t workers = 4;
  std::size_t max_sessions = 1024;
  atp::SchedulerKind scheduler = atp::SchedulerKind::DC;
  std::vector<atp::server::ClassPolicy> classes;
  atp::Key keys = 0;  ///< preload keys [0, keys) with value 0
  bool certify = false;        ///< run the online SR/ESR certifier
  std::size_t slow_ms = 0;     ///< slow-request log threshold (0 = off)
};

void usage() {
  std::cerr << "usage: atpd [--port N] [--scheduler cc|dc] [--workers N]\n"
               "            [--class name:import:export[:budget[:window]]]...\n"
               "            [--metrics-port N] [--keys N] [--max-sessions N]\n"
               "            [--certify] [--slow-ms N]\n";
}

/// A TCP port: decimal digits only, 0..65535 (0 = kernel-assigned for
/// --port, off for --metrics-port).
bool parse_port(const char* v, std::uint16_t* out) {
  const char* end = v + std::strlen(v);
  const auto [p, ec] = std::from_chars(v, end, *out);
  return v != end && ec == std::errc() && p == end;
}

bool parse_args(int argc, char** argv, Args* a) {
  auto next = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--port" && (v = next(i))) {
      if (!parse_port(v, &a->port)) {
        std::cerr << "atpd: bad --port '" << v << "'\n";
        return false;
      }
    } else if (arg == "--metrics-port" && (v = next(i))) {
      if (!parse_port(v, &a->metrics_port)) {
        std::cerr << "atpd: bad --metrics-port '" << v << "'\n";
        return false;
      }
    } else if (arg == "--workers" && (v = next(i))) {
      a->workers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--max-sessions" && (v = next(i))) {
      a->max_sessions = std::strtoul(v, nullptr, 10);
    } else if (arg == "--keys" && (v = next(i))) {
      a->keys = atp::Key(std::strtoull(v, nullptr, 10));
    } else if (arg == "--certify") {
      a->certify = true;
    } else if (arg == "--slow-ms" && (v = next(i))) {
      a->slow_ms = std::strtoul(v, nullptr, 10);
    } else if (arg == "--scheduler" && (v = next(i))) {
      const std::string s = v;
      if (s == "cc") {
        a->scheduler = atp::SchedulerKind::CC;
      } else if (s == "dc") {
        a->scheduler = atp::SchedulerKind::DC;
      } else {
        std::cerr << "atpd: bad --scheduler '" << s << "'\n";
        return false;
      }
    } else if (arg == "--class" && (v = next(i))) {
      atp::server::ClassPolicy p;
      if (!atp::server::parse_class_policy(v, &p)) {
        std::cerr << "atpd: bad --class spec '" << v << "'\n";
        return false;
      }
      a->classes.push_back(std::move(p));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }

  // User classes override same-named defaults; unnamed defaults stay.
  std::vector<atp::server::ClassPolicy> classes =
      atp::server::default_classes();
  for (auto& user : args.classes) {
    bool replaced = false;
    for (auto& d : classes) {
      if (d.name == user.name) {
        d = user;
        replaced = true;
        break;
      }
    }
    if (!replaced) classes.push_back(std::move(user));
  }

  atp::DatabaseOptions dbo;
  dbo.scheduler = args.scheduler;
  dbo.metrics_port = args.metrics_port;
  atp::obs::MetricsRegistry metrics;
  dbo.metrics = &metrics;
  std::unique_ptr<atp::Tracer> tracer;
  if (args.certify) {
    tracer = std::make_unique<atp::Tracer>(std::size_t(1) << 18);
    tracer->attach_metrics(&metrics);
    dbo.tracer = tracer.get();
  }
  atp::Database db(dbo);
  for (atp::Key k = 0; k < args.keys; ++k) db.load(k, 0);

  std::unique_ptr<atp::OnlineCertifier> certifier;
  if (args.certify) {
    atp::OnlineCertifierOptions co;
    // ET-level SR cycles are the paid-for divergence under DC; only a
    // CC schedule promises conflict-serializability.
    co.check_sr = args.scheduler == atp::SchedulerKind::CC;
    co.metrics = &metrics;
    certifier = std::make_unique<atp::OnlineCertifier>(*tracer, co);
    certifier->start();
  }

  auto transport = std::make_unique<atp::server::TcpTransport>(args.port);
  if (!transport->ok()) {
    std::cerr << "atpd: cannot listen on 127.0.0.1:" << args.port << "\n";
    return 1;
  }

  atp::server::ServerOptions so;
  so.workers = args.workers;
  so.classes = std::move(classes);
  so.metrics = &metrics;
  so.max_sessions = args.max_sessions;
  so.slow_request_threshold = std::chrono::milliseconds(args.slow_ms);
  atp::server::AtpServer server(db, std::move(transport), std::move(so));

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cout << "atpd: listening on 127.0.0.1:" << server.port() << " ("
            << atp::to_string(args.scheduler) << " scheduler, "
            << args.workers << " workers)\n";
  for (const auto& c : server.admission().classes()) {
    std::cout << "atpd: class " << c.name << " import<=" << c.import_ceiling
              << " export<=" << c.export_ceiling << " budget="
              << c.concurrent_budget << " window=" << c.window << "\n";
  }
  if (args.metrics_port != 0) {
    std::cout << "atpd: metrics on 127.0.0.1:" << args.metrics_port
              << " (/metrics, /snapshot.json)\n";
  }
  if (args.certify) {
    std::cout << "atpd: online certifier on ("
              << (args.scheduler == atp::SchedulerKind::CC ? "SR+ESR" : "ESR")
              << ", audit.online.* in /snapshot.json)\n";
  }
  if (args.slow_ms != 0) {
    std::cout << "atpd: logging requests slower than " << args.slow_ms
              << "ms\n";
  }
  std::cout.flush();

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "atpd: shutting down (" << server.active_sessions()
            << " sessions)\n";
  server.stop();
  if (certifier) {
    certifier->stop();
    const atp::OnlineCertifierStats s = certifier->stats();
    std::cout << "atpd: online certifier: " << s.violations()
              << " violations, " << s.retired_nodes << " retired, peak window "
              << s.window_nodes_peak << " nodes, max lag " << s.max_lag_us
              << "us" << (s.degraded ? " (DEGRADED: events dropped)" : "")
              << "\n";
    for (const atp::OnlineViolation& v : certifier->violations()) {
      std::cout << "atpd: " << v.witness << "\n";
    }
    if (s.violations() > 0) return 3;
  }
  return 0;
}
