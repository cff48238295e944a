#include "obs/top_render.h"

// This file concatenates many `"literal" + temporary-std::string` pairs;
// GCC 12's -Wrestrict fires a false positive inside the inlined
// operator+(const char*, string&&) at -O2 (GCC PR105651).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace atp::obs {

namespace {

// --- JSON scanning helpers (for our own emitter's one-sample-per-line
// layout; see snapshot_to_json) ---

/// Value of `"key": <number>` inside `line`, or fallback.
double scan_number(const std::string& line, const std::string& key,
                   double fallback = 0) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/// Value of `"key": "<string>"` inside `line`, or empty.
std::string scan_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// `[#####.....]  42.3%` -- `frac` clamped to [0,1].
std::string bar(double frac, std::size_t cells) {
  frac = std::clamp(frac, 0.0, 1.0);
  const std::size_t fill = std::size_t(std::lround(frac * double(cells)));
  std::string out = "[";
  out.append(fill, '#');
  out.append(cells - fill, '.');
  out += "] " + fmt("%5.1f%%", frac * 100);
  return out;
}

double value_of(const MetricsSnapshot& s, const std::string& name) {
  const Sample* p = s.find(name);
  return p == nullptr ? 0 : p->value;
}

/// Delta of a counter against the previous frame (total when prev is null).
double delta_of(const MetricsSnapshot& now, const MetricsSnapshot* prev,
                const std::string& name) {
  const double d =
      value_of(now, name) - (prev == nullptr ? 0 : value_of(*prev, name));
  return std::max(0.0, d);  // registry swaps can step counters backwards
}

/// The query import-budget line: used/limit across live + retired query
/// ETs (update ETs have no budget).
std::string eps_line(const MetricsSnapshot& s, std::size_t bar_cells) {
  const auto both = [&](const char* field) {
    return value_of(s, std::string("eps.live.query.") + field) +
           value_of(s, std::string("eps.retired.query.") + field);
  };
  const double used = both("used");
  const double limit = both("limit");
  const double unlimited = both("unlimited");
  const double count = both("count");
  std::string out = "  query  import ";
  out += bar(limit > 0 ? used / limit : 0, bar_cells);
  out += "  used ";
  out += fmt("%.6g", used);
  out += " / ";
  out += fmt("%.6g", limit);
  out += "  ets ";
  out += fmt("%.0f", count);
  if (unlimited > 0) {
    out += " (";
    out += fmt("%.0f", unlimited);
    out += " unlimited)";
  }
  out += '\n';
  return out;
}

}  // namespace

bool parse_snapshot_json(const std::string& json, MetricsSnapshot* out) {
  if (json.find("\"samples\"") == std::string::npos) return false;
  MetricsSnapshot snap;
  snap.epoch = std::uint64_t(scan_number(json, "epoch", -1));
  snap.steady_us = std::int64_t(scan_number(json, "steady_us", 0));
  if (scan_number(json, "epoch", -1) < 0) return false;

  // One sample object per line (the emitter guarantees it).
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    start = end + 1;
    if (line.find("\"name\"") == std::string::npos) continue;

    Sample s;
    s.name = scan_string(line, "name");
    const std::string kind = scan_string(line, "kind");
    if (s.name.empty() || kind.empty()) return false;
    if (kind == "counter") {
      s.kind = Sample::Kind::Counter;
      s.value = scan_number(line, "value");
    } else if (kind == "gauge") {
      s.kind = Sample::Kind::Gauge;
      s.value = scan_number(line, "value");
    } else if (kind == "histogram") {
      s.kind = Sample::Kind::Histogram;
      s.summary.count = std::uint64_t(scan_number(line, "count"));
      s.summary.min = scan_number(line, "min");
      s.summary.max = scan_number(line, "max");
      s.summary.mean = scan_number(line, "mean");
      s.summary.p50 = scan_number(line, "p50");
      s.summary.p95 = scan_number(line, "p95");
      s.summary.p99 = scan_number(line, "p99");
      s.value = double(s.summary.count);
    } else {
      return false;
    }
    snap.samples.push_back(std::move(s));
  }
  *out = std::move(snap);
  return true;
}

std::string render_top(const MetricsSnapshot& now, const MetricsSnapshot* prev,
                       const TopOptions& opts) {
  const std::size_t width = std::max<std::size_t>(opts.width, 40);
  const std::size_t bar_cells = std::min<std::size_t>(30, width / 3);
  const double dt_s =
      prev == nullptr
          ? 0
          : double(now.steady_us - prev->steady_us) / 1e6;
  const bool rates = dt_s > 1e-6;
  auto rate = [&](const std::string& name) {
    const double d = delta_of(now, prev, name);
    return rates ? d / dt_s : d;
  };
  const char* unit = rates ? "/s" : " total";

  std::string out;
  out += "atp-top  epoch " + std::to_string(now.epoch);
  if (rates) out += "  interval " + fmt("%.1fs", dt_s);
  out += "\n\n";

  // --- Throughput ---
  out += "throughput\n";
  out += "  commits " + fmt("%10.6g", rate("db.commits")) + unit;
  out += "   aborts " + fmt("%.6g", rate("db.aborts")) + unit;
  out += "   live ets " + fmt("%.0f", value_of(now, "db.live_ets"));
  out += "\n\n";

  // --- Epsilon budgets ---
  out += "epsilon budgets (used/limit, live + retired)\n";
  out += eps_line(now, bar_cells);
  out += "  charges " + fmt("%.6g", rate("eps.charges_ok")) + unit;
  out += "   rejected " + fmt("%.6g", rate("eps.rejected_import")) + unit;
  out += "   fuzz imported " + fmt("%.6g", value_of(now, "eps.import_charged"));
  out += "\n\n";

  // --- Lock stripe heatmap ---
  const auto stripes = std::size_t(value_of(now, "lock.stripes"));
  if (stripes > 0) {
    static const char kShades[] = " .:-=+*#%@";  // 10 intensity levels
    std::vector<double> heat(stripes, 0);
    double peak = 0;
    std::size_t hottest = 0;
    for (std::size_t i = 0; i < stripes; ++i) {
      const std::string p = "lock.stripe." + std::to_string(i) + ".";
      heat[i] = delta_of(now, prev, p + "acquires");
      if (heat[i] > peak) {
        peak = heat[i];
        hottest = i;
      }
    }
    out += "lock stripes (acquire heat";
    out += rates ? ", this interval)\n" : ", total)\n";
    out += "  [";
    for (std::size_t i = 0; i < stripes; ++i) {
      const double frac = peak > 0 ? heat[i] / peak : 0;
      out += kShades[std::size_t(std::lround(frac * 9))];
    }
    out += "]  peak stripe " + std::to_string(hottest) + ": " +
           fmt("%.6g", peak) + " acquires\n";

    const std::string hp = "lock.stripe." + std::to_string(hottest) + ".";
    const Sample* lat = now.find(hp + "acquire_us");
    out += "  waits " + fmt("%.6g", rate("lock.stripe." +
                                         std::to_string(hottest) + ".waits")) +
           unit + "  deadlocks " + fmt("%.6g", delta_of(now, prev,
                                                        hp + "deadlocks")) +
           "  timeouts " + fmt("%.6g", delta_of(now, prev, hp + "timeouts"));
    if (lat != nullptr && lat->summary.count > 0) {
      out += "  acq p50/p95 " + fmt("%.3g", lat->summary.p50) + "/" +
             fmt("%.3g", lat->summary.p95) + "us";
    }
    out += "\n\n";
  }

  // --- Executor / queue / dist (present only when those layers report) ---
  if (now.find("exec.committed") != nullptr) {
    out += "executor\n";
    out += "  committed " + fmt("%.6g", rate("exec.committed")) + unit;
    out += "  pieces " + fmt("%.6g", rate("exec.committed_pieces")) + unit;
    out += "  resubmits " + fmt("%.6g", rate("exec.resubmissions"));
    out += "  steals " + fmt("%.6g", rate("exec.steals"));
    out += "  queue depth " + fmt("%.0f", value_of(now, "exec.queue_depth"));
    const Sample* pu = now.find("exec.piece_us");
    if (pu != nullptr && pu->summary.count > 0) {
      out += "  piece p50/p95 " + fmt("%.3g", pu->summary.p50) + "/" +
             fmt("%.3g", pu->summary.p95) + "us";
    }
    out += "\n";
  }

  // --- Server front-end (present only when an AtpServer publishes) ---
  if (now.find("srv.sessions.accepted") != nullptr) {
    out += "server front-end\n";
    out += "  sessions " + fmt("%.0f", value_of(now, "srv.sessions.active")) +
           " active  accepted " + fmt("%.6g", rate("srv.sessions.accepted")) +
           unit + "  closed " + fmt("%.6g", rate("srv.sessions.closed")) +
           unit;
    out += "  requests " + fmt("%.6g", rate("srv.requests")) + unit;
    out += "\n";
    out += "  txns " + fmt("%.6g", rate("srv.txn.committed")) + unit +
           " committed  " + fmt("%.6g", rate("srv.txn.aborted")) + unit +
           " aborted  proto errs " +
           fmt("%.6g", delta_of(now, prev, "srv.protocol_errors")) +
           "  window rejects " +
           fmt("%.6g", delta_of(now, prev, "srv.window_rejects"));
    out += "\n";
    // One admission line per class, discovered from the sample names.
    const std::string granted_prefix = "srv.admission.granted.";
    for (const Sample& s : now.samples) {
      if (s.name.rfind(granted_prefix, 0) != 0) continue;
      const std::string cls = s.name.substr(granted_prefix.size());
      out += "  admission " + cls + ": granted " +
             fmt("%.6g", rate(granted_prefix + cls)) + unit + "  rejected " +
             fmt("%.6g", rate("srv.admission.rejected." + cls)) + unit;
      out += "\n";
    }
    // Per-class request latency (queued + execute), from the worker-side
    // histograms.
    const std::string latency_prefix = "srv.request_latency.";
    for (const Sample& s : now.samples) {
      if (s.name.rfind(latency_prefix, 0) != 0) continue;
      if (s.summary.count == 0) continue;
      out += "  latency " + s.name.substr(latency_prefix.size()) +
             ": p50/p99 " + fmt("%.3g", s.summary.p50) + "/" +
             fmt("%.3g", s.summary.p99) + "us  mean " +
             fmt("%.3g", s.summary.mean) + "us  n " +
             fmt("%.0f", double(s.summary.count));
      out += "\n";
    }
    if (now.find("srv.slow_requests") != nullptr) {
      const double slow = delta_of(now, prev, "srv.slow_requests");
      if (slow > 0) {
        out += "  slow requests " + fmt("%.6g", slow) +
               (rates ? " this interval" : " total");
        out += "\n";
      }
    }
    if (now.find("net.sim.sent") != nullptr) {
      out += "  simnet sent/delivered/dropped " +
             fmt("%.6g", rate("net.sim.sent")) + "/" +
             fmt("%.6g", rate("net.sim.delivered")) + "/" +
             fmt("%.6g", rate("net.sim.dropped")) + unit;
      out += "\n";
    }
    out += "\n";
  }

  // --- Online certification (present only when an OnlineCertifier
  // publishes audit.online.*) ---
  if (now.find("audit.online.events_processed") != nullptr) {
    const double violations = value_of(now, "audit.online.violations");
    const bool degraded = value_of(now, "audit.online.degraded") > 0;
    out += "online certification";
    if (violations > 0) {
      out += "  !! " + fmt("%.0f", violations) + " VIOLATIONS";
    } else {
      out += degraded ? "  DEGRADED (events dropped)" : "  ok";
    }
    out += "\n";
    out += "  violations sr/esr " +
           fmt("%.6g", value_of(now, "audit.online.sr_violations")) + "/" +
           fmt("%.6g", value_of(now, "audit.online.esr_violations"));
    out += "  window " + fmt("%.0f", value_of(now, "audit.online.window_nodes")) +
           " nodes  live " + fmt("%.0f", value_of(now, "audit.online.live_txns"));
    out += "  retired " + fmt("%.6g", rate("audit.online.retired_nodes")) + unit;
    out += "\n";
    out += "  lag " + fmt("%.6g", value_of(now, "audit.online.window_lag_us")) +
           "us  events " + fmt("%.6g", rate("audit.online.events_processed")) +
           unit + "  edges " + fmt("%.6g", rate("audit.online.edges")) + unit +
           "  dropped " +
           fmt("%.6g", value_of(now, "audit.online.dropped_events"));
    out += "\n\n";
  }

  // --- Faults & retries (present only when an injector / retry layer
  // publishes; fault.* comes from FaultInjector::attach_metrics, retry.*
  // from the coordinator and chop-handler wirings) ---
  const bool have_faults = now.find("fault.net.dropped") != nullptr ||
                           now.find("fault.wal.fsync_failed") != nullptr;
  const bool have_retries = now.find("retry.2pc.retransmits") != nullptr ||
                            now.find("retry.chop.attempts") != nullptr;
  if (have_faults || have_retries) {
    out += "faults & retries\n";
    if (have_faults) {
      out += "  injected: drop " + fmt("%.6g", rate("fault.net.dropped")) +
             unit + "  dup " + fmt("%.6g", rate("fault.net.duplicated")) +
             unit + "  delay " + fmt("%.6g", rate("fault.net.delayed")) +
             unit + "  fsync fail " +
             fmt("%.6g", rate("fault.wal.fsync_failed")) + unit +
             "  crash/recover " +
             fmt("%.6g", delta_of(now, prev, "fault.site.crashes")) + "/" +
             fmt("%.6g", delta_of(now, prev, "fault.site.recoveries"));
      out += "\n";
    }
    if (have_retries) {
      out += "  retries: 2pc rexmit " +
             fmt("%.6g", rate("retry.2pc.retransmits")) + unit +
             "  commit rexmit " +
             fmt("%.6g", rate("retry.2pc.commit_retransmits")) + unit +
             "  chop attempts " + fmt("%.6g", rate("retry.chop.attempts")) +
             unit;
      out += "\n";
    }
  }
  return out;
}

}  // namespace atp::obs
