#include "dist/dist_executor.h"

#include <atomic>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "fault/retry.h"

#include "common/ordered_lock.h"

namespace atp {

std::string DistExecutorReport::header() {
  std::ostringstream out;
  out << std::left << std::setw(20) << "scheme" << std::right  //
      << std::setw(9) << "commit"                              //
      << std::setw(9) << "abort"                               //
      << std::setw(10) << "complete"                           //
      << std::setw(11) << "tps"                                //
      << std::setw(14) << "cli p50(ms)"                        //
      << std::setw(14) << "cli p95(ms)"                        //
      << std::setw(14) << "cmp p95(ms)"                        //
      << std::setw(10) << "msgs";
  return out.str();
}

std::string DistExecutorReport::row(const char* label) const {
  std::ostringstream out;
  out << std::left << std::setw(20) << label << std::right      //
      << std::setw(9) << committed                              //
      << std::setw(9) << aborted                                //
      << std::setw(10) << completed                             //
      << std::setw(11) << std::fixed << std::setprecision(1)
      << throughput_tps                                         //
      << std::setw(14) << std::setprecision(2)
      << client_latency_ms.p50                                  //
      << std::setw(14) << client_latency_ms.p95                 //
      << std::setw(14) << complete_latency_ms.p95               //
      << std::setw(10) << net.sent;
  return out.str();
}

DistExecutorReport DistExecutor::run(const std::vector<Site*>& sites,
                                     const std::vector<DistTxnSpec>& stream,
                                     const DistExecutorOptions& options) {
  DistExecutorReport report;
  Histogram client_ms, complete_ms;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> committed{0}, aborted{0}, completed{0};
  // Chopped mode: completion notices are awaited after the client loop, so
  // the client threads measure pure client-visible latency.
  OrderedMutex<LockRank::kDistPending> pending_mu;  // rank kDistPending
  std::vector<std::pair<SiteId, std::uint64_t>> pending;  // (home, gtid)

  sites[0]->net().reset_stats();
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (std::size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: work ticket; RMW atomicity dedups
        if (i >= stream.size()) break;
        const DistTxnSpec& spec = stream[i];
        Site* home = sites[spec.pieces[0].site];
        Coordinator coord(*home, sites);

        if (options.use_chopping) {
          // Piece-1 conflicts retry like any local transaction -- but with
          // backoff, so an aborting hot-key transaction stops hammering the
          // very locks it is losing to.
          const RetryPolicy policy = RetryPolicy::chop_handler();
          for (std::uint64_t attempt = 0;; ++attempt) {
            if (attempt > 0) {
              std::this_thread::sleep_for(policy.delay(attempt, i));
            }
            auto out = coord.run_chopped(spec, std::chrono::milliseconds(0));
            if (out.ok()) {
              committed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
              client_ms.record(out.value().client_latency_us / 1000.0);
              if (out.value().completed) {
                // Single-piece transactions finish inline; there is no done
                // notice to await.
                completed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
                complete_ms.record(out.value().complete_latency_us / 1000.0);
              } else {
                std::lock_guard lock(pending_mu);
                pending.emplace_back(spec.pieces[0].site, out.value().gtid);
              }
              break;
            }
          }
        } else {
          bool done = false;
          const RetryPolicy policy = RetryPolicy::protocol_round();
          for (int attempt = 0; attempt < 16 && !done; ++attempt) {
            if (attempt > 0) {
              std::this_thread::sleep_for(
                  policy.delay(std::uint64_t(attempt), i));
            }
            auto out = coord.run_2pc(spec, options.validation_round,
                                     options.decision_timeout);
            if (out.ok()) {
              committed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
              completed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
              client_ms.record(out.value().client_latency_us / 1000.0);
              complete_ms.record(out.value().complete_latency_us / 1000.0);
              done = true;
            }
          }
          if (!done) aborted.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double client_seconds = double(wall.elapsed_us()) / 1e6;

  if (options.use_chopping) {
    // Drain completions; their latency is measured from the run's start
    // (an upper bound -- individual start times belong to the client loop).
    for (const auto& [home, gtid] : pending) {
      if (sites[home]->wait_done(gtid, options.completion_timeout)) {
        completed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: tally read after join
      }
    }
    complete_ms.record(double(wall.elapsed_us()) / 1000.0);
  }

  report.committed = committed.load();
  report.aborted = aborted.load();
  report.completed = completed.load();
  report.wall_seconds = client_seconds;
  report.throughput_tps =
      client_seconds > 0 ? double(report.committed) / client_seconds : 0;
  report.client_latency_ms = client_ms.summarize();
  report.complete_latency_ms = complete_ms.summarize();
  report.net = sites[0]->net().stats();
  return report;
}

std::vector<DistTxnSpec> to_dist_specs(
    const Workload& workload, const std::function<SiteId(Key)>& site_of) {
  std::vector<DistTxnSpec> specs;
  specs.reserve(workload.instances.size());
  for (const TxnInstance& inst : workload.instances) {
    const TxnProgram& type = workload.types[inst.type_index];
    DistTxnSpec spec;
    spec.kind = type.kind;
    // Group ops into per-site pieces in first-touch order.
    for (const Access& op : inst.ops) {
      const SiteId site = site_of(op.item);
      DistPieceSpec* piece = nullptr;
      for (auto& p : spec.pieces) {
        if (p.site == site) piece = &p;
      }
      if (piece == nullptr) {
        spec.pieces.push_back(DistPieceSpec{site, {}});
        piece = &spec.pieces.back();
      }
      piece->ops.push_back(op);
    }
    spec.limit = type.epsilon_limit;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace atp
