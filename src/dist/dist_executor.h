// Multi-client distributed executor: drives a stream of distributed
// transactions through a site fleet under either commit scheme (2PC with
// global validation, or the paper's chopped pieces over recoverable queues)
// and reports throughput and latency distributions.
//
// This is the throughput-side companion of the Section 4 latency bench: the
// saved message rounds translate into client capacity, because a client
// thread is occupied for the whole protocol under 2PC but only for one
// local commit under chopping.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "dist/coordinator.h"
#include "dist/site.h"
#include "workload/workload.h"

namespace atp {

struct DistExecutorOptions {
  std::size_t clients = 4;      ///< concurrent coordinator threads
  bool use_chopping = true;     ///< chopped+queues vs 2PC
  bool validation_round = true; ///< 2PC only: add the global-validation RTT
  std::chrono::milliseconds completion_timeout{20000};
  std::chrono::milliseconds decision_timeout{2000};
};

struct DistExecutorReport {
  std::uint64_t committed = 0;   ///< client-visible commits
  std::uint64_t aborted = 0;     ///< gave up after retries (2PC only)
  std::uint64_t completed = 0;   ///< all pieces confirmed applied
  double wall_seconds = 0;
  double throughput_tps = 0;     ///< client-visible commits per second
  StatSummary client_latency_ms;
  StatSummary complete_latency_ms;
  NetStats net;

  [[nodiscard]] static std::string header();
  [[nodiscard]] std::string row(const char* label) const;
};

class DistExecutor {
 public:
  /// Run `stream` against `sites` (sites[i] has id i, all started).  Each
  /// spec's pieces[0].site is the client's home.  Blocks until every
  /// transaction's completion notice arrives (or times out).
  [[nodiscard]] static DistExecutorReport run(
      const std::vector<Site*>& sites, const std::vector<DistTxnSpec>& stream,
      const DistExecutorOptions& options);
};

/// Map a local Workload onto a site fleet: each instance's ops are grouped
/// into per-site pieces by `site_of(key)`, in first-touch order, with the
/// transaction's eps as Limit_t under the static policy (limits/ splits it
/// evenly across the pieces: the paper's $10,000/2 pre-division).
[[nodiscard]] std::vector<DistTxnSpec> to_dist_specs(
    const Workload& workload, const std::function<SiteId(Key)>& site_of);

}  // namespace atp
