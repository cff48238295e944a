// The benchmark's workloads and the phase runner they share.  Each workload
// builds its inputs from the seed before anything is timed; run_workload
// then sets up its system, runs closed-loop callers for the requested
// seconds, checks the program's outputs (the correctness gates) and fills a
// Report: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "trace/tracer.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< traced runs: where the span log goes
};

/// Set-ups timed per untraced run, spread over its measured seconds;
/// setup_s is their median.  One set-up takes 0.2-8 ms and its time drifts
/// with the machine, so a single timing, or a burst of them, is mostly noise.
inline constexpr int kSetupReps = 15;

/// The system under test: everything setup_s times.  A derived system's own
/// members die first, then these in reverse order, so the database goes
/// before the certifier, tracer, log and registry it publishes into.
struct System {
  virtual ~System() = default;
  atp::obs::MetricsRegistry metrics;
  std::unique_ptr<atp::LogDevice> wal;           ///< null without a WAL
  std::unique_ptr<atp::Tracer> tracer;           ///< null untraced
  std::unique_ptr<atp::OnlineCertifier> online;  ///< null uncertified
  std::unique_ptr<atp::Database> db;
  double setup_s = 0;
};

/// What one phase of closed-loop callers did, and the layer counters around
/// it.
struct PhaseResult {
  double measured_s = 0;
  std::uint64_t attempted = 0, committed = 0;
  std::uint64_t failed = 0;   ///< gave up or refused
  std::uint64_t retries = 0;  ///< piece resubmissions
  std::vector<double> epoch_s;
  std::vector<LatencyCell> update, query;  ///< one cell per caller
  Counters before, after;
  CheckpointCost ckpt;
  std::uint64_t events = 0, dropped = 0;  ///< trace events of the phase
  /// Work the online certifier did in the untimed parks between epochs.
  double park_pump_s = 0;
  std::uint64_t park_drained = 0;  ///< events its parked drains processed
  std::uint64_t online_esr_seen = 0;
  SpanLog spans;
  RssPeak rss;

  [[nodiscard]] double tps() const {
    return measured_s > 0 ? double(committed) / measured_s : 0;
  }
};

/// One workload, as run_workload drives it.
class Bench {
 public:
  virtual ~Bench() = default;

  /// Builds and loads a fresh system, timing it into setup_s; nullptr when
  /// set-up failed.
  virtual std::unique_ptr<System> build(bool traced) = 0;

  /// Runs `callers` closed-loop callers on `sys` for `seconds` and applies
  /// the correctness gates.  With `account`, builds each transaction's span
  /// tree for the per-layer metrics.  `probe` runs at every epoch boundary.
  virtual PhaseResult run(System& sys, std::size_t callers, double seconds,
                          bool account, Report& rep,
                          const std::function<void()>& probe) = 0;

  /// The workload's own per-layer metrics of the accounted phase `p`.
  virtual void add_layer_metrics(Report& rep, const PhaseResult& p) = 0;

  /// Failure fractions only this workload has, as detail.
  virtual void note_failures(Report& /*rep*/, const PhaseResult& /*p*/) {}

  std::size_t callers = 1;
  /// The untraced run keeps a tracer and certifier too (engine_hot_certify).
  bool always_traced = false;
  /// The traced run adds a one-caller phase for engine.scale_4v1.
  bool one_caller_phase = false;
};

std::unique_ptr<Bench> make_engine_bench(const RunArgs& args);
std::unique_ptr<Bench> make_wire_bench(const RunArgs& args);

/// The untraced run (end-to-end metrics) or the traced run (an untraced
/// baseline phase, then the accounted traced phase the per-layer metrics
/// come from) of `bench`.
Report run_workload(const RunArgs& args, Bench& bench);

/// Opens a phase on `sys` for `callers` callers: latency cells, the layer
/// counters before it, and a fresh memory high-water mark.
void begin_phase(System& sys, std::size_t callers, double seconds,
                 PhaseResult& res);

/// The epoch-boundary work every workload shares, run while the callers are
/// parked: close each latency cell's epoch, run `probe`, checkpoint the WAL,
/// drain the tracer (the online certifier first, then the offline oracle on
/// the epoch's complete trace) and hand the trace to `on_trace` before the
/// rings are cleared.  Memory the boundary allocates is kept out of the
/// phase's peak.  Returns false once a gate has failed, which ends the phase.
bool end_epoch(
    System& sys, PhaseResult& res, Report& rep,
    const std::function<void()>& probe,
    const std::function<void(const std::vector<atp::TraceEvent>&)>& on_trace);

/// Closes a phase with no transaction in flight: reads the layer counters
/// after it, stops the online certifier and applies the gates every
/// workload shares -- money conserved, certifier clean, WAL recovery.
void end_phase(System& sys, PhaseResult& res, atp::Value total_money,
               Report& rep);

}  // namespace perfbench
