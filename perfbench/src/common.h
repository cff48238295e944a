// Shared machinery of the benchmark binary: the closed-loop epoch runner,
// the timing arithmetic (tail percentiles, span self time, the layer-sum
// remainder) and the result record every workload fills in.
//
// Clock: every span is steady_clock nanoseconds.  The engine's own tracer
// stamps whole microseconds (TraceEvent::ts_us), so spans derived from trace
// events are coarse and only their per-transaction means are reported.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t now_ns();

/// Peak resident memory of the measured epochs, in MiB.  reset() restarts
/// the kernel's high-water mark (VmHWM) at what is resident now; fold()
/// takes the mark into the peak.  Folding before and resetting after the
/// untimed work between epochs keeps that work's transient peaks out.
/// Where /proc/self/clear_refs cannot be written, the peak is the whole
/// process's (getrusage).
class RssPeak {
 public:
  void reset();
  void fold();
  [[nodiscard]] double mb() const { return peak_kb_ / 1024.0; }
  [[nodiscard]] bool whole_process() const { return whole_process_; }

 private:
  double peak_kb_ = 0;
  bool whole_process_ = false;
};

/// The machine's CPU time so far, from /proc/stat (zeros when unreadable).
/// `steal` is time the hypervisor gave to other guests: on a shared host
/// it marks runs slowed from outside the program.
struct CpuTimes {
  double steal = 0;
  double total = 0;
};
[[nodiscard]] CpuTimes cpu_times();

/// Hands the allocator's free memory back to the kernel, so memory freed by
/// untimed work stops counting as resident.  Not done every epoch: the
/// callers' own allocations would then fault their pages back in.
void release_free_memory();

// ---------------------------------------------------------------------------
// Percentiles

/// Interpolated percentile `q` of `sorted` (the common/metrics.h definition),
/// or nullopt unless at least `min_beyond` samples lie strictly above it --
/// a tail percentile needs that many samples past it to mean anything.
[[nodiscard]] std::optional<double> tail_percentile(
    const std::vector<double>& sorted, double q, std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Spans and self time

struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t length() const {
    return end > begin ? end - begin : 0;
  }
};

/// Layers a transaction's time is attributed to.  Each span belongs to one.
enum Layer : std::uint8_t {
  kClient,     ///< the benchmark's own closed loop around the calls
               ///< (reported as unattributed_us)
  kEngine,     ///< PieceRunner::run outside any piece ET (chopping, limits,
               ///< resubmit backoff)
  kTransport,  ///< wire round trip (protocol, socket, session dispatch and
               ///< server-side execution, which wire_oltp splits off from
               ///< the server's own request histogram)
  kSched,      ///< one piece ET (TxnBegin .. PieceFinish: begin, ops,
               ///< lock release, registry retire) outside the two below
  kLock,       ///< LockWait .. grant
  kCommit,     ///< last op .. TxnCommit: store publish + WAL group commit
  kLayerCount,
};

[[nodiscard]] const char* layer_name(Layer l);

struct SpanNode {
  Layer layer = kClient;
  Interval iv;
  std::vector<SpanNode> kids;
};

using LayerTotals = std::array<std::int64_t, kLayerCount>;

/// Attribute `node`'s time, clipped to `clip`, to layers: a span's self time
/// is its length minus the part its children cover.  Children are clipped to
/// the parent, and where children overlap each other the earlier-starting one
/// keeps the overlap, so the self times of a tree sum to exactly the root's
/// length.
void attribute(const SpanNode& node, Interval clip, LayerTotals& self_ns);

/// The first `limit` transactions' span trees of a traced run, kept in
/// memory as CSV rows (request, layer, parent layer, begin ns, end ns) and
/// written out when the run ends.  `request` is one id per original
/// transaction.
struct SpanLog {
  std::size_t limit = 5000;
  std::size_t txns = 0;
  std::string csv = "request,layer,parent,begin_ns,end_ns\n";

  void add(std::uint64_t request, const SpanNode& root);
  [[nodiscard]] bool write(const std::string& path) const;
};

/// The part of the end-to-end mean no layer covers: `e2e_mean` minus the sum
/// of the layers' self-time means.
[[nodiscard]] double unattributed(double e2e_mean,
                                  const std::vector<double>& layer_means);

// ---------------------------------------------------------------------------
// Closed-loop epochs

struct EpochStats {
  double measured_s = 0;      ///< summed epoch wall time, parks excluded
  std::uint64_t claimed = 0;  ///< transactions handed out
  std::vector<double> epoch_s;  ///< wall time of each epoch
};

/// Runs `workers` closed-loop threads.  Each claims the next transaction
/// index and calls `body(worker, index)` until the epoch's `epoch_txns`
/// claims are gone; then every worker parks and `between()` runs on the
/// calling thread (checkpoints, trace drains, certification).  Epochs repeat
/// until `seconds` of epoch wall time were measured or `between()` returns
/// false.  With `baton` set, worker w issues its first transaction only
/// after worker w-1 finished its first, so threads meet a fresh Tracer in
/// worker order (trace ring index == worker index).
EpochStats run_epochs(std::size_t workers, double seconds,
                      std::uint64_t epoch_txns, bool baton,
                      const std::function<void(std::size_t, std::uint64_t)>& body,
                      const std::function<bool()>& between);

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  ///< empty = every check passed
  std::vector<Metric> metrics;
  std::vector<Metric> detail;  ///< sample counts, spreads, extra context

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit = "") {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Median of `v` (copies; 0 when empty).
[[nodiscard]] double median_of(std::vector<double> v);

/// One caller's latency samples of one transaction class (committed
/// transactions only), in nanoseconds, with the sample count at the end of
/// every epoch.  Cache-line aligned: each caller appends to its own.
struct alignas(64) LatencyCell {
  std::vector<double> ns;
  std::vector<std::size_t> marks;
  void mark() { marks.push_back(ns.size()); }
};

[[nodiscard]] inline std::vector<const LatencyCell*> cells(
    const std::vector<LatencyCell>& v) {
  std::vector<const LatencyCell*> out;
  for (const LatencyCell& c : v) out.push_back(&c);
  return out;
}

/// Samples per caller per measured second reserved up front, so the cells
/// never copy themselves mid-run; untouched reserved pages stay off the
/// resident set.
inline constexpr double kMaxCallerRate = 300000;

/// Consecutive blocks of epochs the end-to-end metrics are taken over, and
/// the samples of each class a block needs at least (fewer blocks if not).
inline constexpr std::size_t kBlocks = 5;
inline constexpr std::size_t kBlockSamples = 2000;

/// Adds txn_per_s and update/query p50 and p99 to `rep`, each the best of
/// its values over up to kBlocks consecutive blocks of the run's epochs
/// (highest throughput, lowest latency).  On a shared host a contended spell
/// of several seconds slows the blocks it covers; a change to the program
/// moves every block, the best one too.  Every cell must have one mark per
/// epoch.  A block whose p99 has fewer than ten samples beyond it fails the
/// run.
void report_e2e(Report& rep, const std::vector<double>& epoch_s,
                const std::vector<const LatencyCell*>& update,
                const std::vector<const LatencyCell*>& query);

/// Returns a callable that runs `fn` when called, at most once per
/// `interval_s` of wall time (the first call always runs it).
std::function<void()> throttled(std::function<void()> fn, double interval_s);

int self_test();

}  // namespace perfbench
