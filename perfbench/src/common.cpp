#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/metrics.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
/// VmHWM of /proc/self/status in KiB, or -1.
double vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  double kb = -1;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}
}  // namespace

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const double x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

void release_free_memory() { malloc_trim(0); }

void RssPeak::reset() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) whole_process_ = true;
}

void RssPeak::fold() {
  double kb = whole_process_ ? -1 : vm_hwm_kb();
  if (kb < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = double(ru.ru_maxrss);  // KiB on Linux
    whole_process_ = true;
  }
  peak_kb_ = std::max(peak_kb_, kb);
}

std::optional<double> tail_percentile(const std::vector<double>& sorted,
                                      double q, std::size_t min_beyond) {
  if (sorted.empty()) return std::nullopt;
  const double v = atp::percentile_of(sorted, q);
  const auto beyond = std::size_t(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
  if (beyond < min_beyond) return std::nullopt;
  return v;
}

const char* layer_name(Layer l) {
  switch (l) {
    case kClient: return "client";
    case kEngine: return "engine";
    case kTransport: return "transport";
    case kSched: return "sched";
    case kLock: return "lock";
    case kCommit: return "commit";
    case kLayerCount: break;
  }
  return "?";
}

void attribute(const SpanNode& node, Interval clip, LayerTotals& self_ns) {
  const Interval iv{std::max(node.iv.begin, clip.begin),
                    std::min(node.iv.end, clip.end)};
  if (iv.length() == 0) return;
  std::vector<const SpanNode*> kids;
  kids.reserve(node.kids.size());
  for (const SpanNode& k : node.kids) kids.push_back(&k);
  std::sort(kids.begin(), kids.end(), [](const SpanNode* a, const SpanNode* b) {
    return a->iv.begin < b->iv.begin;
  });
  std::int64_t covered = 0;
  std::int64_t cursor = iv.begin;  // children before it already own the time
  for (const SpanNode* k : kids) {
    const Interval kclip{std::max(cursor, iv.begin), iv.end};
    const Interval kiv{std::max(k->iv.begin, kclip.begin),
                       std::min(k->iv.end, kclip.end)};
    if (kiv.length() == 0) continue;
    attribute(*k, kiv, self_ns);
    covered += kiv.length();
    cursor = kiv.end;
  }
  self_ns[node.layer] += iv.length() - covered;
}

namespace {
void log_node(std::string& csv, std::uint64_t request, const SpanNode& n,
              const char* parent) {
  csv += std::to_string(request) + "," + layer_name(n.layer) + "," + parent +
         "," + std::to_string(n.iv.begin) + "," + std::to_string(n.iv.end) +
         "\n";
  for (const SpanNode& k : n.kids) log_node(csv, request, k, layer_name(n.layer));
}
}  // namespace

void SpanLog::add(std::uint64_t request, const SpanNode& root) {
  if (txns >= limit) return;
  ++txns;
  log_node(csv, request, root, "");
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  return std::fclose(f) == 0 && ok;
}

double unattributed(double e2e_mean, const std::vector<double>& layer_means) {
  double sum = 0;
  for (const double m : layer_means) sum += m;
  return e2e_mean - sum;
}

EpochStats run_epochs(
    std::size_t workers, double seconds, std::uint64_t epoch_txns, bool baton,
    const std::function<void(std::size_t, std::uint64_t)>& body,
    const std::function<bool()>& between) {
  std::barrier start(std::ptrdiff_t(workers + 1));
  std::barrier finish(std::ptrdiff_t(workers + 1));
  std::atomic<std::uint64_t> next{0};
  std::uint64_t epoch_end = 0;      // written by the coordinator while parked
  bool stop = false;                // likewise
  std::atomic<std::size_t> first_done{baton ? 0 : workers};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      bool first = true;
      for (;;) {
        start.arrive_and_wait();
        if (stop) return;
        if (first) {
          while (first_done.load(std::memory_order_acquire) < w) {
            std::this_thread::yield();
          }
        }
        for (;;) {
          const std::uint64_t idx = next.fetch_add(1, std::memory_order_relaxed);
          if (idx >= epoch_end) break;
          body(w, idx);
          if (first) {
            first = false;
            first_done.fetch_add(1, std::memory_order_release);
          }
        }
        if (first) {  // claimed nothing this epoch; let the next one go
          first = false;
          first_done.fetch_add(1, std::memory_order_release);
        }
        finish.arrive_and_wait();
      }
    });
  }

  EpochStats st;
  std::int64_t measured_ns = 0;
  const auto budget_ns = std::int64_t(seconds * 1e9);
  while (measured_ns < budget_ns) {
    epoch_end = st.claimed + epoch_txns;
    start.arrive_and_wait();
    const std::int64_t t0 = now_ns();
    finish.arrive_and_wait();
    const std::int64_t dt = now_ns() - t0;
    measured_ns += dt;
    st.epoch_s.push_back(double(dt) / 1e9);
    st.claimed = epoch_end;
    next.store(epoch_end, std::memory_order_relaxed);  // drop overshoot claims
    if (!between()) break;
  }
  stop = true;
  start.arrive_and_wait();
  for (auto& t : threads) t.join();
  st.measured_s = double(measured_ns) / 1e9;
  return st;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return atp::percentile_of(v, 0.5);
}

void report_e2e(Report& rep, const std::vector<double>& epoch_s,
                const std::vector<const LatencyCell*>& update,
                const std::vector<const LatencyCell*>& query) {
  const std::size_t epochs = epoch_s.size();
  // Fewer blocks when the rarer class is thin, so each block's p99 keeps
  // about twenty samples beyond it however slow the machine is.
  auto total = [](const std::vector<const LatencyCell*>& cs) {
    std::size_t n = 0;
    for (const LatencyCell* c : cs) n += c->ns.size();
    return n;
  };
  const std::size_t thinnest = std::min(total(update), total(query));
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min({kBlocks, epochs, thinnest / kBlockSamples}));
  std::vector<double> tps;
  std::array<std::vector<double>, 4> pct;  // update p50, p99, query p50, p99
  std::array<std::size_t, 2> samples{};
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t e0 = b * epochs / blocks;
    const std::size_t e1 = (b + 1) * epochs / blocks;
    double secs = 0;
    for (std::size_t e = e0; e < e1; ++e) secs += epoch_s[e];
    std::size_t committed = 0;
    for (std::size_t c = 0; c < 2; ++c) {
      std::vector<double> v;
      for (const LatencyCell* cell : c == 0 ? update : query) {
        const std::size_t lo = e0 == 0 ? 0 : cell->marks[e0 - 1];
        v.insert(v.end(), cell->ns.begin() + std::ptrdiff_t(lo),
                 cell->ns.begin() + std::ptrdiff_t(cell->marks[e1 - 1]));
      }
      std::sort(v.begin(), v.end());
      const std::optional<double> p50 = tail_percentile(v, 0.50);
      const std::optional<double> p99 = tail_percentile(v, 0.99);
      rep.gate(p50.has_value() && p99.has_value(),
               std::string(c == 0 ? "update" : "query") +
                   " latency: a block's p99 has fewer than 10 samples "
                   "beyond it (" + std::to_string(v.size()) + " samples)");
      pct[2 * c].push_back(p50.value_or(0));
      pct[2 * c + 1].push_back(p99.value_or(0));
      committed += v.size();
      samples[c] += v.size();
    }
    tps.push_back(secs > 0 ? double(committed) / secs : 0);
  }
  auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  rep.add("txn_per_s", *std::max_element(tps.begin(), tps.end()), "1/s");
  rep.add("update_p50_us", best(pct[0]) / 1e3, "us");
  rep.add("update_p99_us", best(pct[1]) / 1e3, "us");
  rep.add("query_p50_us", best(pct[2]) / 1e3, "us");
  rep.add("query_p99_us", best(pct[3]) / 1e3, "us");
  rep.note("update_samples", double(samples[0]), "count");
  rep.note("query_samples", double(samples[1]), "count");
  rep.note("blocks", double(blocks), "count");
}

std::function<void()> throttled(std::function<void()> fn, double interval_s) {
  return [fn = std::move(fn), interval_ns = std::int64_t(interval_s * 1e9),
          next = std::int64_t(0)]() mutable {
    const std::int64_t now = now_ns();
    if (now < next) return;
    fn();
    next = now + interval_ns;
  };
}

}  // namespace perfbench
