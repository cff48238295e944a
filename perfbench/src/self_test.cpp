// Self-tests of the benchmark's own arithmetic: run before every
// measurement (atp_perfbench --self-test), so a broken percentile or
// attribution rule can never produce numbers.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common.h"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_tail_percentile() {
  // 1..1000: p99 interpolates to 990.01, leaving 991..1000 beyond it.
  const auto p99 = tail_percentile(one_to(1000), 0.99);
  check(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9,
        "p99 of 1..1000 is 990.01");
  // 1..901: p99 = 892 exactly, only 893..901 (nine samples) beyond.
  check(!tail_percentile(one_to(901), 0.99).has_value(),
        "p99 of 901 samples has nine beyond it and is refused");
  check(tail_percentile(one_to(902), 0.99).has_value(),
        "p99 of 902 samples has ten beyond it");
  const auto p50 = tail_percentile(one_to(20), 0.50);
  check(p50.has_value() && std::fabs(*p50 - 10.5) < 1e-9,
        "p50 of 1..20 is 10.5");
  // Ties at the top: nothing lies strictly beyond the percentile.
  check(!tail_percentile(std::vector<double>(5000, 7.0), 0.99).has_value(),
        "constant samples have nothing beyond p99");
  check(!tail_percentile({}, 0.5).has_value(), "empty set has no percentile");
}

void test_self_time() {
  // client [0,100] with engine [10,50] (holding commit [45,60]), sched
  // [40,70] overlapping the engine span, and lock [90,120] running past the
  // parent.  Overlap goes to the earlier child; overhang is clipped.
  SpanNode root{kClient, {0, 100}, {}};
  SpanNode engine{kEngine, {10, 50}, {}};
  engine.kids.push_back({kCommit, {45, 60}, {}});
  root.kids.push_back({kLock, {90, 120}, {}});
  root.kids.push_back({kSched, {40, 70}, {}});
  root.kids.push_back(engine);
  LayerTotals self{};
  attribute(root, root.iv, self);
  check(self[kCommit] == 5, "commit child clipped to its parent: 5");
  check(self[kEngine] == 35, "engine self = 40 - 5 covered by commit");
  check(self[kSched] == 20, "overlapping sibling keeps only [50,70]");
  check(self[kLock] == 10, "overhanging child clipped to [90,100]");
  check(self[kClient] == 30, "root self = 100 - 70 covered");
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  check(sum == root.iv.length(), "self times sum to the root's length");

  LayerTotals clipped{};
  attribute(root, {20, 30}, clipped);
  check(clipped[kEngine] == 10 && clipped[kClient] == 0,
        "a clip window inside one child charges only that child");
}

double metric(const Report& rep, const std::string& name) {
  for (const Metric& m : rep.metrics) {
    if (m.name == name) return m.value;
  }
  return -1;
}

void test_block_best() {
  // Five epochs; epoch e holds samples k + 10000e ns, k = 1..2000, in both
  // classes, and epoch 2 takes half a second.  Each block is one epoch, so
  // the latencies are epoch 0's and the throughput epoch 2's.
  LatencyCell update, query;
  for (int e = 0; e < 5; ++e) {
    for (int k = 1; k <= 2000; ++k) {
      update.ns.push_back(k + 10000.0 * e);
      query.ns.push_back(k + 10000.0 * e);
    }
    update.mark();
    query.mark();
  }
  Report rep;
  report_e2e(rep, {1.0, 1.0, 0.5, 1.0, 1.0}, {&update}, {&query});
  check(rep.gate_failures.empty(), "blocks: every block has a p99");
  check(std::fabs(metric(rep, "txn_per_s") - 8000) < 1e-9,
        "throughput is the fastest block's, both classes counted");
  check(std::fabs(metric(rep, "update_p50_us") - 1.0005) < 1e-9,
        "update p50 is the lowest block's");
  check(std::fabs(metric(rep, "query_p99_us") - 1.98001) < 1e-9,
        "query p99 is the lowest block's");

  // Too few samples for five blocks: one block over the whole run.
  LatencyCell thin;
  for (int k = 1; k <= 3000; ++k) thin.ns.push_back(k);
  for (int e = 0; e < 5; ++e) thin.marks.push_back(std::size_t(600 * (e + 1)));
  Report one;
  report_e2e(one, std::vector<double>(5, 1.0), {&update}, {&thin});
  check(one.gate_failures.empty() &&
            std::fabs(metric(one, "query_p50_us") - 1.5005) < 1e-9,
        "a thin class collapses the run into one block");
}

void test_remainder() {
  check(std::fabs(unattributed(100.0, {30.0, 40.0, 20.0}) - 10.0) < 1e-12,
        "remainder = e2e - sum of layer means");
  check(std::fabs(unattributed(5.0, {}) - 5.0) < 1e-12,
        "no layers leave everything unattributed");
}

}  // namespace

int self_test() {
  test_tail_percentile();
  test_self_time();
  test_block_best();
  test_remainder();
  if (failures == 0) std::fprintf(stderr, "self-test: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
