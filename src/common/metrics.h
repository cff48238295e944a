// Thread-safe counters and latency histograms used by the executor and the
// benchmark harness to report the rows the paper's evaluation talks about:
// throughput, abort/rollback counts, response time, accumulated fuzziness.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/ordered_lock.h"

namespace atp {

/// Relaxed atomic counter.  Sum-only; per-thread sharding is overkill here
/// because the engine's critical sections dominate.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);  // relaxed-ok: monotone tally
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);  // relaxed-ok: stat read
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);  // relaxed-ok: quiescent reset
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Simple summary of a set of samples.
struct StatSummary {
  std::uint64_t count = 0;
  double min = 0, max = 0, mean = 0, p50 = 0, p95 = 0, p99 = 0, sum = 0;
};

/// Interpolated percentile over an already-sorted, non-empty sample set.
/// Linear interpolation between closest ranks (the "C = 1" convention):
/// percentile q in [0, 1] sits at fractional rank q*(n-1).  This is the one
/// percentile definition used everywhere (Histogram, the bench harness, the
/// JSON emitters, the obs snapshots) so numbers are comparable across
/// reports.  Every edge case -- q outside [0, 1], n == 1, an exact top
/// rank -- funnels through the single clamped interpolation below rather
/// than early-return special cases, so no caller can disagree with another
/// about the boundaries.
[[nodiscard]] inline double percentile_of(const std::vector<double>& sorted,
                                          double q) {
  if (sorted.empty()) return 0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * double(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - double(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Mutex-guarded sample recorder with bounded memory: count/sum/min/max are
/// tracked exactly, while percentiles come from a fixed-size reservoir
/// (Vitter's Algorithm R -- each sample survives with probability cap/n, so
/// the reservoir is a uniform sample of the whole stream).  Below the cap the
/// reservoir holds every sample and summarize() is exact.
class Histogram {
 public:
  static constexpr std::size_t kDefaultReservoir = 4096;

  explicit Histogram(std::size_t reservoir_capacity = kDefaultReservoir)
      : capacity_(std::max<std::size_t>(1, reservoir_capacity)) {}

  void record(double sample) {
    std::lock_guard lock(mu_);
    ++count_;
    sum_ += sample;
    min_ = count_ == 1 ? sample : std::min(min_, sample);
    max_ = count_ == 1 ? sample : std::max(max_, sample);
    if (samples_.size() < capacity_) {
      samples_.push_back(sample);
      return;
    }
    // Algorithm R: replace a uniformly-random slot with probability cap/n.
    const std::uint64_t slot = next_random() % count_;
    if (slot < capacity_) samples_[slot] = sample;
  }

  [[nodiscard]] StatSummary summarize() const {
    std::lock_guard lock(mu_);
    StatSummary s;
    if (count_ == 0) return s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.sum = sum_;
    s.mean = sum_ / double(count_);
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentile_of(sorted, 0.50);
    s.p95 = percentile_of(sorted, 0.95);
    s.p99 = percentile_of(sorted, 0.99);
    return s;
  }

  /// Samples currently held for percentile estimation (<= the capacity the
  /// histogram was built with).
  [[nodiscard]] std::size_t reservoir_size() const {
    std::lock_guard lock(mu_);
    return samples_.size();
  }

  /// Fold `other` into this histogram without re-recording samples.
  /// Count/sum/min/max merge exactly.  The reservoirs merge reservoir-aware:
  /// when both sides still hold their complete streams the samples simply
  /// concatenate (merge stays exact below the cap); otherwise the merged
  /// reservoir draws each slot from one side with probability proportional
  /// to the *stream* sizes behind the reservoirs (not the reservoir sizes),
  /// so it remains an approximately uniform sample of the combined stream.
  /// This is what lets per-thread histograms aggregate into one snapshot at
  /// collection time.  Thread-safe against concurrent record()s on either
  /// side; `other` is snapshotted first, so merging a histogram into itself
  /// behaves as merging an identical copy.
  void merge(const Histogram& other) {
    std::uint64_t o_count;
    double o_sum, o_min, o_max;
    std::vector<double> o_samples;
    {
      std::lock_guard lock(other.mu_);
      o_count = other.count_;
      o_sum = other.sum_;
      o_min = other.min_;
      o_max = other.max_;
      o_samples = other.samples_;
    }
    if (o_count == 0) return;
    std::lock_guard lock(mu_);
    if (count_ == 0) {
      min_ = o_min;
      max_ = o_max;
    } else {
      min_ = std::min(min_, o_min);
      max_ = std::max(max_, o_max);
    }
    const bool both_complete =
        samples_.size() == count_ && o_samples.size() == o_count;
    if (both_complete && samples_.size() + o_samples.size() <= capacity_) {
      samples_.insert(samples_.end(), o_samples.begin(), o_samples.end());
    } else {
      // Weighted draw without replacement: slot by slot, pick side A (ours)
      // with probability rem_a / (rem_a + rem_b), where the remainders start
      // at the stream counts and scale down as each side's reservoir drains.
      std::vector<double> merged;
      const std::size_t m =
          std::min(capacity_, samples_.size() + o_samples.size());
      merged.reserve(m);
      // Per-sample stream weight: how many stream elements one reservoir
      // sample stands for.
      const double w_a =
          samples_.empty() ? 0 : double(count_) / double(samples_.size());
      const double w_b =
          o_samples.empty() ? 0 : double(o_count) / double(o_samples.size());
      std::size_t ia = 0, ib = 0;
      while (merged.size() < m) {
        const double rem_a = w_a * double(samples_.size() - ia);
        const double rem_b = w_b * double(o_samples.size() - ib);
        if (rem_a + rem_b <= 0) break;
        const double pick =
            double(next_random() % (1u << 24)) / double(1u << 24);
        if (ia < samples_.size() &&
            (ib >= o_samples.size() || pick * (rem_a + rem_b) < rem_a)) {
          merged.push_back(samples_[ia++]);
        } else {
          merged.push_back(o_samples[ib++]);
        }
      }
      samples_ = std::move(merged);
    }
    count_ += o_count;
    sum_ += o_sum;
  }

  void reset() {
    std::lock_guard lock(mu_);
    samples_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

 private:
  // xorshift64*: cheap, seeded deterministically so summaries of identical
  // streams agree run to run.
  std::uint64_t next_random() {
    rng_state_ ^= rng_state_ >> 12;
    rng_state_ ^= rng_state_ << 25;
    rng_state_ ^= rng_state_ >> 27;
    return rng_state_ * 0x2545F4914F6CDD1DULL;
  }

  const std::size_t capacity_;
  mutable OrderedMutex<LockRank::kHistogram> mu_;  ///< rank kHistogram: leaf
  std::vector<double> samples_;  ///< the reservoir
  std::uint64_t count_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
};

/// Everything an executor run reports.  One instance per run.
struct RunMetrics {
  Counter committed_txns;       // original transactions fully committed
  Counter committed_pieces;     // pieces committed (== txns when unchopped)
  Counter aborts_deadlock;      // aborts due to deadlock victimhood
  Counter aborts_rollback;      // programmed rollback statements taken
  Counter resubmissions;        // piece re-runs by the process handler
  Histogram txn_latency_us;     // whole original-transaction response time
  Histogram piece_latency_us;   // per-piece response time
  Histogram txn_fuzziness;      // Z_t of committed query ETs
  Histogram query_error;        // |observed - serial ground truth| for audits

  void reset() {
    committed_txns.reset();
    committed_pieces.reset();
    aborts_deadlock.reset();
    aborts_rollback.reset();
    resubmissions.reset();
    txn_latency_us.reset();
    piece_latency_us.reset();
    txn_fuzziness.reset();
    query_error.reset();
  }
};

}  // namespace atp
